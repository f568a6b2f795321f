//! Deterministic randomness for the simulation.
//!
//! [`DetRng`] wraps a seeded [`rand::rngs::StdRng`] and adds the handful of
//! distributions the fault-injection and congestion models need (exponential,
//! normal, log-normal) so the workspace does not need `rand_distr`.
//!
//! Every experiment takes a single root seed; subsystems seed their own
//! generators from it with distinct salts, so adding randomness in one
//! subsystem never perturbs another (a property the regression tests rely
//! on).

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic random source.
///
/// # Example
///
/// ```
/// use c4_simcore::DetRng;
/// use rand::RngCore;
/// let mut a = DetRng::seed_from(7);
/// let mut b = DetRng::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: StdRng,
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        DetRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo);
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Standard normal deviate (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        // Draw u1 away from zero to keep ln() finite.
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal deviate with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Exponential deviate with the given mean (`mean = 1/λ`).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let u = 1.0 - self.uniform();
        -mean * u.ln()
    }

    /// Log-normal deviate parameterized by the *median* and the σ of the
    /// underlying normal. Used for manual-diagnosis durations (heavy tail).
    pub fn lognormal(&mut self, median: f64, sigma: f64) -> f64 {
        debug_assert!(median > 0.0);
        median * (sigma * self.normal()).exp()
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Picks one element uniformly, or `None` when the slice is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.index(items.len())])
        }
    }

    /// Weighted pick: returns an index with probability proportional to its
    /// weight, or `None` if all weights are zero or the slice is empty.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.uniform() * total;
        for (i, w) in weights.iter().enumerate() {
            if *w > 0.0 && w.is_finite() {
                if target < *w {
                    return Some(i);
                }
                target -= *w;
            }
        }
        // Floating-point slack: fall back to the last positive weight.
        weights.iter().rposition(|w| *w > 0.0)
    }
}

impl RngCore for DetRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from(1234);
        let mut b = DetRng::seed_from(1234);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = DetRng::seed_from(9);
        let n = 20_000;
        let mean = 3.5;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let est = sum / n as f64;
        assert!((est - mean).abs() < 0.1, "estimated {est}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = DetRng::seed_from(13);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn weighted_pick_respects_zero_weights() {
        let mut rng = DetRng::seed_from(17);
        for _ in 0..100 {
            let i = rng.pick_weighted(&[0.0, 2.0, 0.0]).unwrap();
            assert_eq!(i, 1);
        }
        assert_eq!(rng.pick_weighted(&[0.0, 0.0]), None);
        assert_eq!(rng.pick_weighted(&[]), None);
    }

    #[test]
    fn weighted_pick_distribution() {
        let mut rng = DetRng::seed_from(19);
        let weights = [1.0, 3.0];
        let mut counts = [0u32; 2];
        for _ in 0..10_000 {
            counts[rng.pick_weighted(&weights).unwrap()] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::seed_from(23);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn pick_handles_empty() {
        let mut rng = DetRng::seed_from(29);
        let empty: [u8; 0] = [];
        assert!(rng.pick(&empty).is_none());
        assert!(rng.pick(&[42]).is_some());
    }
}
