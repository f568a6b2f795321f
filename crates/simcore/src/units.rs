//! Physical units used throughout the reproduction: [`Bandwidth`] and
//! [`ByteSize`].
//!
//! The paper reports bus bandwidth in Gbps (the `nccl-tests` convention) and
//! message sizes in bytes; keeping them as newtypes prevents the classic
//! bits-vs-bytes and G-vs-Gi confusions from leaking into the models.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A data rate. Stored internally as bits per second.
///
/// # Example
///
/// ```
/// use c4_simcore::{Bandwidth, ByteSize};
/// let link = Bandwidth::from_gbps(200.0);
/// assert_eq!(link.as_bytes_per_sec(), 25e9);
/// let msg = ByteSize::from_mib(100);
/// assert_eq!(msg.as_bytes(), 100 * 1024 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Zero rate.
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// Creates a rate from gigabits per second (decimal, as link specs use).
    pub fn from_gbps(gbps: f64) -> Self {
        Bandwidth(gbps * 1e9)
    }

    /// Creates a rate from bits per second.
    pub fn from_bps(bps: f64) -> Self {
        Bandwidth(bps)
    }

    /// The rate in gigabits per second.
    pub fn as_gbps(self) -> f64 {
        self.0 / 1e9
    }

    /// The rate in bytes per second.
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0 / 8.0
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl AddAssign for Bandwidth {
    fn add_assign(&mut self, rhs: Bandwidth) {
        self.0 += rhs.0;
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    fn mul(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 * rhs)
    }
}

impl Div<f64> for Bandwidth {
    type Output = Bandwidth;
    fn div(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 / rhs)
    }
}

impl Div<Bandwidth> for Bandwidth {
    type Output = f64;
    fn div(self, rhs: Bandwidth) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        iter.fold(Bandwidth::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} Gbps", self.as_gbps())
    }
}

/// A data volume in bytes.
///
/// # Example
///
/// ```
/// use c4_simcore::ByteSize;
/// assert_eq!(ByteSize::from_mib(1).as_bytes(), 1024 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a volume of `n` bytes.
    pub const fn from_bytes(n: u64) -> Self {
        ByteSize(n)
    }

    /// Creates a volume of `n` MiB.
    pub const fn from_mib(n: u64) -> Self {
        ByteSize(n * 1024 * 1024)
    }

    /// The volume in bytes.
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// The volume in fractional MiB.
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// The volume in fractional GiB.
    pub fn as_gib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// Integer division into `n` near-equal chunks; the first `rem` chunks get
    /// one extra byte so the total is preserved.
    pub fn split(self, n: usize) -> Vec<ByteSize> {
        let n = n.max(1) as u64;
        let base = self.0 / n;
        let rem = self.0 % n;
        (0..n)
            .map(|i| ByteSize(base + u64::from(i < rem)))
            .collect()
    }

    /// Saturating scalar multiply.
    pub fn scaled(self, k: f64) -> ByteSize {
        if k <= 0.0 || !k.is_finite() {
            return ByteSize::ZERO;
        }
        let v = self.0 as f64 * k;
        if v >= u64::MAX as f64 {
            ByteSize(u64::MAX)
        } else {
            ByteSize(v.round() as u64)
        }
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        *self = *self + rhs;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0.saturating_mul(rhs))
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 * 1024 {
            write!(f, "{:.2} GiB", self.as_gib_f64())
        } else if self.0 >= 1024 * 1024 {
            write!(f, "{:.2} MiB", self.as_mib_f64())
        } else if self.0 >= 1024 {
            write!(f, "{:.2} KiB", self.0 as f64 / 1024.0)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_conversions() {
        let b = Bandwidth::from_gbps(200.0);
        assert_eq!(b.as_bytes_per_sec(), 25e9);
        assert!((b / Bandwidth::from_gbps(100.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_sub_saturates() {
        let a = Bandwidth::from_gbps(10.0);
        let b = Bandwidth::from_gbps(20.0);
        assert_eq!(a - b, Bandwidth::ZERO);
    }

    #[test]
    fn split_preserves_total() {
        let s = ByteSize::from_bytes(103);
        let parts = s.split(4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().copied().sum::<ByteSize>(), s);
        assert!(parts.iter().all(|p| {
            let d = p.as_bytes() as i64 - 25;
            (0..=1).contains(&d)
        }));
    }

    #[test]
    fn scaled_saturates_and_clamps() {
        let s = ByteSize::from_bytes(100);
        assert_eq!(s.scaled(0.5).as_bytes(), 50);
        assert_eq!(s.scaled(-1.0), ByteSize::ZERO);
        assert_eq!(s.scaled(f64::NAN), ByteSize::ZERO);
        assert_eq!(
            ByteSize::from_bytes(u64::MAX).scaled(2.0).as_bytes(),
            u64::MAX
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", ByteSize::from_bytes(5)), "5 B");
        assert_eq!(format!("{}", ByteSize::from_bytes(2 * 1024)), "2.00 KiB");
        assert_eq!(format!("{}", ByteSize::from_mib(3)), "3.00 MiB");
        assert_eq!(format!("{}", ByteSize::from_mib(4 * 1024)), "4.00 GiB");
        assert_eq!(format!("{}", Bandwidth::from_gbps(1.5)), "1.50 Gbps");
    }
}
