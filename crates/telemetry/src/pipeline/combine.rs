//! The per-pane fold of the windowed aggregation: a count and an
//! arrival-order sum, read back as a mean.

/// The running state of one window pane: a count and an arrival-order sum.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Aggregate {
    count: u64,
    sum: f64,
}

impl Aggregate {
    /// Folds one value in. The sum is a plain left fold in arrival order, so
    /// it is bit-identical to any batch sum over the same sequence.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
    }

    /// Number of values folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arrival-order sum of values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of values (`sum / count`, computed at read time so the fold
    /// stays a plain arrival-order sum); `None` on an empty aggregate.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_sum_mean() {
        let mut a = Aggregate::default();
        assert_eq!(a.mean(), None);
        for v in [1.0, 2.0, 4.0] {
            a.push(v);
        }
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 7.0);
        assert_eq!(a.mean(), Some(7.0 / 3.0));
    }

    #[test]
    fn sum_is_arrival_order_left_fold() {
        // Deliberately non-associative values: the streaming fold must match
        // a batch left fold exactly, not merely approximately.
        let values = [1e16, 1.0, -1e16, 1.0, 0.1, 0.2];
        let mut a = Aggregate::default();
        let mut batch = 0.0f64;
        for v in values {
            a.push(v);
            batch += v;
        }
        assert_eq!(a.sum().to_bits(), batch.to_bits());
    }
}
