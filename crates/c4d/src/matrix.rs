//! The communication delay matrix and its row/column/cell analysis (Fig 7).
//!
//! Each element `(src, dst)` holds the mean message delay between a pair of
//! ranks. Because all workers split messages identically (§III-A), healthy
//! entries are tightly clustered; anomalies stand out as:
//!
//! * a single hot **cell** → that one connection (a congested link);
//! * a hot **row** → the source rank's send side (NIC Tx);
//! * a hot **column** → the destination rank's receive side (NIC Rx).

use c4_telemetry::ConnRecord;
use c4_topology::GpuId;

/// What the matrix analysis localized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatrixFinding {
    /// The whole row of `rank` is slow: its transmit side is the problem.
    TxSlow {
        /// Source rank with the slow row.
        rank: u32,
        /// Mean slowdown of the row vs the healthy baseline.
        ratio: f64,
    },
    /// The whole column of `rank` is slow: its receive side is the problem.
    RxSlow {
        /// Destination rank with the slow column.
        rank: u32,
        /// Mean slowdown of the column vs the healthy baseline.
        ratio: f64,
    },
    /// One connection is slow: a specific path between two ranks.
    ConnectionSlow {
        /// Source rank.
        src: u32,
        /// Destination rank.
        dst: u32,
        /// Slowdown vs the healthy baseline.
        ratio: f64,
    },
}

impl MatrixFinding {
    /// The slowdown ratio of the finding.
    pub fn ratio(&self) -> f64 {
        match self {
            MatrixFinding::TxSlow { ratio, .. }
            | MatrixFinding::RxSlow { ratio, .. }
            | MatrixFinding::ConnectionSlow { ratio, .. } => *ratio,
        }
    }
}

/// A dense `n×n` matrix of pairwise communication delays (seconds); absent
/// pairs are `NaN`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DelayMatrix {
    n: usize,
    cells: Vec<f64>,
}

/// Buffers that [`DelayMatrix::refill`] and [`DelayMatrix::analyze_with`]
/// reuse from call to call, so a streaming master re-analyzing its matrix
/// every scan allocates nothing once they have grown.
#[derive(Debug, Clone, Default)]
pub(crate) struct MatrixScratch {
    /// Records folded into each cell.
    counts: Vec<u32>,
    /// Present off-diagonal values, sorted for the baseline median.
    present: Vec<f64>,
    /// Rows flagged slow (Tx).
    rows: Vec<bool>,
    /// Columns flagged slow (Rx).
    cols: Vec<bool>,
}

impl DelayMatrix {
    /// Creates an empty (all-absent) matrix for `n` ranks.
    pub fn new(n: usize) -> Self {
        DelayMatrix {
            n,
            cells: vec![f64::NAN; n * n],
        }
    }

    /// Builds the matrix from connection records, averaging the mean message
    /// delay over all QPs between each rank pair. `devices[rank]` maps ranks
    /// to GPUs; records between GPUs outside `devices` are ignored.
    pub fn from_conn_records<'a>(
        devices: &[GpuId],
        records: impl Iterator<Item = &'a ConnRecord>,
    ) -> Self {
        let mut m = DelayMatrix::default();
        m.refill(devices, records, &mut MatrixScratch::default());
        m
    }

    /// [`from_conn_records`](Self::from_conn_records) in place: resizes the
    /// matrix to `devices.len()` ranks, sums each cell's record delays in
    /// record order, then divides by the cell's record count (`NaN` when
    /// none landed).
    pub(crate) fn refill<'a>(
        &mut self,
        devices: &[GpuId],
        records: impl Iterator<Item = &'a ConnRecord>,
        scratch: &mut MatrixScratch,
    ) {
        let n = devices.len();
        let rank_of = |g: GpuId| devices.iter().position(|&d| d == g);
        self.n = n;
        self.cells.clear();
        self.cells.resize(n * n, 0.0);
        let counts = &mut scratch.counts;
        counts.clear();
        counts.resize(n * n, 0);
        for rec in records {
            let (Some(src), Some(dst)) = (rank_of(rec.key.src_gpu), rank_of(rec.key.dst_gpu))
            else {
                continue;
            };
            if rec.messages == 0 {
                continue;
            }
            self.cells[src * n + dst] += rec.mean_message_duration().as_secs_f64();
            counts[src * n + dst] += 1;
        }
        for (cell, &count) in self.cells.iter_mut().zip(counts.iter()) {
            *cell = if count > 0 {
                *cell / count as f64
            } else {
                f64::NAN
            };
        }
    }

    /// Sets one cell (delay in seconds).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn set(&mut self, src: usize, dst: usize, delay_secs: f64) {
        assert!(src < self.n && dst < self.n, "matrix index out of range");
        self.cells[src * self.n + dst] = delay_secs;
    }

    /// One cell; `NaN` when absent.
    pub fn get(&self, src: usize, dst: usize) -> f64 {
        self.cells[src * self.n + dst]
    }

    /// Median of all present off-diagonal entries (the healthy baseline),
    /// sorted in `present`.
    fn baseline(&self, present: &mut Vec<f64>) -> Option<f64> {
        present.clear();
        present.extend(
            (0..self.n)
                .flat_map(|i| (0..self.n).map(move |j| (i, j)))
                .filter(|&(i, j)| i != j)
                .map(|(i, j)| self.get(i, j))
                .filter(|v| v.is_finite()),
        );
        if present.is_empty() {
            return None;
        }
        present.sort_unstable_by(f64::total_cmp);
        Some(present[present.len() / 2])
    }

    /// Runs the Fig 7 analysis: flags slow rows (Tx), slow columns (Rx) and
    /// isolated slow cells (single connections).
    ///
    /// `slow_factor` is the abnormality threshold vs the baseline median;
    /// `row_col_fraction` is the fraction of abnormal entries required to
    /// call a whole row/column slow.
    pub fn analyze(&self, slow_factor: f64, row_col_fraction: f64) -> Vec<MatrixFinding> {
        self.analyze_with(slow_factor, row_col_fraction, &mut MatrixScratch::default())
    }

    /// [`analyze`](Self::analyze) with its working vectors in `scratch`.
    pub(crate) fn analyze_with(
        &self,
        slow_factor: f64,
        row_col_fraction: f64,
        scratch: &mut MatrixScratch,
    ) -> Vec<MatrixFinding> {
        let Some(base) = self.baseline(&mut scratch.present) else {
            return Vec::new();
        };
        if base <= 0.0 {
            return Vec::new();
        }
        let abnormal = |v: f64| v.is_finite() && v > base * slow_factor;
        let n = self.n;
        let mut findings = Vec::new();
        let MatrixScratch { rows, cols, .. } = scratch;
        rows.clear();
        rows.resize(n, false);
        cols.clear();
        cols.resize(n, false);
        for (i, flagged) in rows.iter_mut().enumerate() {
            let row = (0..n).filter(|&j| j != i).map(|j| self.get(i, j));
            if let Some(ratio) = slow_line_ratio(row, abnormal, base, row_col_fraction) {
                *flagged = true;
                findings.push(MatrixFinding::TxSlow {
                    rank: i as u32,
                    ratio,
                });
            }
        }
        for (j, flagged) in cols.iter_mut().enumerate() {
            let col = (0..n).filter(|&i| i != j).map(|i| self.get(i, j));
            if let Some(ratio) = slow_line_ratio(col, abnormal, base, row_col_fraction) {
                *flagged = true;
                findings.push(MatrixFinding::RxSlow {
                    rank: j as u32,
                    ratio,
                });
            }
        }
        for (i, &row_is_slow) in rows.iter().enumerate() {
            for (j, &col_is_slow) in cols.iter().enumerate() {
                if i == j || row_is_slow || col_is_slow {
                    continue;
                }
                let v = self.get(i, j);
                if abnormal(v) {
                    findings.push(MatrixFinding::ConnectionSlow {
                        src: i as u32,
                        dst: j as u32,
                        ratio: v / base,
                    });
                }
            }
        }
        // `total_cmp` keeps the sort total even if a ratio goes non-finite
        // (e.g. a pathological baseline): ordering degrades gracefully
        // instead of panicking the whole analysis.
        findings.sort_unstable_by(|a, b| b.ratio().total_cmp(&a.ratio()));
        findings
    }

    /// Renders the matrix as rows of `ms` values (for the Fig 7 binary).
    pub fn to_display_ms(&self) -> Vec<Vec<f64>> {
        (0..self.n)
            .map(|i| {
                (0..self.n)
                    .map(|j| {
                        let v = self.get(i, j);
                        if v.is_finite() {
                            v * 1e3
                        } else {
                            f64::NAN
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// The Fig 7 test of one row or column: the mean of its abnormal values
/// over `base`, when at least `row_col_fraction` of its present (finite)
/// values are abnormal. One pass in index order; the abnormal sum starts at
/// -0.0, as `Iterator::sum` does.
fn slow_line_ratio(
    values: impl Iterator<Item = f64>,
    abnormal: impl Fn(f64) -> bool,
    base: f64,
    row_col_fraction: f64,
) -> Option<f64> {
    let (mut present, mut bad, mut bad_sum) = (0usize, 0usize, -0.0_f64);
    for v in values.filter(|v| v.is_finite()) {
        present += 1;
        if abnormal(v) {
            bad += 1;
            bad_sum += v;
        }
    }
    (present > 0 && bad as f64 / present as f64 >= row_col_fraction)
        .then(|| bad_sum / bad.max(1) as f64 / base)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A healthy 8×8 matrix with every off-diagonal cell at `base` seconds.
    fn healthy(n: usize, base: f64) -> DelayMatrix {
        let mut m = DelayMatrix::new(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    m.set(i, j, base);
                }
            }
        }
        m
    }

    #[test]
    fn healthy_matrix_has_no_findings() {
        let m = healthy(8, 0.010);
        assert!(m.analyze(2.0, 0.7).is_empty());
        assert!((m.baseline(&mut Vec::new()).unwrap() - 0.010).abs() < 1e-12);
    }

    #[test]
    fn single_hot_cell_is_a_connection_finding() {
        let mut m = healthy(8, 0.010);
        m.set(3, 4, 0.050);
        let findings = m.analyze(2.0, 0.7);
        assert_eq!(findings.len(), 1);
        match findings[0] {
            MatrixFinding::ConnectionSlow { src, dst, ratio } => {
                assert_eq!((src, dst), (3, 4));
                assert!((ratio - 5.0).abs() < 1e-9);
            }
            f => panic!("unexpected finding {f:?}"),
        }
    }

    #[test]
    fn hot_row_is_tx_slow() {
        let mut m = healthy(8, 0.010);
        for j in 0..8 {
            if j != 3 {
                m.set(3, j, 0.040);
            }
        }
        let findings = m.analyze(2.0, 0.7);
        assert_eq!(findings.len(), 1);
        match findings[0] {
            MatrixFinding::TxSlow { rank, ratio } => {
                assert_eq!(rank, 3);
                assert!((ratio - 4.0).abs() < 1e-9);
            }
            f => panic!("unexpected finding {f:?}"),
        }
    }

    #[test]
    fn hot_column_is_rx_slow() {
        let mut m = healthy(8, 0.010);
        for i in 0..8 {
            if i != 5 {
                m.set(i, 5, 0.030);
            }
        }
        let findings = m.analyze(2.0, 0.7);
        assert_eq!(findings.len(), 1);
        assert!(matches!(findings[0], MatrixFinding::RxSlow { rank: 5, .. }));
    }

    #[test]
    fn row_flag_suppresses_its_cells() {
        let mut m = healthy(8, 0.010);
        for j in 0..8 {
            if j != 2 {
                m.set(2, j, 0.050);
            }
        }
        m.set(6, 7, 0.050); // independent hot cell
        let findings = m.analyze(2.0, 0.7);
        assert_eq!(findings.len(), 2);
        assert!(findings
            .iter()
            .any(|f| matches!(f, MatrixFinding::TxSlow { rank: 2, .. })));
        assert!(findings
            .iter()
            .any(|f| matches!(f, MatrixFinding::ConnectionSlow { src: 6, dst: 7, .. })));
    }

    #[test]
    fn sparse_matrix_analyzes_present_entries_only() {
        // Ring-like sparsity: only neighbours present.
        let mut m = DelayMatrix::new(8);
        for i in 0..8 {
            m.set(i, (i + 1) % 8, 0.010);
        }
        m.set(3, 4, 0.080);
        let findings = m.analyze(2.0, 0.7);
        // Row 3 has a single present entry, 100% abnormal → row flag wins.
        assert!(matches!(findings[0], MatrixFinding::TxSlow { rank: 3, .. }));
    }

    #[test]
    fn empty_matrix_is_silent() {
        let m = DelayMatrix::new(4);
        assert!(m.baseline(&mut Vec::new()).is_none());
        assert!(m.analyze(2.0, 0.7).is_empty());
    }

    #[test]
    fn findings_sorted_by_severity() {
        let mut m = healthy(8, 0.010);
        m.set(1, 2, 0.030);
        m.set(4, 5, 0.090);
        let findings = m.analyze(2.0, 0.7);
        assert_eq!(findings.len(), 2);
        assert!(findings[0].ratio() > findings[1].ratio());
        assert!(matches!(
            findings[0],
            MatrixFinding::ConnectionSlow { src: 4, dst: 5, .. }
        ));
    }

    #[test]
    fn display_converts_to_ms() {
        let mut m = DelayMatrix::new(2);
        m.set(0, 1, 0.0125);
        let rows = m.to_display_ms();
        assert!((rows[0][1] - 12.5).abs() < 1e-9);
        assert!(rows[0][0].is_nan());
    }
}
