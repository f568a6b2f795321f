//! The four-syndrome detectors (§III-A "C4D analysis").
//!
//! Hang detection keys off the BSP anchor: every rank must launch the same
//! collective sequence. A rank whose peers are parked in sequence `s` but
//! which never launched `s` itself has hung *outside* communication; if all
//! ranks are parked in `s` past the timeout, communication itself hung.
//!
//! Slow detection is relative: workers are homogeneous, so the median is the
//! truth and outliers are suspects.

use c4_simcore::{SimDuration, SimTime};
use c4_telemetry::{CommRecord, TelemetrySnapshot};

use crate::matrix::MatrixFinding;

/// How long a collective may stay in flight before it counts as hung.
/// C4D detects in tens of seconds — vs the 30-minute PyTorch elastic
/// watchdog the paper contrasts with (§IV-B1).
pub const HANG_TIMEOUT: SimDuration = SimDuration::from_secs(15);

/// Straggler threshold: a rank whose compute time exceeds the median by
/// this factor is a non-communication-slow suspect.
pub(crate) const STRAGGLER_FACTOR: f64 = 1.5;

/// A detected anomaly syndrome.
#[derive(Debug, Clone, PartialEq)]
pub enum Syndrome {
    /// The collective at `seq` is in flight on every rank past the timeout.
    CommHang {
        /// Communicator id.
        comm: u64,
        /// Hung sequence number.
        seq: u64,
        /// Ranks parked in the operation.
        stuck_ranks: Vec<u32>,
    },
    /// Some ranks never launched `seq` while their peers are parked in it.
    NonCommHang {
        /// Communicator id.
        comm: u64,
        /// Sequence the peers are parked in.
        seq: u64,
        /// Ranks that never arrived (the suspects).
        missing_ranks: Vec<u32>,
    },
    /// The delay matrix localized slow communication.
    CommSlow {
        /// Communicator id.
        comm: u64,
        /// Localized findings, most severe first.
        findings: Vec<MatrixFinding>,
    },
    /// A rank consistently arrives late at the sync point.
    NonCommSlow {
        /// Communicator id.
        comm: u64,
        /// The straggler rank.
        straggler: u32,
        /// Its compute time over the median rank's.
        ratio: f64,
    },
}

/// Scans per-rank snapshots for hang syndromes on one communicator.
///
/// `snapshots[rank]` must be the snapshot of the worker at that rank.
/// Returns at most one syndrome: non-communication hangs take priority
/// (they identify a specific suspect).
pub fn detect_hang(
    now: SimTime,
    comm: &CommRecord,
    snapshots: &[TelemetrySnapshot],
) -> Option<Syndrome> {
    assert_eq!(
        snapshots.len(),
        comm.nranks(),
        "one snapshot per rank required"
    );
    // Highest sequence any rank has launched.
    let latest_launched: Option<u64> = snapshots
        .iter()
        .flat_map(|s| s.colls.iter().filter(|c| c.comm == comm.comm))
        .map(|c| c.seq)
        .max();
    let seq = latest_launched?;

    let mut stuck = Vec::new();
    let mut missing = Vec::new();
    let mut oldest_start: Option<SimTime> = None;
    for (rank, snap) in snapshots.iter().enumerate() {
        let rec = snap
            .colls
            .iter()
            .rfind(|c| c.comm == comm.comm && c.seq == seq);
        match rec {
            None => missing.push(rank as u32),
            Some(r) if r.end.is_none() => {
                stuck.push(rank as u32);
                oldest_start = Some(match oldest_start {
                    Some(t) => t.min(r.start),
                    None => r.start,
                });
            }
            Some(_) => {}
        }
    }

    // The anchor must have been outstanding long enough.
    let timed_out = oldest_start
        .map(|t| now - t >= HANG_TIMEOUT)
        .unwrap_or(false);
    if !timed_out {
        return None;
    }
    if !missing.is_empty() {
        return Some(Syndrome::NonCommHang {
            comm: comm.comm,
            seq,
            missing_ranks: missing,
        });
    }
    if !stuck.is_empty() {
        return Some(Syndrome::CommHang {
            comm: comm.comm,
            seq,
            stuck_ranks: stuck,
        });
    }
    None
}

/// Scans rank records for a persistent straggler (non-communication slow).
///
/// Uses each rank's mean compute time over its recorded steps; the paper's
/// receiver-driven wait chain surfaces the same rank as the one every
/// successor ends up waiting on.
pub fn detect_noncomm_slow(comm: &CommRecord, snapshots: &[TelemetrySnapshot]) -> Option<Syndrome> {
    assert_eq!(snapshots.len(), comm.nranks());
    let mut means: Vec<f64> = Vec::with_capacity(snapshots.len());
    for snap in snapshots {
        let samples: Vec<f64> = snap
            .ranks
            .iter()
            .filter(|r| r.comm == comm.comm)
            .map(|r| r.compute.as_secs_f64())
            .collect();
        if samples.is_empty() {
            return None; // not enough data yet
        }
        means.push(samples.iter().sum::<f64>() / samples.len() as f64);
    }
    // The shared straggler test handles non-finite means (NaN / the INFINITY
    // "nothing observed" sentinel) by excluding them instead of panicking.
    let (straggler, ratio) = crate::smoothing::raw_straggler(&means, STRAGGLER_FACTOR)?;
    Some(Syndrome::NonCommSlow {
        comm: comm.comm,
        straggler: straggler as u32,
        ratio,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4_telemetry::{AlgoKind, CollKind, CollRecord, DataType, RankRecord, WorkerTelemetry};
    use c4_topology::GpuId;

    fn comm_of(n: usize) -> CommRecord {
        CommRecord {
            comm: 1,
            devices: (0..n).map(GpuId::from_index).collect(),
            created: SimTime::ZERO,
        }
    }

    fn coll(seq: u64, rank: u32, start_s: u64, end: Option<u64>) -> CollRecord {
        CollRecord {
            comm: 1,
            seq,
            rank,
            kind: CollKind::AllReduce,
            algo: AlgoKind::Ring,
            dtype: DataType::F16,
            count: 1,
            start: SimTime::from_secs(start_s),
            end: end.map(SimTime::from_secs),
        }
    }

    fn snapshots_with(colls: Vec<Vec<CollRecord>>) -> Vec<TelemetrySnapshot> {
        colls
            .into_iter()
            .enumerate()
            .map(|(i, cs)| {
                let mut w = WorkerTelemetry::new(GpuId::from_index(i));
                for c in cs {
                    w.record_coll(c);
                }
                w.snapshot(SimTime::from_secs(100))
            })
            .collect()
    }

    #[test]
    fn all_ranks_stuck_is_comm_hang() {
        let comm = comm_of(4);
        let snaps = snapshots_with(
            (0..4)
                .map(|r| vec![coll(5, r, 10, None)])
                .collect::<Vec<_>>(),
        );
        let syn = detect_hang(SimTime::from_secs(60), &comm, &snaps).unwrap();
        match syn {
            Syndrome::CommHang {
                seq, stuck_ranks, ..
            } => {
                assert_eq!(seq, 5);
                assert_eq!(stuck_ranks, vec![0, 1, 2, 3]);
            }
            s => panic!("unexpected {s:?}"),
        }
    }

    #[test]
    fn missing_rank_is_noncomm_hang() {
        let comm = comm_of(4);
        let mut colls: Vec<Vec<CollRecord>> =
            (0..4u32).map(|r| vec![coll(5, r, 10, None)]).collect();
        colls[2] = vec![coll(4, 2, 5, Some(9))]; // rank 2 never launched seq 5
        let snaps = snapshots_with(colls);
        let syn = detect_hang(SimTime::from_secs(60), &comm, &snaps).unwrap();
        match syn {
            Syndrome::NonCommHang {
                seq, missing_ranks, ..
            } => {
                assert_eq!(seq, 5);
                assert_eq!(missing_ranks, vec![2]);
            }
            s => panic!("unexpected {s:?}"),
        }
    }

    #[test]
    fn no_hang_before_timeout() {
        let comm = comm_of(2);
        let snaps = snapshots_with(vec![vec![coll(1, 0, 50, None)], vec![coll(1, 1, 50, None)]]);
        assert!(detect_hang(SimTime::from_secs(55), &comm, &snaps).is_none());
        assert!(detect_hang(SimTime::from_secs(66), &comm, &snaps).is_some());
    }

    #[test]
    fn completed_ops_are_not_hangs() {
        let comm = comm_of(2);
        let snaps = snapshots_with(vec![
            vec![coll(1, 0, 10, Some(12))],
            vec![coll(1, 1, 10, Some(12))],
        ]);
        assert!(detect_hang(SimTime::from_secs(100), &comm, &snaps).is_none());
    }

    #[test]
    fn empty_history_is_silent() {
        let comm = comm_of(2);
        let snaps = snapshots_with(vec![vec![], vec![]]);
        assert!(detect_hang(SimTime::from_secs(100), &comm, &snaps).is_none());
    }

    fn rank_snaps(computes_ms: &[Vec<u64>]) -> Vec<TelemetrySnapshot> {
        computes_ms
            .iter()
            .enumerate()
            .map(|(rank, steps)| {
                let mut w = WorkerTelemetry::new(GpuId::from_index(rank));
                for (step, &ms) in steps.iter().enumerate() {
                    w.record_rank(RankRecord {
                        comm: 1,
                        rank: rank as u32,
                        step: step as u64,
                        compute: SimDuration::from_millis(ms),
                        ready_delay: SimDuration::ZERO,
                        arrived: SimTime::from_secs(step as u64),
                    });
                }
                w.snapshot(SimTime::from_secs(100))
            })
            .collect()
    }

    #[test]
    fn straggler_rank_detected() {
        let comm = comm_of(4);
        let snaps = rank_snaps(&[
            vec![100, 100, 100],
            vec![105, 95, 100],
            vec![300, 310, 290], // rank 2 is 3× slower
            vec![98, 102, 100],
        ]);
        let syn = detect_noncomm_slow(&comm, &snaps).unwrap();
        match syn {
            Syndrome::NonCommSlow {
                straggler, ratio, ..
            } => {
                assert_eq!(straggler, 2);
                assert!(ratio > 2.5 && ratio < 3.5, "ratio {ratio}");
            }
            s => panic!("unexpected {s:?}"),
        }
    }

    #[test]
    fn homogeneous_ranks_are_silent() {
        let comm = comm_of(3);
        let snaps = rank_snaps(&[vec![100, 101], vec![99, 100], vec![102, 98]]);
        assert!(detect_noncomm_slow(&comm, &snaps).is_none());
    }

    #[test]
    fn missing_rank_data_defers_detection() {
        let comm = comm_of(2);
        let snaps = rank_snaps(&[vec![100], vec![]]);
        assert!(detect_noncomm_slow(&comm, &snaps).is_none());
    }
}
