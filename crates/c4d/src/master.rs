//! The C4D master: gathers per-worker snapshots, runs the detectors,
//! localizes suspects and emits C4 events (paper Fig 4/5).

use c4_simcore::SimTime;
use c4_telemetry::{C4Event, CommRecord, EventKind, EventLog, Severity, TelemetrySnapshot};
use c4_topology::{NodeId, Topology};

use crate::detectors::{detect_hang, detect_noncomm_slow, Syndrome};
use crate::matrix::{DelayMatrix, MatrixFinding};

/// A localized diagnosis ready for the steering service.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    /// When it was made.
    pub at: SimTime,
    /// The syndrome that triggered it.
    pub syndrome: Syndrome,
    /// The node to isolate, when the syndrome localizes to one.
    pub suspect: Option<NodeId>,
    /// Whether the finding warrants isolate-and-restart (vs monitoring).
    pub critical: bool,
}

/// Delay-matrix abnormality factor vs the median baseline.
pub(crate) const SLOW_FACTOR: f64 = 2.0;

/// Fraction of abnormal row/column entries to call Tx/Rx slow.
pub(crate) const ROW_COL_FRACTION: f64 = 0.7;

/// The central analysis master.
#[derive(Debug, Clone, Default)]
pub struct C4dMaster {
    log: EventLog,
}

impl C4dMaster {
    /// Creates a master with an empty event log.
    pub fn new() -> Self {
        C4dMaster::default()
    }

    /// The accumulated event log (`events.csv`).
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Scans one communicator's snapshots; returns diagnoses (may be empty).
    ///
    /// `snapshots[rank]` must hold rank `rank`'s snapshot.
    pub fn scan(
        &mut self,
        now: SimTime,
        topo: &Topology,
        comm: &CommRecord,
        snapshots: &[TelemetrySnapshot],
    ) -> Vec<Diagnosis> {
        // Hang syndromes (critical). For a comm hang the transport-level
        // stalled rank refines the suspect inside `emit_diagnoses`.
        let hang = detect_hang(now, comm, snapshots).map(|syndrome| {
            let stalled = matches!(syndrome, Syndrome::CommHang { .. })
                .then(|| {
                    stalled_rank_from_conns(comm, snapshots.iter().flat_map(|s| s.conns.iter()))
                })
                .flatten();
            (syndrome, stalled)
        });

        // Communication slow (warning): delay-matrix localization.
        let matrix = DelayMatrix::from_conn_records(
            &comm.devices,
            snapshots.iter().flat_map(|s| s.conns.iter()),
        );
        let findings = matrix.analyze(SLOW_FACTOR, ROW_COL_FRACTION);

        // Non-communication slow (warning): straggler rank.
        let noncomm = detect_noncomm_slow(comm, snapshots);

        emit_diagnoses(now, topo, comm, hang, findings, noncomm, &mut self.log)
    }
}

/// Turns detector outputs into diagnoses + C4 events — the single shared
/// emission path of the batch [`C4dMaster::scan`] and the streaming
/// [`crate::streaming::StreamingC4dMaster::scan`]. Both paths computing
/// identical detector outputs therefore produce structurally identical
/// diagnoses and event-log entries (the property the stream==batch
/// differential pins).
///
/// `hang` carries the hang syndrome plus the transport-level stalled rank
/// (used to refine the comm-hang suspect; ignored for non-comm hangs).
pub(crate) fn emit_diagnoses(
    now: SimTime,
    topo: &Topology,
    comm: &CommRecord,
    hang: Option<(Syndrome, Option<u32>)>,
    findings: Vec<MatrixFinding>,
    noncomm: Option<Syndrome>,
    log: &mut EventLog,
) -> Vec<Diagnosis> {
    let mut out = Vec::new();

    if let Some((syndrome, stalled)) = hang {
        let (kind, rank) = match &syndrome {
            Syndrome::NonCommHang { missing_ranks, .. } => {
                (EventKind::NonCommHang, missing_ranks.first().copied())
            }
            Syndrome::CommHang { stuck_ranks, .. } => {
                (EventKind::CommHang, stuck_ranks.first().copied())
            }
            _ => unreachable!("hang input carries hang syndromes"),
        };
        // For a comm hang every rank is stuck; the suspect is found via
        // transport records (the rank whose connections stopped
        // completing first). For a non-comm hang the missing rank is it.
        let suspect_rank = match &syndrome {
            Syndrome::NonCommHang { missing_ranks, .. } => missing_ranks.first().copied(),
            Syndrome::CommHang { .. } => stalled.or(rank),
            _ => None,
        };
        let suspect = suspect_rank.map(|r| topo.gpu(comm.devices[r as usize]).node);
        log.push(C4Event {
            time: now,
            severity: Severity::Critical,
            kind,
            node: suspect,
            gpu: suspect_rank.map(|r| comm.devices[r as usize]),
            link: None,
            detail: format!("comm {} syndrome {:?}", comm.comm, kind),
        });
        out.push(Diagnosis {
            at: now,
            syndrome,
            suspect,
            critical: true,
        });
    }

    if !findings.is_empty() {
        let suspect = match findings[0] {
            MatrixFinding::TxSlow { rank, .. } | MatrixFinding::RxSlow { rank, .. } => {
                Some(topo.gpu(comm.devices[rank as usize]).node)
            }
            MatrixFinding::ConnectionSlow { .. } => None,
        };
        log.push(C4Event {
            time: now,
            severity: Severity::Warning,
            kind: EventKind::CommSlow,
            node: suspect,
            gpu: None,
            link: None,
            detail: format!("comm {}: {:?}", comm.comm, findings[0]),
        });
        out.push(Diagnosis {
            at: now,
            syndrome: Syndrome::CommSlow {
                comm: comm.comm,
                findings,
            },
            suspect,
            critical: false,
        });
    }

    if let Some(syndrome) = noncomm {
        let suspect = match &syndrome {
            Syndrome::NonCommSlow { straggler, .. } => {
                Some(topo.gpu(comm.devices[*straggler as usize]).node)
            }
            _ => None,
        };
        log.push(C4Event {
            time: now,
            severity: Severity::Warning,
            kind: EventKind::NonCommSlow,
            node: suspect,
            gpu: None,
            link: None,
            detail: format!("comm {} straggler", comm.comm),
        });
        out.push(Diagnosis {
            at: now,
            syndrome,
            suspect,
            critical: false,
        });
    }

    out
}

/// For a communication hang, the suspect is the rank whose transport went
/// quiet in **both** directions: its own sends stopped completing *and* the
/// sends targeting it stopped completing. A rank that merely sends into a
/// dead peer keeps receiving normally, which disambiguates the two ends of
/// a dead connection.
///
/// Shared by the batch path (which flattens snapshot connection lists) and
/// the streaming path (which iterates its connection store): `last_tx` /
/// `last_rx` are maxima, so any iteration order yields the same result.
pub(crate) fn stalled_rank_from_conns<'a>(
    comm: &CommRecord,
    conns: impl Iterator<Item = &'a c4_telemetry::ConnRecord>,
) -> Option<u32> {
    let nranks = comm.nranks();
    let mut last_tx: Vec<Option<SimTime>> = vec![None; nranks];
    let mut last_rx: Vec<Option<SimTime>> = vec![None; nranks];
    for conn in conns.filter(|c| c.key.comm == comm.comm) {
        let Some(done) = conn.last_completion else {
            continue;
        };
        if let Some(src) = comm.rank_of(conn.key.src_gpu) {
            let t = &mut last_tx[src];
            *t = Some(t.map_or(done, |prev| prev.max(done)));
        }
        if let Some(dst) = comm.rank_of(conn.key.dst_gpu) {
            let t = &mut last_rx[dst];
            *t = Some(t.map_or(done, |prev| prev.max(done)));
        }
    }
    // Quiet time per rank: the most recent activity in either direction;
    // the suspect is the rank that has been silent the longest overall.
    let mut best: Option<(u32, SimTime)> = None;
    for rank in 0..nranks {
        let quiet = match (last_tx[rank], last_rx[rank]) {
            (Some(a), Some(b)) => a.max(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            // A rank with no recorded completions in either direction has
            // been silent for the comm's whole observed lifetime — that is
            // the strongest hang signal, not a reason to skip it (a dead
            // node produces exactly this shape: its flows never finish, so
            // it never shows up in completion records at all).
            (None, None) => comm.created,
        };
        best = Some(match best {
            Some((r, bt)) if bt <= quiet => (r, bt),
            _ => (rank as u32, quiet),
        });
    }
    best.map(|(r, _)| r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4_simcore::SimDuration;
    use c4_telemetry::{AlgoKind, CollKind, CollRecord, ConnKey, DataType, WorkerTelemetry};
    use c4_topology::{ClosConfig, GpuId, PortId};

    fn topo() -> Topology {
        Topology::build(&ClosConfig::testbed_128())
    }

    fn comm_of(t: &Topology, n: usize) -> CommRecord {
        CommRecord {
            comm: 1,
            devices: (0..n).map(|i| t.gpus()[i].id).collect(),
            created: SimTime::ZERO,
        }
    }

    fn hang_snapshots(comm: &CommRecord, quiet_rank: u32) -> Vec<TelemetrySnapshot> {
        comm.devices
            .iter()
            .enumerate()
            .map(|(rank, &gpu)| {
                let mut w = WorkerTelemetry::new(gpu);
                w.record_coll(CollRecord {
                    comm: comm.comm,
                    seq: 9,
                    rank: rank as u32,
                    kind: CollKind::AllReduce,
                    algo: AlgoKind::Ring,
                    dtype: DataType::F16,
                    count: 1,
                    start: SimTime::from_secs(10),
                    end: None,
                });
                // Every rank's transport kept completing except around the
                // victim: its own sends AND its predecessor's sends into it
                // went quiet early (a dead NIC stalls both directions).
                let next = (rank + 1) % comm.devices.len();
                let last = if rank as u32 == quiet_rank || next as u32 == quiet_rank {
                    11
                } else {
                    30
                };
                w.record_message(
                    ConnKey {
                        comm: comm.comm,
                        channel: 0,
                        qp: 0,
                        src_gpu: gpu,
                        dst_gpu: comm.devices[(rank + 1) % comm.devices.len()],
                    },
                    PortId::from_index(0),
                    1000,
                    SimDuration::from_millis(1),
                    SimTime::from_secs(last),
                );
                w.snapshot(SimTime::from_secs(60))
            })
            .collect()
    }

    #[test]
    fn comm_hang_localizes_quiet_rank() {
        let t = topo();
        let comm = comm_of(&t, 16);
        let snaps = hang_snapshots(&comm, 11);
        let mut master = C4dMaster::new();
        let diags = master.scan(SimTime::from_secs(60), &t, &comm, &snaps);
        let hang = diags
            .iter()
            .find(|d| matches!(d.syndrome, Syndrome::CommHang { .. }))
            .expect("hang diagnosis");
        assert!(hang.critical);
        // Rank 11 = gpu 11 = node 1 on the testbed.
        assert_eq!(hang.suspect, Some(t.gpu(GpuId::from_index(11)).node));
        assert!(
            master
                .log()
                .events()
                .iter()
                .filter(|e| e.kind == EventKind::CommHang)
                .count()
                == 1
        );
    }

    #[test]
    fn healthy_snapshots_produce_no_diagnoses() {
        let t = topo();
        let comm = comm_of(&t, 8);
        let snaps: Vec<TelemetrySnapshot> = comm
            .devices
            .iter()
            .enumerate()
            .map(|(rank, &gpu)| {
                let mut w = WorkerTelemetry::new(gpu);
                w.record_coll(CollRecord {
                    comm: comm.comm,
                    seq: 3,
                    rank: rank as u32,
                    kind: CollKind::AllReduce,
                    algo: AlgoKind::Ring,
                    dtype: DataType::F16,
                    count: 1,
                    start: SimTime::from_secs(10),
                    end: Some(SimTime::from_secs(11)),
                });
                w.snapshot(SimTime::from_secs(60))
            })
            .collect();
        let mut master = C4dMaster::new();
        let diags = master.scan(SimTime::from_secs(60), &t, &comm, &snaps);
        assert!(diags.is_empty());
        assert!(master.log().is_empty());
    }

    #[test]
    fn comm_slow_via_conn_records() {
        let t = topo();
        let comm = comm_of(&t, 8);
        // Full-mesh conn records, rank 3's sends all slow.
        let snaps: Vec<TelemetrySnapshot> = comm
            .devices
            .iter()
            .enumerate()
            .map(|(rank, &gpu)| {
                let mut w = WorkerTelemetry::new(gpu);
                for (peer_rank, &peer) in comm.devices.iter().enumerate() {
                    if peer_rank == rank {
                        continue;
                    }
                    let ms = if rank == 3 { 50 } else { 10 };
                    w.record_message(
                        ConnKey {
                            comm: comm.comm,
                            channel: 0,
                            qp: 0,
                            src_gpu: gpu,
                            dst_gpu: peer,
                        },
                        PortId::from_index(0),
                        1_000_000,
                        SimDuration::from_millis(ms),
                        SimTime::from_secs(30),
                    );
                }
                w.snapshot(SimTime::from_secs(60))
            })
            .collect();
        let mut master = C4dMaster::new();
        let diags = master.scan(SimTime::from_secs(60), &t, &comm, &snaps);
        let slow = diags
            .iter()
            .find(|d| matches!(d.syndrome, Syndrome::CommSlow { .. }))
            .expect("comm slow diagnosis");
        match &slow.syndrome {
            Syndrome::CommSlow { findings, .. } => {
                assert!(matches!(findings[0], MatrixFinding::TxSlow { rank: 3, .. }));
            }
            _ => unreachable!(),
        }
        assert_eq!(slow.suspect, Some(t.gpu(comm.devices[3]).node));
        assert!(!slow.critical);
    }
}
