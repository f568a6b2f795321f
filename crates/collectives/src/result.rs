//! Result of one collective operation.

use std::sync::Arc;

use c4_netsim::{DrainReport, FlowOutcome};
use c4_simcore::{ByteSize, SimDuration, SimTime};
use c4_telemetry::CollKind;

/// Everything one collective run produced: timing, bus bandwidth, per-QP
/// outcomes and the shared drain report of the call that ran it (link
/// bytes, CNP rates).
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveResult {
    /// Communicator id.
    pub comm: u64,
    /// Sequence number within the communicator.
    pub seq: u64,
    /// Operation type.
    pub kind: CollKind,
    /// Message size `S` (per-rank payload).
    pub message_bytes: ByteSize,
    /// Per-edge stream size `B = S × bus_factor`.
    pub edge_bytes: ByteSize,
    /// When the collective entered the network (all ranks ready).
    pub started: SimTime,
    /// When the slowest flow drained; `None` when the collective hung
    /// (a flow stalled on a dead link until the drain deadline).
    pub finished: Option<SimTime>,
    /// Outcomes of the intra-node NVLink flows.
    pub intra_outcomes: Vec<FlowOutcome>,
    /// Outcomes of the boundary QP flows (network side).
    pub qp_outcomes: Vec<FlowOutcome>,
    /// The call's one drain report, shared by every result of the call:
    /// its outcomes cover every request's flows in request order (this
    /// request's are `intra_outcomes` then `qp_outcomes`), its `end` is
    /// the drain's end, and its per-link bytes, CNP accounting, congested
    /// count and solver counters are the whole drain's.
    pub report: Arc<DrainReport>,
}

impl CollectiveResult {
    /// True when the collective never completed (hang syndrome).
    pub fn hung(&self) -> bool {
        self.finished.is_none()
    }

    /// Wall-clock duration, if completed.
    pub fn duration(&self) -> Option<SimDuration> {
        self.finished.map(|f| f - self.started)
    }

    /// Bus bandwidth in Gbps (`nccl-tests` metric): `B / T`.
    ///
    /// Returns `None` for hung collectives and zero-byte operations.
    pub fn busbw_gbps(&self) -> Option<f64> {
        let d = self.duration()?.as_secs_f64();
        if d <= 0.0 || self.edge_bytes == ByteSize::ZERO {
            return None;
        }
        Some(self.edge_bytes.as_bytes() as f64 * 8.0 / d / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4_netsim::FlowKey;
    use c4_simcore::Bandwidth;

    fn outcome(rate_gbps: f64) -> FlowOutcome {
        FlowOutcome {
            key: FlowKey::default(),
            bytes: ByteSize::from_mib(1),
            start: SimTime::ZERO,
            finish: Some(SimTime::from_secs(1)),
            mean_rate: Bandwidth::from_gbps(rate_gbps),
            min_rate: Bandwidth::from_gbps(rate_gbps),
            max_rate: Bandwidth::from_gbps(rate_gbps),
        }
    }

    fn result(finished: Option<SimTime>) -> CollectiveResult {
        CollectiveResult {
            comm: 1,
            seq: 0,
            kind: CollKind::AllReduce,
            message_bytes: ByteSize::from_bytes(1_000_000_000),
            edge_bytes: ByteSize::from_bytes(1_875_000_000),
            started: SimTime::ZERO,
            finished,
            intra_outcomes: vec![],
            qp_outcomes: vec![outcome(100.0), outcome(200.0)],
            report: Arc::new(DrainReport {
                outcomes: vec![],
                end: finished.unwrap_or(SimTime::ZERO),
                link_bytes: vec![].into(),
                cnp_per_port: vec![].into(),
                congested_flows: 0,
                solver: Default::default(),
            }),
        }
    }

    #[test]
    fn busbw_is_edge_bytes_over_duration() {
        let r = result(Some(SimTime::from_secs(1)));
        // 1.875e9 bytes in 1 s = 15 Gbps.
        assert!((r.busbw_gbps().unwrap() - 15.0).abs() < 1e-9);
        assert_eq!(r.duration(), Some(SimDuration::from_secs(1)));
        assert!(!r.hung());
    }

    #[test]
    fn hung_collective_has_no_bandwidth() {
        let r = result(None);
        assert!(r.hung());
        assert_eq!(r.busbw_gbps(), None);
        assert_eq!(r.duration(), None);
    }
}
