//! Flow descriptions and outcomes.
//!
//! A [`FlowSpec`] is one RDMA QP's worth of traffic: a byte demand plus the
//! directed links it traverses. The collective layer produces specs; the
//! [`mod@crate::drain`] loop turns them into [`FlowOutcome`]s.

use std::sync::Arc;

use c4_simcore::{Bandwidth, ByteSize, SimTime};
use c4_topology::{GpuId, LinkId};

/// Identity of a flow for hashing and telemetry: which communicator,
/// channel and QP it belongs to and which GPUs it connects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FlowKey {
    /// Source GPU (the rank whose NIC sends).
    pub src_gpu: GpuId,
    /// Destination GPU.
    pub dst_gpu: GpuId,
    /// Communicator identifier (unique per collective group).
    pub comm: u64,
    /// Channel index within the communicator.
    pub channel: u16,
    /// QP index within the channel (paper: multiple QPs per connection).
    pub qp: u16,
    /// Incremented on reconnect so ECMP re-hashes after failures.
    pub incarnation: u32,
}

impl FlowKey {
    /// Deterministic 64-bit digest of the key with a salt (the salt models
    /// the switch's hash seed).
    pub fn digest(&self, salt: u64) -> u64 {
        use crate::hash::mix2;
        let a = (self.src_gpu.index() as u64) << 32 | self.dst_gpu.index() as u64;
        let b = (self.channel as u64) << 48 | (self.qp as u64) << 32 | self.incarnation as u64;
        mix2(mix2(a, self.comm), mix2(b, salt))
    }
}

/// One flow to be drained: demand, route and identity.
///
/// The route is shared, not owned: a collective's cached plan builds each
/// route once, and every iteration's spec of that flow points at it, so
/// cloning a spec copies no links. Equal routes compare by pointer first.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Flow identity (drives ECMP hashing and telemetry attribution).
    pub key: FlowKey,
    /// Bytes to move.
    pub bytes: ByteSize,
    /// Directed links traversed, in order.
    pub route: Arc<[LinkId]>,
}

impl FlowSpec {
    /// Creates a spec; `route` is a `Vec` or an already shared route.
    pub fn new(key: FlowKey, bytes: ByteSize, route: impl Into<Arc<[LinkId]>>) -> Self {
        FlowSpec {
            key,
            bytes,
            route: route.into(),
        }
    }
}

/// Result of draining one flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowOutcome {
    /// The flow's identity, echoed from the spec.
    pub key: FlowKey,
    /// Bytes requested.
    pub bytes: ByteSize,
    /// When the flow started.
    pub start: SimTime,
    /// When the last byte drained; `None` if the flow stalled (e.g. its
    /// route contains a down link) until the drain deadline.
    pub finish: Option<SimTime>,
    /// Mean achieved rate over the flow's active lifetime.
    pub mean_rate: Bandwidth,
    /// Lowest instantaneous rate observed while active.
    pub min_rate: Bandwidth,
    /// Highest instantaneous rate observed while active.
    pub max_rate: Bandwidth,
}

impl FlowOutcome {
    /// True when the flow drained completely.
    pub fn completed(&self) -> bool {
        self.finish.is_some()
    }

    /// Completion duration, if completed.
    pub fn duration(&self) -> Option<c4_simcore::SimDuration> {
        self.finish.map(|f| f - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_and_key_sensitive() {
        let k = FlowKey {
            src_gpu: GpuId::from_index(1),
            dst_gpu: GpuId::from_index(2),
            comm: 99,
            channel: 3,
            qp: 0,
            incarnation: 0,
        };
        assert_eq!(k.digest(42), k.digest(42));
        assert_ne!(k.digest(42), k.digest(43));
        let mut k2 = k;
        k2.qp = 1;
        assert_ne!(k.digest(42), k2.digest(42));
        let mut k3 = k;
        k3.incarnation = 1;
        assert_ne!(k.digest(42), k3.digest(42));
    }

    #[test]
    fn outcome_helpers() {
        let key = FlowKey::default();
        let done = FlowOutcome {
            key,
            bytes: ByteSize::from_mib(1),
            start: SimTime::from_secs(1),
            finish: Some(SimTime::from_secs(3)),
            mean_rate: Bandwidth::from_gbps(1.0),
            min_rate: Bandwidth::from_gbps(1.0),
            max_rate: Bandwidth::from_gbps(1.0),
        };
        assert!(done.completed());
        assert_eq!(done.duration().unwrap().as_secs_f64(), 2.0);
        let stalled = FlowOutcome {
            finish: None,
            ..done.clone()
        };
        assert!(!stalled.completed());
        assert!(stalled.duration().is_none());
    }
}
