//! Communicators: groups of GPUs that perform collectives together.

use std::fmt;

use c4_topology::{GpuId, NodeId, Topology};

use crate::alltoall::EpSkew;

/// Tunables of the communication library.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CommConfig {
    /// Byte skew of all-to-all exchanges (EP hot-expert routing); ignored
    /// by every other collective kind. Skew scales bytes, not routes, so
    /// it can change per iteration without invalidating cached plans.
    pub ep_skew: EpSkew,
}

/// A communicator: an ordered set of member GPUs (rank order) plus the
/// distinct nodes they live on.
///
/// # Example
///
/// ```
/// use c4_collectives::Communicator;
/// use c4_topology::{ClosConfig, Topology};
///
/// let topo = Topology::build(&ClosConfig::testbed_128());
/// let gpus: Vec<_> = (0..16).map(|i| topo.gpus()[i].id).collect();
/// let comm = Communicator::new(1, gpus, &topo).unwrap();
/// assert_eq!(comm.nranks(), 16);
/// assert_eq!(comm.nodes().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Communicator {
    id: u64,
    devices: Vec<GpuId>,
    nodes: Vec<NodeId>,
    incarnation: u32,
}

/// Error constructing a communicator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommunicatorError {
    /// The device list was empty.
    Empty,
    /// The same GPU appears twice.
    DuplicateDevice(GpuId),
}

impl fmt::Display for CommunicatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommunicatorError::Empty => write!(f, "communicator needs at least one device"),
            CommunicatorError::DuplicateDevice(g) => {
                write!(f, "device {g} appears more than once")
            }
        }
    }
}

impl std::error::Error for CommunicatorError {}

impl Communicator {
    /// Creates a communicator over `devices` (rank order).
    ///
    /// # Errors
    ///
    /// Returns [`CommunicatorError`] when the list is empty or contains
    /// duplicates.
    pub fn new(id: u64, devices: Vec<GpuId>, topo: &Topology) -> Result<Self, CommunicatorError> {
        if devices.is_empty() {
            return Err(CommunicatorError::Empty);
        }
        let mut seen = std::collections::HashSet::new();
        for &d in &devices {
            if !seen.insert(d) {
                return Err(CommunicatorError::DuplicateDevice(d));
            }
        }
        let mut nodes = Vec::new();
        for &d in &devices {
            let n = topo.gpu(d).node;
            if !nodes.contains(&n) {
                nodes.push(n);
            }
        }
        Ok(Communicator {
            id,
            devices,
            nodes,
            incarnation: 0,
        })
    }

    /// The communicator id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Member devices in rank order.
    pub fn devices(&self) -> &[GpuId] {
        &self.devices
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.devices.len()
    }

    /// Distinct nodes, in first-appearance order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Rank of a device, if a member.
    pub fn rank_of(&self, gpu: GpuId) -> Option<u32> {
        self.devices
            .iter()
            .position(|&d| d == gpu)
            .map(|i| i as u32)
    }

    /// The device at a rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn device(&self, rank: u32) -> GpuId {
        self.devices[rank as usize]
    }

    /// Restart epoch; bumped when the job restarts so ECMP re-hashes
    /// (connections are re-established from scratch).
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }

    /// Bumps the restart epoch.
    pub fn bump_incarnation(&mut self) {
        self.incarnation += 1;
    }

    /// Sets the restart epoch and returns `self` (builder style).
    ///
    /// Used when a communicator is rebuilt over a *new* device set after
    /// steering swapped hardware: the rebuilt communicator keeps the same
    /// id but must carry `old incarnation + 1` so cached plans keyed on
    /// the previous incarnation can never be reused.
    #[must_use]
    pub fn with_incarnation(mut self, incarnation: u32) -> Self {
        self.incarnation = incarnation;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4_topology::ClosConfig;

    fn topo() -> Topology {
        Topology::build(&ClosConfig::testbed_128())
    }

    #[test]
    fn rejects_empty_and_duplicates() {
        let t = topo();
        assert_eq!(
            Communicator::new(1, vec![], &t).unwrap_err(),
            CommunicatorError::Empty
        );
        let g = t.gpus()[0].id;
        assert_eq!(
            Communicator::new(1, vec![g, g], &t).unwrap_err(),
            CommunicatorError::DuplicateDevice(g)
        );
    }

    #[test]
    fn nodes_listed_in_rank_order() {
        let t = topo();
        // One GPU from node 3, then node 0.
        let a = t.gpu_at(c4_topology::NodeId::from_index(3), 0);
        let b = t.gpu_at(c4_topology::NodeId::from_index(0), 0);
        let comm = Communicator::new(9, vec![a, b], &t).unwrap();
        assert_eq!(comm.nodes().len(), 2);
        assert_eq!(comm.nodes()[0].index(), 3);
        assert_eq!(comm.rank_of(b), Some(1));
        assert_eq!(comm.device(0), a);
    }

    #[test]
    fn single_node_detection() {
        let t = topo();
        let devices: Vec<_> = t.node(c4_topology::NodeId::from_index(0)).gpus.clone();
        let comm = Communicator::new(2, devices, &t).unwrap();
        assert_eq!(comm.nodes(), &[c4_topology::NodeId::from_index(0)]);
    }

    #[test]
    fn incarnation_bumps() {
        let t = topo();
        let mut comm = Communicator::new(3, vec![t.gpus()[0].id], &t).unwrap();
        assert_eq!(comm.incarnation(), 0);
        comm.bump_incarnation();
        assert_eq!(comm.incarnation(), 1);
    }
}
