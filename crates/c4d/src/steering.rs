//! The job-steering service: isolate the faulty node, swap in a backup,
//! restart the job (paper Fig 4).
//!
//! The paper provisions 64 backup GPUs on 8 servers per 1,024 GPUs on 128
//! servers (§III-A), so any of the 128 active servers can be replaced while
//! keeping the parallel layout identical.

use c4_simcore::{SimDuration, SimTime};
use c4_telemetry::{C4Event, EventKind, EventLog, Severity};
use c4_topology::{NodeId, Topology};

/// Time from diagnosis to a restart-ready job: "additional minutes are
/// still required by the steering service" (§IV-B1), ~1 min to cordon the
/// node and update scheduling state plus ~2 min to tear down and relaunch
/// the job processes.
pub const STEERING_TURNAROUND: SimDuration = SimDuration::from_secs(60 + 120);

/// What a successful isolate-and-replace produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplacementPlan {
    /// The isolated node.
    pub victim: NodeId,
    /// The backup node now taking its place.
    pub replacement: NodeId,
    /// When the restarted job can begin re-initialization.
    pub ready_at: SimTime,
}

/// Steering failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SteeringError {
    /// No backup node remains in the pool.
    BackupPoolExhausted,
    /// The node was already isolated.
    AlreadyIsolated(NodeId),
}

impl std::fmt::Display for SteeringError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SteeringError::BackupPoolExhausted => write!(f, "backup node pool exhausted"),
            SteeringError::AlreadyIsolated(n) => write!(f, "node {n} is already isolated"),
        }
    }
}

impl std::error::Error for SteeringError {}

/// The steering service: owns the backup pool and the isolation ledger.
#[derive(Debug, Clone)]
pub struct JobSteering {
    backups: Vec<NodeId>,
    isolated: Vec<NodeId>,
    log: EventLog,
}

impl JobSteering {
    /// Creates a steering service with the given backup pool.
    pub fn new(backups: Vec<NodeId>) -> Self {
        JobSteering {
            backups,
            isolated: Vec::new(),
            log: EventLog::new(),
        }
    }

    /// The backup pool; the last node serves the next isolation.
    pub fn backups(&self) -> &[NodeId] {
        &self.backups
    }

    /// Nodes currently isolated.
    pub fn isolated(&self) -> &[NodeId] {
        &self.isolated
    }

    /// The steering event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Isolates `victim`, takes a backup from the pool, and returns the
    /// replacement plan. Marks node health on the topology.
    ///
    /// # Errors
    ///
    /// [`SteeringError::AlreadyIsolated`] if the victim was already pulled;
    /// [`SteeringError::BackupPoolExhausted`] if no backup remains (the
    /// victim is still isolated in that case — the job cannot restart at
    /// full size until repairs return nodes to the pool).
    pub fn isolate_and_replace(
        &mut self,
        topo: &mut Topology,
        victim: NodeId,
        now: SimTime,
    ) -> Result<ReplacementPlan, SteeringError> {
        if self.isolated.contains(&victim) {
            return Err(SteeringError::AlreadyIsolated(victim));
        }
        topo.set_node_healthy(victim, false);
        self.isolated.push(victim);
        self.log.push(C4Event {
            time: now,
            severity: Severity::Critical,
            kind: EventKind::NodeIsolated,
            node: Some(victim),
            gpu: None,
            link: None,
            detail: String::new(),
        });
        let replacement = self
            .backups
            .pop()
            .ok_or(SteeringError::BackupPoolExhausted)?;
        let ready_at = now + STEERING_TURNAROUND;
        self.log.push(C4Event {
            time: ready_at,
            severity: Severity::Info,
            kind: EventKind::JobRestart,
            node: Some(replacement),
            gpu: None,
            link: None,
            detail: format!("replacing {victim}"),
        });
        Ok(ReplacementPlan {
            victim,
            replacement,
            ready_at,
        })
    }

    /// Takes `node` out of the backup pool (it crashed there, idle);
    /// `false` when it was not in the pool. [`return_repaired`] puts it
    /// back.
    ///
    /// [`return_repaired`]: Self::return_repaired
    pub fn withdraw(&mut self, node: NodeId) -> bool {
        let pos = self.backups.iter().position(|&n| n == node);
        pos.map(|i| self.backups.remove(i)).is_some()
    }

    /// Returns a repaired node to the backup pool and clears its isolation.
    pub fn return_repaired(&mut self, topo: &mut Topology, node: NodeId) {
        self.isolated.retain(|&n| n != node);
        topo.set_node_healthy(node, true);
        self.backups.push(node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4_topology::ClosConfig;

    fn topo() -> Topology {
        Topology::build(&ClosConfig::testbed_128())
    }

    fn steering(n_backups: usize) -> JobSteering {
        let backups = (0..n_backups).map(|i| NodeId::from_index(15 - i)).collect();
        JobSteering::new(backups)
    }

    #[test]
    fn isolate_swaps_in_backup() {
        let mut t = topo();
        let mut s = steering(2);
        let victim = NodeId::from_index(3);
        let plan = s
            .isolate_and_replace(&mut t, victim, SimTime::from_secs(100))
            .unwrap();
        assert_eq!(plan.victim, victim);
        assert_eq!(plan.replacement, NodeId::from_index(14));
        assert_eq!(plan.ready_at, SimTime::from_secs(100 + 180));
        assert!(!t.is_node_healthy(victim));
        assert_eq!(s.backups(), &[NodeId::from_index(15)]);
        assert_eq!(s.isolated(), &[victim]);
        assert_eq!(
            s.log()
                .events()
                .iter()
                .filter(|e| e.kind == EventKind::NodeIsolated)
                .count(),
            1
        );
        assert_eq!(
            s.log()
                .events()
                .iter()
                .filter(|e| e.kind == EventKind::JobRestart)
                .count(),
            1
        );
    }

    #[test]
    fn double_isolation_rejected() {
        let mut t = topo();
        let mut s = steering(2);
        let victim = NodeId::from_index(3);
        s.isolate_and_replace(&mut t, victim, SimTime::ZERO)
            .unwrap();
        assert_eq!(
            s.isolate_and_replace(&mut t, victim, SimTime::ZERO),
            Err(SteeringError::AlreadyIsolated(victim))
        );
    }

    #[test]
    fn exhausted_pool_still_isolates() {
        let mut t = topo();
        let mut s = steering(0);
        let victim = NodeId::from_index(5);
        assert_eq!(
            s.isolate_and_replace(&mut t, victim, SimTime::ZERO),
            Err(SteeringError::BackupPoolExhausted)
        );
        assert!(!t.is_node_healthy(victim), "victim stays cordoned");
    }

    #[test]
    fn repaired_nodes_rejoin_pool() {
        let mut t = topo();
        let mut s = steering(1);
        let victim = NodeId::from_index(7);
        s.isolate_and_replace(&mut t, victim, SimTime::ZERO)
            .unwrap();
        assert!(s.backups().is_empty());
        s.return_repaired(&mut t, victim);
        assert_eq!(s.backups(), &[victim]);
        assert!(t.is_node_healthy(victim));
        assert!(s.isolated().is_empty());
    }

    #[test]
    fn turnaround_is_sum_of_delays() {
        // ~1 min to isolate plus ~2 min to restart (§IV-B1).
        assert_eq!(
            STEERING_TURNAROUND,
            SimDuration::from_mins(1) + SimDuration::from_mins(2)
        );
    }
}
