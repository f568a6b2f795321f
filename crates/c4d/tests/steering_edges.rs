//! Edge cases of the steering service's pool lifecycle: mid-run
//! re-admission of a repaired node, pool exhaustion surfacing as an error
//! (never a panic), and timing consistency over repeated
//! isolate → repair → isolate cycles.

use c4_diagnosis::{JobSteering, SteeringError, STEERING_TURNAROUND};
use c4_simcore::{SimDuration, SimTime};
use c4_telemetry::EventKind;
use c4_topology::{ClosConfig, NodeId, Topology};

fn topo() -> Topology {
    Topology::build(&ClosConfig::testbed_128())
}

fn steering(n_backups: usize) -> JobSteering {
    let backups = (0..n_backups).map(|i| NodeId::from_index(15 - i)).collect();
    JobSteering::new(backups)
}

#[test]
fn repaired_node_is_readmitted_and_serves_the_next_isolation() {
    let mut t = topo();
    let mut s = steering(1);
    let first = NodeId::from_index(2);
    let second = NodeId::from_index(5);

    let plan = s.isolate_and_replace(&mut t, first, SimTime::ZERO).unwrap();
    assert!(s.backups().is_empty(), "the only backup is in service");

    // Mid-run repair: the original victim comes back as pool capacity
    // while its replacement keeps running the job.
    s.return_repaired(&mut t, first);
    assert!(t.is_node_healthy(first));
    assert_eq!(s.backups(), &[first]);
    assert!(s.isolated().is_empty());

    // The next fault (on a different node) is served by the re-admitted
    // node — LIFO pool, so the repaired node is exactly what comes out.
    let plan2 = s
        .isolate_and_replace(&mut t, second, SimTime::from_secs(500))
        .unwrap();
    assert_eq!(plan2.replacement, first, "repaired node re-enters service");
    assert_ne!(plan2.replacement, plan.replacement);
    assert_eq!(s.isolated(), &[second]);
    assert!(!t.is_node_healthy(second) && t.is_node_healthy(first));
}

#[test]
fn exhaustion_is_an_error_that_repair_later_clears() {
    let mut t = topo();
    let mut s = steering(1);
    let v1 = NodeId::from_index(1);
    let v2 = NodeId::from_index(2);
    let v3 = NodeId::from_index(3);

    s.isolate_and_replace(&mut t, v1, SimTime::ZERO).unwrap();
    // Second fault with a dry pool: an error, not a panic — and the victim
    // is still cordoned (the fleet handles this by shrinking DP).
    assert_eq!(
        s.isolate_and_replace(&mut t, v2, SimTime::ZERO),
        Err(SteeringError::BackupPoolExhausted)
    );
    assert!(
        !t.is_node_healthy(v2),
        "exhaustion still cordons the victim"
    );
    assert_eq!(s.isolated(), &[v1, v2]);

    // A repair refills the pool and the next isolation succeeds again.
    s.return_repaired(&mut t, v1);
    let plan = s.isolate_and_replace(&mut t, v3, SimTime::ZERO).unwrap();
    assert_eq!(plan.replacement, v1);
}

#[test]
fn repeated_isolate_repair_cycles_keep_turnaround_consistent() {
    let mut t = topo();
    let mut s = steering(2);
    let expected = STEERING_TURNAROUND;
    assert_eq!(expected, SimDuration::from_secs(180));

    let mut now = SimTime::ZERO;
    for cycle in 0..10usize {
        // Two victims alternate; each is repaired before its next turn, so
        // the pool never double-counts a node and the ledger fully drains
        // every cycle.
        let victim = NodeId::from_index(cycle % 2);
        let plan = s.isolate_and_replace(&mut t, victim, now).unwrap();
        assert_eq!(
            plan.ready_at.saturating_since(now),
            expected,
            "cycle {cycle}: ready_at must always be now + turnaround"
        );
        s.return_repaired(&mut t, victim);
        assert!(s.isolated().is_empty(), "cycle {cycle}: ledger cleared");
        assert!(
            t.is_node_healthy(victim),
            "cycle {cycle}: victim healthy again"
        );
        assert!(!s.backups().is_empty(), "cycle {cycle}: pool never drains");
        now += SimDuration::from_secs(1_000);
    }

    // Ten isolations and ten restarts are all on the log, in order.
    assert_eq!(
        s.log()
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::NodeIsolated)
            .count(),
        10
    );
    assert_eq!(
        s.log()
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::JobRestart)
            .count(),
        10
    );
}
