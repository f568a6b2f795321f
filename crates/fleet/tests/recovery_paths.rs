//! Targeted recovery-path tests: each fault class is aimed at a live job
//! and must flow detect → isolate → replace/shrink → restart through the
//! live network stack.

use c4_faults::{FaultEvent, FaultKind};
use c4_fleet::{FleetConfig, FleetController, RecoveryPolicy};
use c4_simcore::{SimDuration, SimTime};
use c4_topology::{LinkId, NodeId, Topology};

/// A quiet config: no random faults, a couple of small jobs, short horizon.
fn quiet(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::smoke(seed);
    cfg.rate_multiplier = 0.0;
    cfg.horizon = SimDuration::from_hours(6);
    cfg.initial_jobs.truncate(2);
    cfg.arrivals.clear();
    cfg
}

fn crash_at(id: u64, secs: u64, node: NodeId) -> FaultEvent {
    FaultEvent {
        id,
        time: SimTime::ZERO + SimDuration::from_secs(secs),
        kind: FaultKind::CudaError,
        node: Some(node),
        gpu: None,
        link: None,
        local: true,
    }
}

#[test]
fn node_crash_is_detected_isolated_and_replaced() {
    let mut ctl = FleetController::new(quiet(11));
    let victim = ctl.job_nodes(0).expect("job 0 admitted")[1];
    ctl.inject_event(crash_at(900_000, 300, victim));
    let report = ctl.run();

    assert_eq!(report.faults.crashes, 1);
    assert!(
        report.detections >= 1,
        "hang must produce a critical diagnosis"
    );
    assert_eq!(report.isolations, 1, "the crashed node is isolated once");
    assert!(report.replacements >= 1, "a backup swaps in");
    assert_eq!(
        report.stale_plan_routes, 0,
        "no cached plan may route through the dead node"
    );
    let job0 = &report.jobs[0];
    assert!(
        job0.completed && !job0.failed,
        "job survives the crash: {job0:?}"
    );
    assert_eq!(job0.accounting.recoveries, 1);
    assert!(job0.accounting.downtime > SimDuration::ZERO);
}

#[test]
fn backup_exhaustion_shrinks_dp_instead_of_crashing() {
    let mut cfg = quiet(12);
    cfg.backup_nodes = 1;
    cfg.node_repair = SimDuration::ZERO; // pool never refills
    cfg.initial_jobs.truncate(1);
    cfg.initial_jobs[0].policy = RecoveryPolicy::CheckpointRestart;
    assert_eq!(
        cfg.initial_jobs[0].spec.dp, 3,
        "3-node job so a shrink leaves 2"
    );
    let mut ctl = FleetController::new(cfg);
    let nodes = ctl.job_nodes(0).expect("job 0 admitted");
    ctl.inject_event(crash_at(900_000, 300, nodes[0]));
    ctl.inject_event(crash_at(900_001, 2500, nodes[1]));
    let report = ctl.run();

    assert_eq!(report.isolations, 2);
    assert_eq!(report.replacements, 1, "only one backup existed");
    assert_eq!(report.dp_shrinks(), 1, "second recovery shrinks DP");
    assert_eq!(report.stale_plan_routes, 0);
    let job0 = &report.jobs[0];
    assert!(!job0.failed, "shrunk, not dead: {job0:?}");
    assert!(job0.final_dp < 3, "DP width dropped, got {}", job0.final_dp);
}

#[test]
fn a_backup_that_crashed_idle_is_not_swapped_in() {
    let mut cfg = quiet(12);
    cfg.backup_nodes = 1;
    cfg.initial_jobs.truncate(1);
    cfg.initial_jobs[0].policy = RecoveryPolicy::CheckpointRestart;
    let backup = NodeId::from_index(Topology::build(&cfg.clos).num_nodes() - 1);
    let mut ctl = FleetController::new(cfg);
    let nodes = ctl.job_nodes(0).expect("job 0 admitted");
    assert!(!nodes.contains(&backup), "the last node is the backup");
    ctl.inject_event(crash_at(900_000, 60, backup));
    ctl.inject_event(crash_at(900_001, 600, nodes[0]));
    let report = ctl.run();

    assert_eq!(report.faults.crashes, 2);
    assert_eq!(report.isolations, 1, "only the job node is isolated");
    assert_eq!(report.replacements, 0, "the dead backup is not swapped in");
    assert_eq!(report.dp_shrinks(), 1, "no healthy backup: DP shrinks");
    assert_eq!(report.stale_plan_routes, 0);
    let job0 = &report.jobs[0];
    assert!(job0.completed && !job0.failed, "{job0:?}");
    assert_eq!(job0.final_dp, 2);
}

#[test]
fn half_down_nic_is_isolated_on_first_localization() {
    let mut cfg = quiet(13);
    cfg.initial_jobs.truncate(1);
    let mut ctl = FleetController::new(cfg);
    let victim = ctl.job_nodes(0).expect("job 0 admitted")[0];
    ctl.inject_event(FaultEvent {
        id: 900_002,
        time: SimTime::ZERO + SimDuration::from_secs(300),
        kind: FaultKind::NicHalfDown,
        node: Some(victim),
        gpu: None,
        link: None,
        local: true,
    });
    let report = ctl.run();

    assert_eq!(report.faults.degradations, 1);
    assert_eq!(
        report.isolations, 1,
        "C4D localizes the hang the dead port causes: {report:?}"
    );
    assert_eq!(report.retries(), 0, "a localized hang is not waited out");
    assert_eq!(report.escalations, 0);
    assert_eq!(report.stale_plan_routes, 0);
    let job0 = &report.jobs[0];
    assert!(job0.completed, "job finishes after the swap: {job0:?}");
    assert_eq!(job0.accounting.recoveries, 1);
}

fn link_failure_at(id: u64, secs: u64, link: LinkId) -> FaultEvent {
    FaultEvent {
        id,
        time: SimTime::ZERO + SimDuration::from_secs(secs),
        kind: FaultKind::LinkFailure,
        node: None,
        gpu: None,
        link: Some(link),
        local: true,
    }
}

#[test]
fn fabric_link_flap_reroutes_without_isolation() {
    let mut cfg = quiet(15);
    cfg.initial_jobs.truncate(2);
    let link = Topology::build(&cfg.clos).fabric_links()[0];
    let mut ctl = FleetController::new(cfg);
    ctl.inject_event(link_failure_at(900_020, 300, link));
    let report = ctl.run();

    assert_eq!(report.faults.link_failures, 1);
    assert_eq!(
        report.isolations, 0,
        "ECMP routes around a down fabric link"
    );
    assert_eq!(
        report.stale_plan_routes, 0,
        "caches rebased when the link dropped"
    );
    assert!(report.jobs.iter().all(|j| j.completed));
}

#[test]
fn a_fabric_link_that_keeps_flapping_stays_down() {
    let cfg = quiet(16);
    let link = Topology::build(&cfg.clos).fabric_links()[0];
    let mut ctl = FleetController::new(cfg);
    for (i, secs) in [300, 900, 1500].into_iter().enumerate() {
        ctl.inject_event(link_failure_at(900_030 + i as u64, secs, link));
    }
    let report = ctl.run();

    assert_eq!(
        report.faults.link_failures, 3,
        "each flap lands: {report:?}"
    );
    assert_eq!(
        report.escalations, 1,
        "the third flap within the window keeps the link down"
    );
    assert_eq!(report.isolations, 0, "ECMP routes around the link");
    assert_eq!(report.stale_plan_routes, 0);
    assert!(report.jobs.iter().all(|j| j.completed));
}

#[test]
fn soak_is_deterministic_per_seed() {
    let mut cfg = FleetConfig::smoke(21);
    cfg.horizon = SimDuration::from_hours(3);
    let a = FleetController::new(cfg.clone()).run();
    let b = FleetController::new(cfg).run();
    assert_eq!(a, b, "same seed, same report");

    let mut other = FleetConfig::smoke(22);
    other.horizon = SimDuration::from_hours(3);
    let c = FleetController::new(other).run();
    assert_ne!(
        a.faults, c.faults,
        "different seed draws a different schedule"
    );
}

#[test]
fn a_node_repair_rebuilds_no_plan() {
    let run = |jobs: usize, crash: bool| {
        let mut cfg = quiet(17);
        cfg.initial_jobs.truncate(jobs);
        // Short enough that the repair lands while both jobs run again.
        cfg.node_repair = SimDuration::from_secs(1800);
        let mut ctl = FleetController::new(cfg);
        if crash {
            let victim = ctl.job_nodes(0).expect("job 0 admitted")[1];
            ctl.inject_event(crash_at(900_000, 60, victim));
        }
        ctl.run()
    };
    let initial_builds = run(2, false).cache_misses;
    let job0_plans = run(1, false).cache_misses;
    let report = run(2, true);

    assert_eq!(report.isolations, 1);
    assert_eq!(report.repairs_returned, 1, "the repair lands in the soak");
    assert_eq!(report.stale_plan_routes, 0);
    // The crash drops every plan of job 0 (each routes through the
    // victim), which its next iteration rebuilds, and its recovery
    // re-plans every communicator. The repair re-stamps every plan:
    // neither job re-plans.
    assert_eq!(report.cache_rebased_drops, job0_plans);
    assert_eq!(
        report.cache_misses,
        initial_builds + 2 * job0_plans,
        "{report:?}"
    );
}
