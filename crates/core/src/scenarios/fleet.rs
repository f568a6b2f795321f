//! The fleet soak: many concurrent training jobs with arrival/departure
//! churn run through the **live** network stack while scheduled faults
//! land on the topology, and every fault flows the full
//! detect → isolate → replace → restart loop (§IV-B's C4D pipeline closed
//! end to end, not just measured per stage).
//!
//! The closing reconciliation ties the live loop back to the closed-form
//! operation model behind Table III: the soak's mean downtime charged per
//! recovery event must agree with [`simulate_operation`]'s mean downtime
//! per crash on a **matched** configuration — same detection latency
//! (hang timeout + localization), same steering turnaround, same
//! checkpoint cadence and re-init cost, deterministic tails.

use std::time::Instant;

use c4_diagnosis::{HANG_TIMEOUT, STEERING_TURNAROUND};
use c4_fleet::{
    FleetConfig, FleetController, FleetReport, Reconciliation, CHECKPOINT_INTERVAL, LOCALIZE_DELAY,
    REINIT,
};
use c4_simcore::{JsonValue, SimDuration};
use c4_topology::Topology;
use c4_trainsim::{
    simulate_operation, DetectionModel, DiagnosisModel, OperationConfig, OperationReport,
    RecoveryConfig,
};

/// Builds the closed-form [`OperationConfig`] matched to a fleet soak:
/// the same working cluster (backups excluded — they hold no job), the
/// same accelerated fault rates, and a recovery pipeline whose stages
/// mirror what the controller actually charges per recovery:
///
/// - detection = hang timeout + localization delay (the controller charges
///   both before steering), with a fixed 1-second notification tail;
/// - diagnosis = the steering turnaround (isolation + restart), tails
///   pinned deterministic;
/// - checkpoint interval and re-init copied verbatim, so the redone
///   post-checkpoint work distributes identically.
pub fn matched_operation(cfg: &FleetConfig) -> OperationConfig {
    let topo = Topology::build(&cfg.clos);
    let nodes = topo.num_nodes().saturating_sub(cfg.backup_nodes).max(1);
    let gpus_per_node = topo.num_gpus() / topo.num_nodes().max(1);
    // DetRng::lognormal needs a positive median; sigma 0 makes the 1 s
    // tails exact constants, keeping the model as deterministic as the
    // fleet's charges.
    let tick = SimDuration::from_secs(1);
    OperationConfig {
        gpus: nodes * gpus_per_node,
        nodes,
        gpus_per_node,
        horizon: cfg.horizon,
        rates: cfg.fault_rates(),
        recovery: RecoveryConfig {
            detection: DetectionModel::C4d {
                latency: HANG_TIMEOUT + LOCALIZE_DELAY,
                tail_median: tick,
                tail_sigma: 0.0,
            },
            diagnosis: DiagnosisModel::C4dAuto {
                localize: SimDuration::ZERO,
                steering: STEERING_TURNAROUND,
                tail_median: tick,
                tail_sigma: 0.0,
                nonlocal_median: tick,
            },
            checkpoint_interval: CHECKPOINT_INTERVAL,
            reinit: REINIT,
        },
    }
}

/// One fleet soak plus its closed-form counterpart, with the timing
/// metadata the `bench_fleet` binary emits into `BENCH_fleet.json`.
#[derive(Debug, Clone)]
pub struct FleetSoakSweep {
    /// The live soak's full report.
    pub report: FleetReport,
    /// The matched closed-form operation run.
    pub model: OperationReport,
    /// Live-vs-model downtime comparison.
    pub reconciliation: Reconciliation,
    /// Working GPUs (backup pool excluded).
    pub gpus: usize,
    /// Working nodes.
    pub nodes: usize,
    /// Whole-sweep wall clock, milliseconds.
    pub total_wall_ms: f64,
    /// Thread budget the soak ran under.
    pub threads: usize,
    /// The root seed.
    pub seed: u64,
}

/// Runs the fleet soak and the matched closed-form model on the same seed,
/// timing the whole sweep.
pub fn run_soak(cfg: &FleetConfig) -> FleetSoakSweep {
    let start = Instant::now();
    let op = matched_operation(cfg);
    let report = FleetController::new(cfg.clone()).run();
    let model = simulate_operation(&op, cfg.seed);
    let reconciliation = report.reconcile(&model);
    FleetSoakSweep {
        report,
        model,
        reconciliation,
        gpus: op.gpus,
        nodes: op.nodes,
        total_wall_ms: start.elapsed().as_secs_f64() * 1e3,
        threads: cfg.parallel.threads(),
        seed: cfg.seed,
    }
}

impl FleetSoakSweep {
    /// The sweep as the `BENCH_fleet.json` document (`c4-bench-v1`).
    pub fn to_json(&self) -> JsonValue {
        let r = &self.report;
        let mut config = JsonValue::object();
        config
            .push("seed", self.seed)
            .push("threads", self.threads)
            .push("gpus", self.gpus)
            .push("nodes", self.nodes)
            .push("horizon_hours", r.horizon.as_secs_f64() / 3600.0)
            .push("jobs", r.jobs.len());

        let mut soak = JsonValue::object();
        soak.push("rounds", r.rounds)
            .push("live_iterations", r.live_iterations)
            .push(
                "jobs_completed",
                r.jobs.iter().filter(|j| j.completed).count(),
            )
            .push("jobs_failed", r.jobs.iter().filter(|j| j.failed).count())
            .push("goodput_fraction", r.aggregate_goodput_fraction())
            .push("downtime_fraction", r.aggregate_downtime_fraction())
            .push(
                "mean_ettr_s",
                r.mean_ettr().map_or(0.0, |d| d.as_secs_f64()),
            )
            .push("recoveries", r.total_recoveries());

        let mut faults = JsonValue::object();
        faults
            .push("crashes", r.faults.crashes)
            .push("degradations", r.faults.degradations)
            .push("link_failures", r.faults.link_failures)
            .push("skipped", r.faults.skipped);

        let mut control = JsonValue::object();
        control
            .push("detections", r.detections)
            .push("isolations", r.isolations)
            .push("replacements", r.replacements)
            .push("dp_shrinks", r.dp_shrinks())
            .push("retries", r.retries())
            .push("escalations", r.escalations)
            .push("repairs_returned", r.repairs_returned);

        let mut detection = JsonValue::object();
        detection.push("late_dropped_durations", r.late_dropped_durations);

        let mut cache = JsonValue::object();
        cache
            .push("hits", r.cache_hits)
            .push("misses", r.cache_misses)
            .push("drain_reuses", r.drain_reuses)
            .push("rebased_drops", r.cache_rebased_drops)
            .push("stale_plan_routes", r.stale_plan_routes);

        let rec = self.reconciliation;
        let mut reconcile = JsonValue::object();
        reconcile
            .push(
                "fleet_downtime_per_recovery_s",
                rec.fleet_downtime_per_recovery_s,
            )
            .push("model_downtime_per_crash_s", rec.model_downtime_per_crash_s)
            .push("per_event_ratio", rec.per_event_ratio().unwrap_or(0.0))
            .push("fleet_downtime_fraction", rec.fleet_downtime_fraction)
            .push("model_downtime_fraction", rec.model_downtime_fraction)
            .push("fleet_recoveries", rec.fleet_recoveries)
            .push("model_crashes", rec.model_crashes);

        let mut doc = JsonValue::object();
        doc.push("schema", "c4-bench-v1")
            .push("bench", "fleet")
            .push("config", config)
            .push("soak", soak)
            .push("faults", faults)
            .push("control", control)
            .push("detection", detection)
            .push("plan_cache", cache)
            .push("reconciliation", reconcile)
            .push("total_wall_ms", self.total_wall_ms);
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_smoke(seed: u64) -> FleetConfig {
        let mut cfg = FleetConfig::smoke(seed);
        cfg.horizon = SimDuration::from_hours(2);
        cfg
    }

    #[test]
    fn soak_sweep_json_matches_schema() {
        let sweep = run_soak(&short_smoke(42));
        let doc = sweep.to_json();
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("c4-bench-v1")
        );
        assert_eq!(doc.get("bench").and_then(|v| v.as_str()), Some("fleet"));
        let back = JsonValue::parse(&doc.pretty()).expect("round-trip");
        assert!(back.get("total_wall_ms").and_then(|v| v.as_f64()).unwrap() > 0.0);
        let cache = back.get("plan_cache").unwrap();
        assert_eq!(
            cache.get("stale_plan_routes").and_then(|v| v.as_f64()),
            Some(0.0),
            "the zero-stale-route invariant is part of the document"
        );
        let soak = back.get("soak").unwrap();
        let goodput = soak
            .get("goodput_fraction")
            .and_then(|v| v.as_f64())
            .unwrap();
        assert!((0.0..=1.0).contains(&goodput), "goodput {goodput}");
    }

    #[test]
    fn matched_model_mirrors_the_fleet_charges() {
        let cfg = FleetConfig::smoke(7);
        let op = matched_operation(&cfg);
        assert_eq!(op.nodes, 32 - cfg.backup_nodes);
        assert_eq!(op.gpus, op.nodes * 8);
        assert_eq!(op.horizon, cfg.horizon);
        assert_eq!(op.recovery.checkpoint_interval, CHECKPOINT_INTERVAL);
        assert_eq!(op.recovery.reinit, REINIT);
        match op.recovery.detection {
            DetectionModel::C4d {
                latency,
                tail_sigma,
                ..
            } => {
                assert_eq!(latency, HANG_TIMEOUT + LOCALIZE_DELAY);
                assert_eq!(tail_sigma, 0.0, "deterministic tail");
            }
            other => panic!("expected C4d detection, got {other:?}"),
        }
        match op.recovery.diagnosis {
            DiagnosisModel::C4dAuto { steering, .. } => {
                assert_eq!(steering, STEERING_TURNAROUND);
            }
            other => panic!("expected C4dAuto diagnosis, got {other:?}"),
        }
        // Accelerated rates reach the model too.
        assert!(op.rates.total_crash_rate(op.gpus, op.nodes) > 0.0);
    }

    #[test]
    fn soak_reconciles_with_the_closed_form_model() {
        let sweep = run_soak(&short_smoke(11));
        // Per-event downtime means agree within 50 % whenever both sides
        // saw events (vacuously true otherwise — a 2 h window may draw no
        // crash on either side).
        assert!(
            sweep.reconciliation.per_event_within(0.5),
            "reconciliation out of tolerance: {:?}",
            sweep.reconciliation
        );
        assert_eq!(sweep.report.stale_plan_routes, 0);
    }
}
