//! The fleet workload: `FleetConfig::soak_512`, one simulated week per
//! soak, soaks on consecutive seeds from the benchmark seed, ECMP only.
//! One soak is one operation; it fails when a cached plan still routes
//! through a changed link or its downtime does not reconcile with the
//! closed-form operation model.

use std::time::Instant;

use c4::prelude::{
    simulate_operation, FleetConfig, FleetController, FleetReport, ParallelPolicy, Topology,
};
use c4::scenarios::fleet::matched_operation;

use crate::layers::Layers;
use crate::probe;
use crate::report::{Digest, RunResult};

/// Relative tolerance of the live-vs-model per-event downtime check.
const RECONCILE_TOLERANCE: f64 = 0.5;

/// A fleet workload: the soak configuration of a seed.
#[derive(Debug, Clone, Copy)]
pub struct FleetSoak {
    /// Builds the soak configuration for one seed.
    pub config: fn(u64) -> FleetConfig,
}

impl FleetSoak {
    /// `fleet-soak-512`: 512 GPUs, one simulated week.
    pub fn soak_512() -> Self {
        FleetSoak {
            config: FleetConfig::soak_512,
        }
    }

    /// The 128-GPU, one-day smoke soak (tests).
    pub fn smoke() -> Self {
        FleetSoak {
            config: FleetConfig::smoke,
        }
    }

    fn config(&self, seed: u64) -> FleetConfig {
        let mut cfg = (self.config)(seed);
        cfg.parallel = ParallelPolicy::with_threads(1);
        cfg
    }

    /// The untraced run: soaks on seeds `seed, seed+1, …` until `seconds`
    /// have passed (at least two). Each soak's controller construction is
    /// one set-up sample. Walls are normalised to reference host speed by
    /// a probe reading taken right before each soak ([`probe`]); the raw
    /// walls and the readings are kept as `raw.*` and `probe_s`.
    pub fn run_untraced(&self, workload: &str, seed: u64, seconds: f64) -> RunResult {
        let mut res = RunResult {
            workload: workload.into(),
            seed,
            threads: 1,
            ..RunResult::default()
        };
        let (mut setup_s, mut week_s, mut iter_s) = (Vec::new(), Vec::new(), Vec::new());
        let (mut raw_setup_s, mut raw_week_s, mut probe_s) = (Vec::new(), Vec::new(), Vec::new());
        let window = Instant::now();
        for i in 0.. {
            let cfg = self.config(seed + i);
            let probe = probe::reading();
            let t = Instant::now();
            let ctl = FleetController::new(cfg.clone());
            let setup = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let report = ctl.run();
            let week = t.elapsed().as_secs_f64();
            let scale = probe::REFERENCE_S / probe;
            setup_s.push(setup * scale);
            week_s.push(week * scale);
            iter_s.push(week * scale / report.live_iterations.max(1) as f64);
            raw_setup_s.push(setup);
            raw_week_s.push(week);
            probe_s.push(probe);
            check_soak(&mut res, &cfg, &report);
            if i == 0 {
                print_simulated(&mut res, &report);
            }
            if i >= 1 && window.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        res.median_of("setup_s", setup_s, "s");
        res.median_of("step_s", week_s, "s");
        res.median_of("ecmp_iter_s", iter_s, "s");
        res.median_of("raw.setup_s", raw_setup_s, "s");
        res.median_of("raw.step_s", raw_week_s, "s");
        res.median_of("probe_s", probe_s, "s");
        res.finish();
        res
    }

    /// The traced run: the soak at the benchmark seed three times — a
    /// warm-up, an untimed-inside reference, then with the fabric build,
    /// controller, soak and operation model timed separately — checking
    /// the reports agree.
    pub fn run_traced(&self, workload: &str, seed: u64) -> RunResult {
        let mut res = RunResult {
            workload: workload.into(),
            seed,
            trace: true,
            threads: 1,
            ..RunResult::default()
        };
        let cfg = self.config(seed);
        // A first soak warms the allocator and caches so that the untraced
        // reference and the traced soak both run warm.
        let reference = FleetController::new(cfg.clone()).run();
        let t = Instant::now();
        drop(FleetController::new(cfg.clone()).run());
        let untraced_ms = t.elapsed().as_secs_f64() * 1e3;

        let mut layers = Layers::default();
        let t = Instant::now();
        drop(Topology::build(&cfg.clos));
        layers.set("topology.build_ms", t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let ctl = FleetController::new(cfg.clone());
        let new_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let report = ctl.run();
        let soak_ms = t.elapsed().as_secs_f64() * 1e3;
        let op = matched_operation(&cfg);
        let t = Instant::now();
        let model = simulate_operation(&op, cfg.seed);
        layers.set(
            "trainsim.operation_model_ms",
            t.elapsed().as_secs_f64() * 1e3,
        );
        check_reconciled(&mut res, &cfg, &report, &model);
        if counts(&report) != counts(&reference) {
            res.fail("same-seed soaks disagree: the soak is not deterministic".into());
        }
        print_simulated(&mut res, &report);

        let r = &report;
        layers.set("collectives.plan_hits", r.cache_hits as f64);
        layers.set("collectives.plan_misses", r.cache_misses as f64);
        layers.set("fleet.soak_ms", soak_ms);
        layers.set("fleet.rounds", r.rounds as f64);
        layers.set("fleet.live_iterations", r.live_iterations as f64);
        layers.set("fleet.ms_per_round", soak_ms / r.rounds.max(1) as f64);
        layers.set(
            "fleet.ms_per_live_iteration",
            soak_ms / r.live_iterations.max(1) as f64,
        );
        layers.set("fleet.rebased_drops", r.cache_rebased_drops as f64);
        layers.set(
            "fleet.faults_applied",
            (r.faults.crashes + r.faults.degradations + r.faults.link_failures) as f64,
        );
        layers.set("fleet.recoveries", r.total_recoveries() as f64);
        layers.set("c4d.detections", r.detections as f64);
        layers.set("c4d.isolations", r.isolations as f64);
        layers.set("c4d.replacements", r.replacements as f64);
        layers.set(
            "trace.overhead_frac",
            (new_ms + soak_ms) / untraced_ms - 1.0,
        );
        if res.correct() {
            layers.emit(&mut res);
        }
        res.finish();
        res
    }
}

/// The output checks of one soak (one operation).
fn check_soak(res: &mut RunResult, cfg: &FleetConfig, report: &FleetReport) {
    let model = simulate_operation(&matched_operation(cfg), cfg.seed);
    check_reconciled(res, cfg, report, &model);
}

fn check_reconciled(
    res: &mut RunResult,
    cfg: &FleetConfig,
    report: &FleetReport,
    model: &c4::prelude::OperationReport,
) {
    res.attempted += 1;
    let rec = report.reconcile(model);
    let mut bad = Vec::new();
    if report.stale_plan_routes != 0 {
        bad.push(format!("{} stale plan routes", report.stale_plan_routes));
    }
    if !rec.per_event_within(RECONCILE_TOLERANCE) {
        bad.push(format!(
            "live/model downtime per event {:?} outside ±{RECONCILE_TOLERANCE}",
            rec.per_event_ratio()
        ));
    }
    if !bad.is_empty() {
        res.failed += 1;
        res.fail(format!("soak seed {}: {}", cfg.seed, bad.join(", ")));
    }
}

/// The seed-determined counters of a soak, for same-seed comparison.
fn counts(r: &FleetReport) -> [u64; 10] {
    [
        r.rounds,
        r.live_iterations,
        r.detections,
        r.isolations,
        r.replacements,
        r.cache_hits,
        r.cache_misses,
        r.cache_rebased_drops,
        r.faults.total(),
        r.total_recoveries(),
    ]
}

/// Records a soak's simulated results (printed, not gated) and digest.
fn print_simulated(res: &mut RunResult, r: &FleetReport) {
    let goodput = r.aggregate_goodput_fraction();
    let ettr = r.mean_ettr().map_or(0.0, |d| d.as_secs_f64());
    let mut digest = Digest::default();
    for v in counts(r) {
        digest.add(v as f64);
    }
    digest.add(goodput);
    digest.add(ettr);
    res.digest = digest.value();
    res.simulated.extend([
        ("sim.goodput_fraction", goodput),
        ("sim.mean_ettr_s", ettr),
        ("sim.live_iterations", r.live_iterations as f64),
        ("sim.recoveries", r.total_recoveries() as f64),
    ]);
}
