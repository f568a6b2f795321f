//! Regenerates **`BENCH_fleet.json`**: the fault-churn fleet soak — one
//! simulated week on a 512-GPU pod hosting 8+ concurrent jobs with
//! arrival/departure churn, accelerated fault rates (node crashes, NIC and
//! PCIe degradations, fabric link flaps) applied to the **live** topology,
//! and every fault driven through the closed detect → isolate → replace →
//! restart loop (streaming C4D verdicts → steering → plan-cache rebase).
//!
//! The document carries the control-loop census (detections, isolations,
//! replacements, DP shrinks, retries, escalations), the detection block
//! (completed-collective durations the health windows dropped late), the
//! plan-cache audit (`stale_plan_routes` must be zero), and the
//! reconciliation of the live loop's downtime against the closed-form
//! Table III operation model on a matched configuration.
//!
//! `--iters N` sets the simulated horizon in hours (default 168 = one
//! week). `--json-out BENCH_fleet.json` writes the machine-readable
//! document (schema `c4-bench-v1`); `--check-against <baseline.json>`
//! exits non-zero when any simulated leaf differs by a bit from a
//! checked-in baseline or `total_wall_ms` exceeds 2× its — the CI result
//! and perf gates, same pattern as `bench_fig12`.

use c4::prelude::{FleetConfig, SimDuration};
use c4::scenarios::fleet;
use c4_bench::{banner, finish, parse_cli, pct, FINISH_FLAGS};

fn main() {
    let cli = parse_cli(168, FINISH_FLAGS);
    let mut cfg = FleetConfig::soak_512(cli.seed);
    cfg.horizon = SimDuration::from_hours(cli.iters as u64);
    banner(
        "Fleet soak — 512 GPUs, one simulated week, churn + live fault loop",
        "detect → isolate → replace → restart through the live network stack",
    );
    eprintln!("threads: {}", cfg.parallel.threads());

    let sweep = fleet::run_soak(&cfg);
    let r = &sweep.report;
    // Stdout carries only seed-deterministic simulation results (identical
    // at any thread count); wall clocks go to stderr and the JSON document.
    println!(
        "horizon {:.0} h on {} GPUs: {} jobs ({} completed, {} failed), {} rounds, {} live iterations",
        r.horizon.as_secs_f64() / 3600.0,
        sweep.gpus,
        r.jobs.len(),
        r.jobs.iter().filter(|j| j.completed).count(),
        r.jobs.iter().filter(|j| j.failed).count(),
        r.rounds,
        r.live_iterations,
    );
    println!(
        "faults applied: {} crashes, {} degradations, {} link failures ({} skipped)",
        r.faults.crashes, r.faults.degradations, r.faults.link_failures, r.faults.skipped,
    );
    println!(
        "control loop: {} detections, {} isolations, {} replacements, {} DP shrinks, {} retries, {} escalations, {} repairs returned",
        r.detections, r.isolations, r.replacements, r.dp_shrinks(), r.retries(), r.escalations, r.repairs_returned,
    );
    println!(
        "detection: {} completed-collective durations dropped late by the health windows",
        r.late_dropped_durations,
    );
    println!(
        "plan cache: {} hits / {} misses, {} drain reuses, {} rebased drops, {} stale routes (invariant: 0)",
        r.cache_hits, r.cache_misses, r.drain_reuses, r.cache_rebased_drops, r.stale_plan_routes,
    );
    println!(
        "goodput {}, downtime {}, mean ETTR {:.0} s over {} recoveries",
        pct(r.aggregate_goodput_fraction()),
        pct(r.aggregate_downtime_fraction()),
        r.mean_ettr().map_or(0.0, |d| d.as_secs_f64()),
        r.total_recoveries(),
    );
    let rec = sweep.reconciliation;
    println!(
        "reconciliation vs closed-form model: {:.0} s/recovery live vs {:.0} s/crash model (ratio {:.2})",
        rec.fleet_downtime_per_recovery_s,
        rec.model_downtime_per_crash_s,
        rec.per_event_ratio().unwrap_or(0.0),
    );
    eprintln!("total wall: {:.1} ms", sweep.total_wall_ms);

    if r.stale_plan_routes != 0 {
        eprintln!(
            "FAILED: {} cached plans routed through a changed link",
            r.stale_plan_routes
        );
        std::process::exit(1);
    }
    if !rec.per_event_within(0.5) {
        eprintln!("FAILED: live/model per-event downtime diverges: {rec:?}");
        std::process::exit(1);
    }

    finish(&cli, &sweep.to_json());
}
