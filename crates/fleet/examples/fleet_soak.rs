//! Runnable fleet-soak demo: a 128-GPU pod hosting a churn mix of nine
//! jobs for one simulated day, with accelerated node crashes, component
//! degradations and fabric link flaps injected into the **live** topology
//! and every fault driven through the closed detect → isolate → replace →
//! restart loop.
//!
//! ```text
//! cargo run --release -p c4_fleet --example fleet_soak [seed]
//! ```
//!
//! Output is seed-deterministic and bit-identical at any thread count
//! (`C4_THREADS`). For the 512-GPU one-week gated run, see
//! `bench_fleet` in the `c4_bench` crate.

use c4_fleet::{FleetConfig, FleetController};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(42);
    let mut cfg = FleetConfig::smoke(seed);
    // Push the December-2023 Table-I rates hard enough that a single
    // simulated day draws faults from all three injector streams.
    cfg.rate_multiplier = 120.0;
    let report = FleetController::new(cfg).run();

    println!(
        "soak: {:.0} h horizon, {} rounds, {} live iterations, seed {seed}",
        report.horizon.as_secs_f64() / 3600.0,
        report.rounds,
        report.live_iterations,
    );
    println!(
        "faults applied: {} crashes, {} degradations, {} link failures ({} skipped)",
        report.faults.crashes,
        report.faults.degradations,
        report.faults.link_failures,
        report.faults.skipped,
    );
    println!(
        "control loop: {} detections -> {} isolations -> {} replacements + {} DP shrinks ({} retries, {} escalations, {} repairs returned)",
        report.detections,
        report.isolations,
        report.replacements,
        report.dp_shrinks(),
        report.retries(),
        report.escalations,
        report.repairs_returned,
    );
    println!(
        "plan cache: {} hits / {} misses, {} surgical drops, {} stale routes (invariant: 0)",
        report.cache_hits,
        report.cache_misses,
        report.cache_rebased_drops,
        report.stale_plan_routes,
    );

    println!("\n  id  outcome    dp  iters   recov  goodput  policy / job");
    for j in &report.jobs {
        let outcome = if j.completed {
            "done"
        } else if j.failed {
            "failed"
        } else {
            "running"
        };
        println!(
            "  {:>2}  {:<8} {:>3}  {:>6}  {:>5}  {:>6.1}%  {:?} / {}",
            j.id,
            outcome,
            j.final_dp,
            j.accounting.iterations,
            j.accounting.recoveries,
            100.0 * j.accounting.goodput_fraction(report.ended),
            j.policy,
            j.name,
        );
    }
    println!(
        "\nfleet goodput {:.1}%, downtime {:.1}%, mean ETTR {:.0} s over {} recoveries",
        100.0 * report.aggregate_goodput_fraction(),
        100.0 * report.aggregate_downtime_fraction(),
        report.mean_ettr().map_or(0.0, |d| d.as_secs_f64()),
        report.total_recoveries(),
    );
    assert_eq!(report.stale_plan_routes, 0, "stale cached route served");
}
