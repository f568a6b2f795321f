//! Regenerates **`BENCH_drain.json`**: per-cell wall clocks of the noisy
//! network drains at full scale — the 4096-GPU, eight-job Fig 10 contention
//! pattern with the paper's DCQCN rate noise and CNP accounting live, at
//! 1:1, 2:1 and 4:1 oversubscription.
//!
//! Each cell runs both selectors (ECMP and C4P-dynamic) and records the
//! iteration loop's wall clock net of plan building — the shared noisy
//! drain event loops the event-driven engine exists to shrink. Before that
//! engine, a single noisy 4096-GPU iteration cost ~23 s (each DCQCN epoch
//! re-cap forced a full re-partition and re-solve, and every event paid an
//! O(active × route) link-load rebuild); the whole cell now finishes in
//! single-digit seconds.
//!
//! `--json-out BENCH_drain.json` writes the machine-readable document
//! (schema `c4-bench-v1`); `--check-against <baseline.json>` exits
//! non-zero when any simulated leaf differs by a bit from a checked-in
//! baseline or `total_wall_ms` exceeds 2× its — the CI result and perf
//! gates, same pattern as `fig3 --sweep scale` and `bench_c4p`.

use c4::scenarios::fig10;
use c4_bench::{banner, finish, parse_cli, FINISH_FLAGS};

fn main() {
    let cli = parse_cli(2, FINISH_FLAGS);
    let cfg = fig10::C4pScaleConfig::drain_4096(cli.seed, cli.iters);
    banner(
        "Noisy drain engine at 4096 GPUs — 8 jobs, DCQCN noise + CNP live",
        "event-driven drains do work proportional to what changed, not what exists",
    );
    eprintln!("threads: {}", cfg.parallel.threads());

    let sweep = fig10::run_scale(&cfg);
    // Stdout carries only seed-deterministic simulation results (identical
    // at any thread count); wall clocks go to stderr and the JSON document.
    println!(
        "{:>6} {:>8} {:>12} {:>12}",
        "GPUs", "oversub", "ECMP (Gbps)", "C4P (Gbps)"
    );
    for r in &sweep.rows {
        println!(
            "{:>6} {:>8} {:>12.1} {:>12.1}",
            r.gpus,
            format!("{}:1", r.oversub),
            r.ecmp_gbps,
            r.c4p_gbps,
        );
    }
    for r in &sweep.rows {
        eprintln!(
            "wall {:>6} GPUs {}:1 — cell {:>8.1} ms · drain ecmp {:>8.1} ms, c4p {:>8.1} ms",
            r.gpus, r.oversub, r.wall_ms, r.ecmp_drain_ms, r.c4p_drain_ms
        );
    }
    eprintln!("total wall: {:.1} ms", sweep.total_wall_ms);

    finish(&cli, &sweep.to_drain_json());
}
