//! Regenerates **`BENCH_c4p.json`**: the C4P-vs-ECMP concurrent-jobs
//! comparison at cluster scale (the Fig 10 contention pattern on
//! rail-dense `pod_grouped_railed` fabrics of 512…4096 GPUs, at 1:1, 2:1
//! and 4:1 oversubscription, with the paper's DCQCN rate noise and CNP
//! accounting live in every cell).
//!
//! Each cell runs eight jobs interleaved across all leaf groups — every
//! ring boundary crosses the spine layer — under both selectors, and
//! records mean per-job bus bandwidth plus the **plan-build wall clock**
//! of each selector (ring planning + path selection + route assembly, from
//! `PlanCache::build_wall_ms`) and the **drain wall clock** (the noisy
//! event loops, net of plan building). The plan build is the workload the
//! dense ledger, catalog link indexes and batched selection optimize; the
//! drains are what the event-driven engine optimizes (`bench_drain` gates
//! them separately).
//!
//! `--json-out BENCH_c4p.json` writes the machine-readable document
//! (schema `c4-bench-v1`); `--check-against <baseline.json>` exits
//! non-zero when any simulated leaf differs by a bit from a checked-in
//! baseline or `total_wall_ms` exceeds 2× its — the CI result and perf
//! gates, same pattern as `fig3 --sweep scale`.

use c4::scenarios::fig10;
use c4_bench::{banner, finish, parse_cli, pct, SWEEP_FLAGS};

fn main() {
    let cli = parse_cli(2, SWEEP_FLAGS);
    // `--sweep 16k`/`--sweep 32k` select the scale extensions (their own
    // baselines, so the 4k trajectory stays comparable across PRs).
    let cfg = match cli.sweep.as_deref() {
        None | Some("scale") => fig10::C4pScaleConfig::scale_4096(cli.seed, cli.iters),
        Some("16k") => fig10::C4pScaleConfig::scale_16384(cli.seed, cli.iters),
        Some("32k") => fig10::C4pScaleConfig::scale_32768(cli.seed, cli.iters),
        Some(other) => panic!("unknown --sweep {other} (expected scale|16k|32k)"),
    };
    let max_gpus = cfg.node_scales.iter().max().unwrap_or(&0) * 8;
    banner(
        &format!("C4P vs ECMP at cluster scale — 8 concurrent jobs, up to {max_gpus} GPUs"),
        "Fig 10 pattern: engineered allocation beats hashing as collisions compound",
    );
    eprintln!("threads: {}", cfg.parallel.threads());

    let sweep = fig10::run_scale(&cfg);
    // Stdout carries only seed-deterministic simulation results (identical
    // at any thread count); wall clocks go to stderr and the JSON document.
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>10}",
        "GPUs", "oversub", "ECMP (Gbps)", "C4P (Gbps)", "gain"
    );
    for r in &sweep.rows {
        println!(
            "{:>6} {:>8} {:>12.1} {:>12.1} {:>10}",
            r.gpus,
            format!("{}:1", r.oversub),
            r.ecmp_gbps,
            r.c4p_gbps,
            pct(r.improvement)
        );
    }
    for r in &sweep.rows {
        eprintln!(
            "wall {:>6} GPUs {}:1 — cell {:>8.1} ms · plan build ecmp {:>7.2} ms, c4p {:>7.2} ms",
            r.gpus, r.oversub, r.wall_ms, r.ecmp_plan_ms, r.c4p_plan_ms
        );
    }
    eprintln!("total wall: {:.1} ms", sweep.total_wall_ms);

    finish(&cli, &sweep.to_json());
}
