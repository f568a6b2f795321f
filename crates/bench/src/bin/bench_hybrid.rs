//! Regenerates **`BENCH_hybrid.json`**: the 4D-hybrid workload sweep — a
//! TP8/PP8/EP8 MoE job on 512…4096 GPUs, one BSP iteration = four
//! back-to-back traffic phases (NVLink all-gathers, stage-edge send/recv,
//! expert all-to-alls with a rotating hot expert, cross-fabric allreduce
//! rings), ECMP vs C4P on identical workloads with DCQCN noise and CNP
//! accounting live.
//!
//! The document also embeds the EP-imbalance detection study: per-expert
//! received bytes from real all-to-all traffic feed both the raw straggler
//! test (fires on nearly every healthy routing step) and the smoothed
//! windowed-mean test (silent through rotation, still catches a pinned hot
//! expert within a window).
//!
//! `--json-out BENCH_hybrid.json` writes the machine-readable document
//! (schema `c4-bench-v1`); `--check-against <baseline.json>` exits
//! non-zero when any simulated leaf differs by a bit from a checked-in
//! baseline or `total_wall_ms` exceeds 2× its — the CI result and perf
//! gates, same pattern as `bench_c4p` and `bench_drain`.

use c4::scenarios::hybrid;
use c4_bench::{banner, finish, parse_cli, SWEEP_FLAGS};

fn main() {
    // One iteration per cell: plan-build cost is a rounding error next to
    // the four noisy phase drains, and the scenario tests already pin the
    // cache-reuse behaviour — the bench measures the drains.
    let cli = parse_cli(1, SWEEP_FLAGS);
    // `--sweep 16k`/`--sweep 32k` select the scale extensions (their own
    // baselines, so the 4k trajectory stays comparable across PRs).
    let cfg = match cli.sweep.as_deref() {
        None | Some("scale") => hybrid::HybridScaleConfig::scale_4096(cli.seed, cli.iters),
        Some("16k") => hybrid::HybridScaleConfig::scale_16384(cli.seed, cli.iters),
        Some("32k") => hybrid::HybridScaleConfig::scale_32768(cli.seed, cli.iters),
        Some(other) => panic!("unknown --sweep {other} (expected scale|16k|32k)"),
    };
    let max_gpus = cfg.node_scales.iter().max().unwrap_or(&0) * 8;
    banner(
        &format!("4D-hybrid workload at {max_gpus} GPUs — TP/PP/DP/EP phases, ECMP vs C4P"),
        "asymmetric bursty traffic through batched planning; EP smoothing study",
    );
    eprintln!("threads: {}", cfg.parallel.threads());

    let sweep = hybrid::run_scale(&cfg);
    // Stdout carries only seed-deterministic simulation results (identical
    // at any thread count); wall clocks go to stderr and the JSON document.
    println!(
        "{:>6} {:>14} {:>14} {:>10} {:>10} {:>10} {:>10}",
        "GPUs", "ECMP iter (ms)", "C4P iter (ms)", "EP-E", "EP-C", "DP-E", "DP-C"
    );
    for r in &sweep.rows {
        println!(
            "{:>6} {:>14.1} {:>14.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            r.gpus,
            r.ecmp_iter_ms,
            r.c4p_iter_ms,
            r.ecmp_ep_gbps,
            r.c4p_ep_gbps,
            r.ecmp_dp_gbps,
            r.c4p_dp_gbps,
        );
    }
    for r in &sweep.rows {
        eprintln!(
            "wall {:>6} GPUs — cell {:>8.1} ms · plan ecmp {:>7.1} ms, c4p {:>7.1} ms · drain ecmp {:>8.1} ms, c4p {:>8.1} ms",
            r.gpus, r.wall_ms, r.ecmp_plan_ms, r.c4p_plan_ms, r.ecmp_drain_ms, r.c4p_drain_ms
        );
    }

    let study = hybrid::run_ep_imbalance(&hybrid::EpImbalanceConfig::default_study(cli.seed));
    println!(
        "EP study: raw detector fired {}/{} rotation steps, smoothed {}; pinned expert {} detected at step {:?}",
        study.raw_false_positives,
        study.rotate_steps,
        study.smoothed_false_positives,
        study.pinned_rank,
        study.smoothed_detect_step,
    );
    eprintln!("total wall: {:.1} ms", sweep.total_wall_ms);

    let mut doc = sweep.to_json();
    doc.push("ep_imbalance", study.to_json());
    finish(&cli, &doc);
}
