//! Regenerates **Fig 3**: actual vs ideal throughput of GPT-22B training
//! under baseline (ECMP) networking in a shared pod.
//!
//! Sweeps:
//!
//! * `--sweep paper` (default) — the paper's 16…512 GPUs in the 64-node
//!   shared pod;
//! * `--sweep scale` — the extended 16…4096 GPU sweep on the 512-node
//!   grouped fabric (2:1 oversubscription), the CI perf-gate workload.
//!
//! `--json-out BENCH_scale.json` writes the machine-readable sweep document
//! (schema `c4-bench-v1`); `--check-against <baseline.json>` additionally
//! exits non-zero when any simulated leaf differs by a bit from a
//! previously checked-in baseline or `total_wall_ms` exceeds 2× its — the
//! CI guards against changed results and simulator-performance
//! regressions (see [`c4_bench::finish`]).

use c4::scenarios::fig3;
use c4_bench::{banner, finish, parse_cli, pct, SWEEP_FLAGS};

fn main() {
    let cli = parse_cli(4, SWEEP_FLAGS);
    let cfg = match cli.sweep.as_deref() {
        None | Some("paper") => fig3::Fig3Config::paper(cli.seed, cli.iters),
        Some("scale") => fig3::Fig3Config::scale_4096(cli.seed, cli.iters),
        Some("16k") => fig3::Fig3Config::scale_16384(cli.seed, cli.iters),
        Some("32k") => fig3::Fig3Config::scale_32768(cli.seed, cli.iters),
        Some(other) => panic!("unknown --sweep {other} (expected paper|scale|16k|32k)"),
    };
    banner(
        "Fig 3 — performance loss grows with system scale",
        "actual drops to ~30% below ideal at 512 GPUs",
    );
    println!(
        "sweep: {} · {} GPUs max",
        cli.sweep.as_deref().unwrap_or("paper"),
        cfg.scales.iter().max().unwrap_or(&0) * cfg.clos.gpus_per_node,
    );
    eprintln!("threads: {}", cfg.parallel.threads());

    let sweep = fig3::run_config(&cfg);
    // Stdout carries only seed-deterministic simulation results (same seed
    // ⇒ byte-identical output, the workspace invariant); wall-clock
    // measurements go to stderr and the --json-out bench document.
    println!(
        "{:>6} {:>14} {:>14} {:>10}",
        "GPUs", "Actual (sps)", "Ideal (sps)", "Loss"
    );
    for r in &sweep.rows {
        println!(
            "{:>6} {:>14.1} {:>14.1} {:>10}",
            r.gpus,
            r.actual_sps,
            r.ideal_sps,
            pct(r.loss)
        );
    }
    for r in &sweep.rows {
        eprintln!("wall {:>6} GPUs: {:>9.1} ms", r.gpus, r.wall_ms);
    }
    eprintln!("total wall: {:.1} ms", sweep.total_wall_ms);

    finish(&cli, &sweep.to_json());
}
