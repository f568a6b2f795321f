//! Regenerates **`BENCH_fig12.json`**: the Fig 12 fault-tolerance
//! experiment at production scale — the eight-job contention pattern on the
//! 4096-GPU `pod_grouped_railed` fabric with DCQCN noise and CNP accounting
//! live, one spine killed mid-run, C4P static traffic engineering vs
//! dynamic load balance.
//!
//! Paper shape (128-GPU testbed): static TE degrades to a 185.76 Gbps mean
//! because hash-threshold rerouting piles orphaned flows onto a neighbour
//! port; dynamic load balance recovers to 301.46 against a 7/8 ideal of
//! 315. This binary reruns that comparison three orders of magnitude
//! larger.
//!
//! `--json-out BENCH_fig12.json` writes the machine-readable document
//! (schema `c4-bench-v1`); `--check-against <baseline.json>` exits
//! non-zero when any simulated leaf differs by a bit from a checked-in
//! baseline or `total_wall_ms` exceeds 2× its — the CI result and perf
//! gates, same pattern as `bench_c4p` and `bench_drain`.

use c4::scenarios::fig12;
use c4_bench::{banner, finish, parse_cli, pct, FINISH_FLAGS};

fn main() {
    let cli = parse_cli(6, FINISH_FLAGS);
    let cfg = fig12::FaultScaleConfig::scale_4096(cli.seed, cli.iters);
    banner(
        "Fig 12 at 4096 GPUs — spine kill mid-run, static TE vs dynamic LB",
        "static: 185.76 Gbps post-failure; dynamic: 301.46 vs 7/8 ideal 315",
    );
    eprintln!("threads: {}", cfg.parallel.threads());

    let sweep = fig12::run_scale_sweep(&cfg);
    // Stdout carries only seed-deterministic simulation results (identical
    // at any thread count); wall clocks go to stderr and the JSON document.
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "mode", "pre (Gbps)", "post (Gbps)", "ideal post"
    );
    for r in [&sweep.static_mode, &sweep.dynamic_mode] {
        println!(
            "{:>8} {:>12.1} {:>12.1} {:>12.1}",
            if r.dynamic { "dynamic" } else { "static" },
            r.pre_mean,
            r.post_mean,
            r.ideal_post,
        );
    }
    println!(
        "dynamic-over-static post-failure gain: {}",
        pct(sweep.dynamic_mode.post_mean / sweep.static_mode.post_mean.max(1e-9) - 1.0)
    );
    eprintln!("total wall: {:.1} ms", sweep.total_wall_ms);

    finish(&cli, &sweep.to_json());
}
