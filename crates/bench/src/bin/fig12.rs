//! Regenerates **Fig 12**: per-iteration allreduce bus bandwidth around a
//! mid-run uplink failure — C4P static traffic engineering vs dynamic load
//! balance.

use c4::scenarios::fig12;
use c4_bench::{banner, parse_cli, pct};

fn summarize(label: &str, r: &fig12::Fig12Report) {
    println!("— {label} —");
    println!(
        "  pre-failure mean:  {:>7.1} Gbps   post-failure mean: {:>7.1} Gbps",
        r.pre_mean, r.post_mean
    );
    // Print a compressed per-iteration trace (min/mean/max over tasks).
    println!("  {:>6} {:>10} {:>10} {:>10}", "iter", "min", "mean", "max");
    let stride = (r.per_iter_busbw.len() / 16).max(1);
    for (i, row) in r.per_iter_busbw.iter().enumerate() {
        if i % stride != 0 && i != r.fail_at && i + 1 != r.per_iter_busbw.len() {
            continue;
        }
        let min = row.iter().copied().fold(f64::INFINITY, f64::min);
        let max = row.iter().copied().fold(0.0_f64, f64::max);
        let mean = row.iter().sum::<f64>() / row.len() as f64;
        let marker = if i == r.fail_at {
            "  ← link fails"
        } else {
            ""
        };
        println!("  {i:>6} {min:>10.1} {mean:>10.1} {max:>10.1}{marker}");
    }
}

fn main() {
    let cli = parse_cli(60, &[]);
    banner(
        "Fig 12 — tolerance to a dynamic link failure (1 of 8 uplinks)",
        "static TE: 160–220 Gbps (mean 185.76); dynamic LB: 290–335 Gbps \
         (mean 301.46) vs 7/8 ideal 315",
    );
    let fail_at = cli.iters / 3;
    let s = fig12::run(false, cli.seed, cli.iters, fail_at);
    let d = fig12::run(true, cli.seed, cli.iters, fail_at);
    summarize("C4P static traffic engineering", &s);
    println!();
    summarize("C4P dynamic load balance", &d);
    println!();
    println!(
        "dynamic vs static after failure: {} (paper: +62.3%); ideal {:.1} Gbps",
        pct(d.post_mean / s.post_mean - 1.0),
        d.ideal_post
    );
}
