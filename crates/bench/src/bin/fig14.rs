//! Regenerates **Fig 14**: end-to-end throughput of the three
//! production-style jobs with and without C4P.

use c4::scenarios::fig14;
use c4_bench::{banner, parse_cli, pct};

fn main() {
    let cli = parse_cli(4, &[]);
    banner(
        "Fig 14 — performance improvement in real-life jobs",
        "Job1 GPT-22B: 74.82 → 86.76 sps (+15.95%); \
         Job2 Llama-7B: 156.59 → 178.65 (+14.1%); Job3 GPT-175B (GA=16): ≈0%",
    );
    let rows = fig14::run(cli.seed, cli.iters);
    println!(
        "{:<38} {:>14} {:>12} {:>8}",
        "Job", "Baseline (sps)", "C4P (sps)", "Gain"
    );
    for r in &rows {
        println!(
            "{:<38} {:>14.2} {:>12.2} {:>8}",
            r.name,
            r.baseline_sps,
            r.c4p_sps,
            pct(r.improvement)
        );
    }
}
