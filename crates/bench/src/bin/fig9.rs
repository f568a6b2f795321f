//! Regenerates **Fig 9**: allreduce bus bandwidth with/without C4P's
//! dual-port balancing at GPU = 16/32/64/128.

use c4::scenarios::fig9;
use c4_bench::{banner, parse_cli, pct};

fn main() {
    let cli = parse_cli(5, &[]);
    banner(
        "Fig 9 — balancing traffic between the bonded physical ports",
        "baseline <240 Gbps; C4P ≈360 Gbps (NVLink-capped 362); ~50% gain",
    );
    let rows = fig9::run(cli.seed, cli.iters);
    println!(
        "{:>6} {:>16} {:>12} {:>8}",
        "GPUs", "Baseline (Gbps)", "C4P (Gbps)", "Gain"
    );
    for r in &rows {
        println!(
            "{:>6} {:>16.1} {:>12.1} {:>8}",
            r.gpus,
            r.baseline_gbps,
            r.c4p_gbps,
            pct(r.c4p_gbps / r.baseline_gbps - 1.0)
        );
    }
}
