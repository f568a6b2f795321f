//! Regenerates **Fig 10a**: eight concurrent allreduce jobs at 1:1
//! oversubscription, baseline ECMP vs C4P global traffic engineering.

use c4::scenarios::fig10;
use c4_bench::{banner, parse_cli, pct};

fn main() {
    let cli = parse_cli(6, &[]);
    banner(
        "Fig 10a — global traffic engineering, 1:1 oversubscription",
        "baseline 171.93–263.27 Gbps; C4P 353.86–360.57 Gbps; +70.3% mean",
    );
    let r = fig10::run(false, cli.seed, cli.iters);
    println!(
        "{:>6} {:>16} {:>12}",
        "Task", "Baseline (Gbps)", "C4P (Gbps)"
    );
    for t in &r.tasks {
        println!(
            "{:>6} {:>16.1} {:>12.1}",
            t.task, t.baseline_gbps, t.c4p_gbps
        );
    }
    println!();
    println!(
        "means: baseline {:.1}, C4P {:.1} → improvement {} (paper: 70.3%)",
        r.baseline_mean,
        r.c4p_mean,
        pct(r.improvement)
    );
}
