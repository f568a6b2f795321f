//! Regenerates **Fig 10b**: the same eight concurrent jobs with the spine
//! layer halved (2:1 oversubscription), where DCQCN congestion control
//! bounds the spread.

use c4::scenarios::fig10;
use c4_bench::{banner, parse_cli, pct};

fn main() {
    let cli = parse_cli(6, &[]);
    banner(
        "Fig 10b — global traffic engineering, 2:1 oversubscription",
        "C4P spread ≈11 Gbps around ~180 Gbps; +65.55% mean over baseline",
    );
    let r = fig10::run(true, cli.seed, cli.iters);
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
    let min = r
        .tasks
        .iter()
        .map(|t| t.c4p_gbps)
        .fold(f64::INFINITY, f64::min);
    let max = r.tasks.iter().map(|t| t.c4p_gbps).fold(0.0_f64, f64::max);
    println!();
    println!(
        "means: baseline {:.1}, C4P {:.1} → improvement {} (paper: 65.55%)",
        r.baseline_mean,
        r.c4p_mean,
        pct(r.improvement)
    );
    println!("C4P task spread: {:.1} Gbps (paper: 11.27 Gbps)", max - min);
}
