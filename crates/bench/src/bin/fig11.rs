//! Regenerates **Fig 11**: CNP counts received per bonded port during the
//! 2:1-oversubscription run.

use c4::scenarios::fig10;
use c4_bench::{banner, parse_cli};

fn main() {
    let cli = parse_cli(12, &[]);
    banner(
        "Fig 11 — CNP count per bonded port (2:1 oversubscription, C4P)",
        "≈15 kp/s per port, fluctuating between 12.5 and 17.5 kp/s",
    );
    let r = fig10::run(true, cli.seed, cli.iters);
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "time (s)", "min (kp/s)", "mean (kp/s)", "max (kp/s)"
    );
    let mut all = Vec::new();
    for (t, rates) in &r.cnp_series {
        let min = rates.iter().copied().fold(f64::INFINITY, f64::min) / 1e3;
        let max = rates.iter().copied().fold(0.0_f64, f64::max) / 1e3;
        let mean = rates.iter().sum::<f64>() / rates.len() as f64 / 1e3;
        println!("{t:>10.2} {min:>12.2} {mean:>12.2} {max:>12.2}");
        all.extend(rates.iter().map(|x| x / 1e3));
    }
    let mean = all.iter().sum::<f64>() / all.len().max(1) as f64;
    let lo = all.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = all.iter().copied().fold(0.0_f64, f64::max);
    println!();
    println!(
        "overall: mean {mean:.2} kp/s, range {lo:.2}–{hi:.2} kp/s \
         (paper: ~15, range 12.5–17.5)"
    );
}
