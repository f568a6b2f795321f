//! Regenerates **Table I**: the distribution of crash causes over one month
//! of a 4,096-GPU job.

use c4::scenarios::tables::table1;
use c4_bench::{banner, parse_cli, pct};

fn main() {
    let cli = parse_cli(1, &[]);
    banner(
        "Table I — crash-cause census, 4096-GPU job, one month (June 2023)",
        "40 crashes; CUDA 12.5%/100% local; ECC+NVLink 27.5%/100%; \
         NCCL timeout 20%/75%; ACK timeout 27.5%/81.8%; Others 12.5%/40%",
    );
    let report = table1(cli.seed);
    println!("simulated crashes: {}", report.crashes.len());
    println!();
    println!(
        "{:<16} {:<18} {:>6} {:>12} {:>8}",
        "Users' View", "Root Cause", "Count", "Proportion", "Local"
    );
    for row in report.cause_census() {
        println!(
            "{:<16} {:<18} {:>6} {:>12} {:>8}",
            row.user_view.to_string(),
            row.cause,
            row.count,
            pct(row.proportion),
            pct(row.local_pct)
        );
    }
    let local = report.crashes.iter().filter(|c| c.local).count() as f64
        / report.crashes.len().max(1) as f64;
    println!();
    println!("node-local crashes overall: {} (paper: ~82.5%)", pct(local));
}
