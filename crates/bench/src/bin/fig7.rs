//! Regenerates **Fig 7**: the delay-matrix syndromes — single slow
//! connection, sender-Tx-slow row, receiver-Rx-slow column — and C4D's
//! localization of each.

use c4::scenarios::fig7::{run, Fig7Case};
use c4_bench::{banner, parse_cli};

fn print_matrix(ms: &[Vec<f64>]) {
    print!("        ");
    for j in 0..ms.len() {
        print!("   dst{j} ");
    }
    println!();
    for (i, row) in ms.iter().enumerate() {
        print!("  src{i} ");
        for v in row {
            if v.is_nan() {
                print!("{:>8}", "-");
            } else {
                print!("{v:>8.1}");
            }
        }
        println!();
    }
}

fn main() {
    let cli = parse_cli(1, &[]);
    banner(
        "Fig 7 — communication-slow syndromes in the delay matrix (ms)",
        "one hot cell = slow connection; hot row = rank Tx slow; \
         hot column = rank Rx slow",
    );
    for case in [
        Fig7Case::Healthy,
        Fig7Case::ConnectionSlow,
        Fig7Case::TxSlow,
        Fig7Case::RxSlow,
    ] {
        let report = run(case, cli.seed);
        println!("\n— case {:?} —", case);
        print_matrix(&report.matrix_ms);
        if report.findings.is_empty() {
            println!("  C4D: no anomaly");
        }
        for f in &report.findings {
            println!("  C4D finding: {f:?}");
        }
    }
}
