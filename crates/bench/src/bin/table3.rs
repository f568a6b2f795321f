//! Regenerates **Table III**: error-induced downtime of the 2,400-GPU 175-B
//! job before (June 2023) and after (December 2023) C4D deployment.

use c4::prelude::OperationReport;
use c4::scenarios::tables::table3;
use c4_bench::{banner, parse_cli, pct};

fn column(label: &str, r: &OperationReport) {
    println!("— {label} —");
    println!("  crashes:               {:>8}", r.crashes.len());
    println!(
        "  Post-Checkpoint        {:>8}",
        pct(r.post_checkpoint_fraction())
    );
    println!(
        "  Detection              {:>8}",
        pct(r.detection_fraction())
    );
    println!(
        "  Diagnosis & Isolation  {:>8}",
        pct(r.diagnosis_fraction())
    );
    for (cause, f) in r.diagnosis_by_cause() {
        println!("    {cause:<20} {:>8}", pct(f));
    }
    println!("  Re-Initialization      {:>8}", pct(r.reinit_fraction()));
    println!("  Total                  {:>8}", pct(r.downtime_fraction()));
}

fn main() {
    let cli = parse_cli(1, &[]);
    banner(
        "Table III — error-induced downtime (2400-GPU GPT-175B job)",
        "June 2023: Post-CKPT 7.53, Detection 3.41, Diag&Iso 19.65 \
         (ECC/NVLink 8.34, CUDA 4.19, CCL 3.0, ACK 1.8, Unknown 2.29), \
         Re-Init 0.6, Total 31.19% → December 2023: 0.23/0.05/0.73/0.15, \
         Total 1.16% (≈30×)",
    );
    let (june, dec) = table3(cli.seed);
    column("June 2023 (manual ops, sparse checkpoints)", &june);
    println!();
    column(
        "December 2023 (C4D + 10-min checkpoints + hardened fleet)",
        &dec,
    );
    println!();
    let ratio = june.downtime_fraction() / dec.downtime_fraction().max(1e-9);
    println!("improvement: {:.1}× less downtime (paper: ≈30×)", ratio);
}
