//! Regenerates **Fig 13**: per-switch-port bandwidth around the uplink
//! failure, with and without dynamic load balance.

use c4::scenarios::fig12;
use c4_bench::{banner, parse_cli};

fn print_series(label: &str, r: &fig12::Fig12Report) {
    println!("— {label} — (leaf 0 uplinks, Gbps)");
    print!("{:>10}", "time (s)");
    for p in 0..r.port_series.first().map(|(_, v)| v.len()).unwrap_or(0) {
        print!("{:>9}", format!("up{p}"));
    }
    println!();
    let stride = (r.port_series.len() / 20).max(1);
    for (i, (t, ports)) in r.port_series.iter().enumerate() {
        if i % stride != 0 && i != r.fail_at && i + 1 != r.port_series.len() {
            continue;
        }
        print!("{t:>10.2}");
        for p in ports {
            print!("{p:>9.1}");
        }
        let marker = if i == r.fail_at {
            "  ← link fails"
        } else {
            ""
        };
        println!("{marker}");
    }
}

fn main() {
    let cli = parse_cli(60, &[]);
    banner(
        "Fig 13 — switch-port bandwidth with/without dynamic load balance",
        "static: rerouted flows pile onto few ports, the rest sag; \
         dynamic: surviving ports rebalance near-evenly",
    );
    let fail_at = cli.iters / 3;
    let s = fig12::run(false, cli.seed, cli.iters, fail_at);
    print_series("C4P static traffic engineering", &s);
    println!();
    let d = fig12::run(true, cli.seed, cli.iters, fail_at);
    print_series("C4P dynamic load balance", &d);
}
