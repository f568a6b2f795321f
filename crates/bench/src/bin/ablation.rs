//! Ablation: which of C4P's mechanisms buys what.
//!
//! The paper lists three key functionalities (§III-B): (1) faulty-link
//! elimination at start-up, (2) balanced QPs across healthy paths, and
//! (3) dynamic adaptation to network changes. This ladder measures the
//! 8-concurrent-job workload under a pre-degraded link plus a mid-run spine
//! failure, switching mechanisms on one at a time:
//!
//! 1. `ecmp`         — uncoordinated hashing (no C4P at all);
//! 2. `balance-only` — dual-port balance + per-leaf round-robin spreading,
//!    but no probing and no failure reaction;
//! 3. `c4p-static`   — full allocation incl. faulty-link elimination, but
//!    static after start-up;
//! 4. `c4p-dynamic`  — everything, incl. rebalance + byte re-splitting.
//!
//! The C4P rungs feed every iteration's per-QP rates back to the master
//! (`observe`, which re-splits bytes only when dynamic); only the dynamic
//! rung re-probes at the failure (`rebalance`).

use c4::prelude::*;
use c4::scenarios::benchmark_request;
use c4_bench::{banner, parse_cli, Cli};

struct Outcome {
    name: &'static str,
    pre_mean: f64,
    post_mean: f64,
}

/// A rung's path selector: a C4P master also gets the rate feedback and,
/// when `rebalance`, the re-probe the module doc describes.
enum Selector<'a> {
    Plain(&'a mut dyn PathSelector),
    C4p {
        master: &'a mut C4pMaster,
        rebalance: bool,
    },
}

/// Grouped trunked testbed with a pre-degraded (flapping) uplink.
fn testbed() -> Topology {
    let mut topo = Topology::build(&ClosConfig::testbed_128_grouped(2).trunked());
    let flaky = topo.fabric_up_links(1, 5)[0];
    topo.link_mut(flaky).set_degradation(0.6);
    topo
}

fn run_ladder(
    name: &'static str,
    cli: &Cli,
    mut topo: Topology,
    mut selector: Selector<'_>,
) -> Outcome {
    let fail_at = cli.iters / 2;
    let jobs: Vec<Communicator> = (0..8)
        .map(|i| {
            let devices: Vec<GpuId> = [i, 8 + i]
                .iter()
                .flat_map(|&n| topo.node(NodeId::from_index(n)).gpus.clone())
                .collect();
            Communicator::new(1 + i as u64, devices, &topo).expect("job comm")
        })
        .collect();
    let drain = DrainConfig {
        rate_noise: 0.07,
        cnp: Some(CnpModel::paper_default()),
        ..DrainConfig::default()
    };
    let mut rng = DetRng::seed_from(cli.seed);

    let mut pre = Vec::new();
    let mut post = Vec::new();
    for it in 0..cli.iters {
        if it == fail_at {
            let spine = topo.spines()[0];
            topo.set_spine_up(spine, false);
            if let Selector::C4p {
                master,
                rebalance: true,
            } = &mut selector
            {
                master.rebalance(&topo);
            }
        }
        let reqs: Vec<CollectiveRequest<'_>> = jobs
            .iter()
            .map(|c| benchmark_request(c, it as u64, drain.clone()))
            .collect();
        let results = match &mut selector {
            Selector::Plain(sel) => run_concurrent(&topo, &reqs, *sel, None, &mut rng, None),
            Selector::C4p { master, .. } => {
                let results = run_concurrent(&topo, &reqs, *master, None, &mut rng, None);
                for r in &results {
                    master.observe(&r.qp_outcomes);
                }
                results
            }
        };
        let mean =
            results.iter().filter_map(|r| r.busbw_gbps()).sum::<f64>() / results.len() as f64;
        if it < fail_at {
            pre.push(mean);
        } else {
            post.push(mean);
        }
    }
    Outcome {
        name,
        pre_mean: pre.iter().sum::<f64>() / pre.len().max(1) as f64,
        post_mean: post.iter().sum::<f64>() / post.len().max(1) as f64,
    }
}

fn main() {
    let cli = parse_cli(12, &[]);
    banner(
        "Ablation — C4P mechanism ladder",
        "dual-port balance lifts healthy busbw; link elimination removes the \
         flaky-path tax; dynamic rebalance recovers after failures",
    );
    let topo = testbed();
    let mut ecmp = EcmpSelector::new(0xAB1);
    let mut balance = RailLocalSelector::new();
    let mut c4p_static = C4pMaster::new(&topo, C4pConfig { dynamic: false });
    let mut c4p_dynamic = C4pMaster::new(&topo, C4pConfig::default());
    let rows = [
        run_ladder(
            "1. ecmp (no C4P)",
            &cli,
            topo.clone(),
            Selector::Plain(&mut ecmp),
        ),
        run_ladder(
            "2. balance-only",
            &cli,
            topo.clone(),
            Selector::Plain(&mut balance),
        ),
        run_ladder(
            "3. c4p-static",
            &cli,
            topo.clone(),
            Selector::C4p {
                master: &mut c4p_static,
                rebalance: false,
            },
        ),
        run_ladder(
            "4. c4p-dynamic",
            &cli,
            topo,
            Selector::C4p {
                master: &mut c4p_dynamic,
                rebalance: true,
            },
        ),
    ];

    println!(
        "{:<22} {:>18} {:>18}",
        "mechanisms", "healthy (Gbps)", "after failure (Gbps)"
    );
    for r in &rows {
        println!("{:<22} {:>18.1} {:>18.1}", r.name, r.pre_mean, r.post_mean);
    }
    println!();
    println!("reading: rung 2 vs 1 = dual-port balance + spreading;");
    println!("         rung 3 vs 2 = probing/ledger (incl. flaky-link elimination);");
    println!("         rung 4 vs 3 = dynamic rebalance after the failure.");
}
