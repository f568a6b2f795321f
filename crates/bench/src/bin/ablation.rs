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

use c4::prelude::*;
use c4::scenarios::benchmark_request;
use c4_bench::{banner, parse_cli};

struct Outcome {
    name: &'static str,
    pre_mean: f64,
    post_mean: f64,
}

fn run_ladder(
    name: &'static str,
    seed: u64,
    iters: usize,
    fail_at: usize,
    make: impl Fn(&Topology) -> Box<dyn FnMut(&Topology, &FlowKey) -> PathChoice>,
    dynamic_master: bool,
) -> Outcome {
    // Grouped trunked testbed with a pre-degraded (flapping) uplink.
    let mut topo = Topology::build(&ClosConfig::testbed_128_grouped(2).trunked());
    let flaky = topo.fabric_up_links(1, 5)[0];
    topo.link_mut(flaky).set_degradation(0.6);

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
    let mut rng = DetRng::seed_from(seed);
    let mut select = make(&topo);

    struct Shim<'a>(&'a mut dyn FnMut(&Topology, &FlowKey) -> PathChoice);
    impl PathSelector for Shim<'_> {
        fn select(&mut self, topo: &Topology, key: &FlowKey) -> PathChoice {
            (self.0)(topo, key)
        }
        fn name(&self) -> &'static str {
            "ablation-shim"
        }
    }

    let mut pre = Vec::new();
    let mut post = Vec::new();
    for it in 0..iters {
        if it == fail_at {
            let spine = topo.spines()[0];
            topo.set_spine_up(spine, false);
            if dynamic_master {
                // The dynamic rung re-probes; rebuild its closure.
                select = make(&topo);
            }
        }
        let reqs: Vec<CollectiveRequest<'_>> = jobs
            .iter()
            .map(|c| benchmark_request(c, it as u64, drain.clone()))
            .collect();
        let mut shim = Shim(&mut *select);
        let results = run_concurrent(&topo, &reqs, &mut shim, None, &mut rng, None);
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
    let cli = parse_cli(12);
    banner(
        "Ablation — C4P mechanism ladder",
        "dual-port balance lifts healthy busbw; link elimination removes the \
         flaky-path tax; dynamic rebalance recovers after failures",
    );
    let fail_at = cli.iters / 2;
    let mut rows = Vec::new();

    rows.push(run_ladder(
        "1. ecmp (no C4P)",
        cli.seed,
        cli.iters,
        fail_at,
        |_| {
            let mut sel = EcmpSelector::new(0xAB1);
            Box::new(move |t, k| sel.select(t, k))
        },
        false,
    ));
    rows.push(run_ladder(
        "2. balance-only",
        cli.seed,
        cli.iters,
        fail_at,
        |_| {
            let mut sel = RailLocalSelector::new();
            Box::new(move |t, k| sel.select(t, k))
        },
        false,
    ));
    rows.push(run_ladder(
        "3. c4p-static",
        cli.seed,
        cli.iters,
        fail_at,
        |topo| {
            let mut m = C4pMaster::new(topo, C4pConfig { dynamic: false });
            Box::new(move |t, k| m.select(t, k))
        },
        false,
    ));
    rows.push(run_ladder(
        "4. c4p-dynamic",
        cli.seed,
        cli.iters,
        fail_at,
        |topo| {
            let mut m = C4pMaster::new(topo, C4pConfig::default());
            Box::new(move |t, k| m.select(t, k))
        },
        true,
    ));

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
