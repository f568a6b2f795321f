//! Differential harness: C4P's partitioned, multi-threaded
//! `select_batch` must be indistinguishable from calling `select` on every
//! key sequentially — not approximately, **exactly**.
//!
//! `PathChoice` is discrete, so the pin is plain equality, and it covers
//! the master's entire observable decision state:
//!
//! * the returned choices, position by position;
//! * the allocation ledger (count of every link in the topology, plus the
//!   allocation total and tracked-link footprint);
//! * the sticky table (queried per key seen so far);
//! * the cache token (generation bookkeeping).
//!
//! Cases randomize the fabric shape (leaves, spines, parallel uplinks,
//! group count), fault injections between rounds (spine kills, fabric-link
//! kills, degradations), dynamic vs static mode, key populations with
//! duplicates and same-leaf flows, and run every batch at 1, 2 and 4
//! worker threads — the same `C4_THREADS ∈ {1, max}` CI matrix dimension
//! the rest of the workspace pins. The batch threshold is dropped to 1 so
//! the partitioned path is exercised even on small inputs.

use c4::prelude::*;
use proptest::prelude::*;

/// Builds a grouped fabric whose shape is driven by the proptest case:
/// 2-GPU/2-NIC nodes so rails and bonded sides stay meaningful at small
/// scale.
fn build_topo(nodes: usize, spines: usize, uplinks: u8, groups: usize) -> Topology {
    let cfg = ClosConfig {
        nodes,
        gpus_per_node: 2,
        nics_per_node: 2,
        num_leaves: 8,
        num_spines: spines,
        uplinks_per_leaf_spine: uplinks,
        port_gbps: 200.0,
        fabric_gbps: 200.0,
        nvlink_gbps: 362.0,
        pcie_gbps: 400.0,
        wiring: WiringMode::NodeGrouped { groups },
    };
    cfg.validate().expect("valid differential fabric");
    Topology::build(&cfg)
}

/// A random key population: duplicates, same-leaf pairs, mixed rails,
/// QPs (sides), communicators and incarnations all occur.
fn random_keys(topo: &Topology, rng: &mut DetRng, n: usize) -> Vec<FlowKey> {
    let nodes = topo.num_nodes();
    (0..n)
        .map(|_| {
            let src_node = rng.index(nodes);
            let mut dst_node = rng.index(nodes);
            if dst_node == src_node {
                dst_node = (src_node + 1) % nodes;
            }
            let rail = rng.index(2);
            FlowKey {
                src_gpu: topo.gpu_at(NodeId::from_index(src_node), rail),
                dst_gpu: topo.gpu_at(NodeId::from_index(dst_node), rail),
                comm: 1 + rng.index(4) as u64,
                channel: rng.index(6) as u16,
                qp: rng.index(4) as u16,
                incarnation: rng.index(2) as u32,
            }
        })
        .collect()
}

/// Asserts two masters are in the same observable state.
fn assert_masters_agree(
    a: &C4pMaster,
    b: &C4pMaster,
    topo: &Topology,
    keys: &[FlowKey],
    what: &str,
) {
    assert_eq!(
        a.ledger().total_allocations(),
        b.ledger().total_allocations(),
        "{what}: allocation totals"
    );
    assert_eq!(
        a.ledger().tracked_links(),
        b.ledger().tracked_links(),
        "{what}: tracked links"
    );
    for l in 0..topo.num_links() {
        let l = LinkId::from_index(l);
        assert_eq!(
            a.ledger().load(l),
            b.ledger().load(l),
            "{what}: ledger count on {l}"
        );
    }
    for k in keys {
        assert_eq!(a.allocation(k), b.allocation(k), "{what}: sticky for {k:?}");
    }
    assert_eq!(a.cache_token(), b.cache_token(), "{what}: cache token");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batched selection equals sequential selection exactly — choices,
    /// ledger, sticky table — across rounds of faults, rebalances and
    /// repeated keys, at 2 and 4 worker threads.
    #[test]
    fn select_batch_matches_sequential_select(
        nodes in 4usize..10,
        spines in 2usize..5,
        uplinks in 1u8..3,
        groups_pick in 0usize..2,
        dynamic_pick in 0usize..2,
        seed in 0u64..1_000_000,
        rounds in 1usize..4,
    ) {
        let groups = [2usize, 4][groups_pick];
        let dynamic = dynamic_pick == 1;
        let mut topo = build_topo(nodes, spines, uplinks, groups);
        let mut rng = DetRng::seed_from(seed);
        let cfg = C4pConfig { dynamic };

        let mut serial = C4pMaster::new(&topo, cfg);
        let mut batch: Vec<(usize, C4pMaster)> = [2usize, 4]
            .iter()
            .map(|&t| {
                let mut m = C4pMaster::new(&topo, cfg)
                    .with_parallel(ParallelPolicy::with_threads(t));
                m.set_batch_min_keys(1);
                (t, m)
            })
            .collect();

        let mut seen: Vec<FlowKey> = Vec::new();
        for round in 0..rounds {
            // Mutate the fabric between rounds: spine kills, single-link
            // kills, degradations — then (dynamic only, sometimes) let the
            // masters rebalance onto the survivors.
            if round > 0 {
                match rng.index(4) {
                    0 => {
                        let spine = topo.spines()[rng.index(topo.num_spines())];
                        topo.set_spine_up(spine, false);
                    }
                    1 => {
                        let li = rng.index(topo.num_leaves());
                        let si = rng.index(topo.num_spines());
                        let links = topo.fabric_up_links(li, si).to_vec();
                        let victim = links[rng.index(links.len())];
                        topo.link_mut(victim).set_up(false);
                    }
                    2 => {
                        let si = rng.index(topo.num_spines());
                        let li = rng.index(topo.num_leaves());
                        let links = topo.fabric_down_links(si, li).to_vec();
                        let victim = links[rng.index(links.len())];
                        topo.link_mut(victim).set_degradation(0.5);
                    }
                    _ => {
                        // Heal everything (fresh catalog on rebalance).
                        let spines: Vec<SwitchId> = topo.spines().to_vec();
                        for s in spines {
                            topo.set_spine_up(s, true);
                        }
                    }
                }
                if rng.chance(0.5) {
                    serial.rebalance(&topo);
                    for (_, m) in batch.iter_mut() {
                        m.rebalance(&topo);
                    }
                }
            }

            // A key burst with duplicates (sticky hits and re-allocations
            // of dead paths within one batch).
            let burst = 1 + rng.index(120);
            let mut keys = random_keys(&topo, &mut rng, burst);
            if !seen.is_empty() && rng.chance(0.7) {
                // Replay some earlier keys so dead sticky entries get hit.
                for _ in 0..rng.index(20) {
                    keys.push(seen[rng.index(seen.len())]);
                }
            }

            let expected: Vec<PathChoice> =
                keys.iter().map(|k| serial.select(&topo, k)).collect();
            for (threads, m) in batch.iter_mut() {
                let got = m.select_batch(&topo, &keys);
                prop_assert_eq!(
                    &got,
                    &expected,
                    "round {} at {} threads",
                    round,
                    threads
                );
            }
            seen.extend(keys);
            for (threads, m) in &batch {
                assert_masters_agree(
                    m,
                    &serial,
                    &topo,
                    &seen,
                    &format!("round {round} at {threads} threads"),
                );
            }
        }
    }

    /// The engine's batched multi-request planning (one `select_batch`
    /// across all cache misses) drains to bit-identical results whatever
    /// the thread budget, C4P and ECMP alike, with plans cached across
    /// iterations.
    #[test]
    fn concurrent_planning_is_thread_invariant(
        nodes in 2usize..5,
        seed in 0u64..1_000_000,
        c4p_pick in 0usize..2,
    ) {
        let use_c4p = c4p_pick == 1;
        let topo = Topology::build(&ClosConfig::tiny(nodes));
        let devices_of = |first: usize, span: usize| -> Vec<GpuId> {
            (first..first + span)
                .map(NodeId::from_index)
                .flat_map(|n| topo.node(n).gpus.clone())
                .collect()
        };
        let comms: Vec<Communicator> = (0..nodes.min(2))
            .map(|j| {
                Communicator::new(1 + j as u64, devices_of(j, nodes - j), &topo)
                    .expect("valid communicator")
            })
            .collect();

        let run_with = |threads: usize| -> Vec<CollectiveResult> {
            let parallel = ParallelPolicy::with_threads(threads);
            let mut cache = PlanCache::new();
            let mut rng = DetRng::seed_from(seed);
            let mut ecmp;
            let mut c4p;
            let selector: &mut dyn PathSelector = if use_c4p {
                c4p = C4pMaster::new(&topo, C4pConfig::default()).with_parallel(parallel);
                c4p.set_batch_min_keys(1);
                &mut c4p
            } else {
                ecmp = EcmpSelector::new(seed);
                &mut ecmp
            };
            let mut all = Vec::new();
            for it in 0..3u64 {
                let reqs: Vec<CollectiveRequest<'_>> = comms
                    .iter()
                    .map(|comm| CollectiveRequest {
                        comm,
                        seq: it,
                        kind: CollKind::AllReduce,
                        dtype: DataType::Bf16,
                        count: 1024 * 1024,
                        config: CommConfig::default(),
                        start: SimTime::ZERO,
                        rank_ready: None,
                        drain: DrainConfig {
                            parallel,
                            ..DrainConfig::default()
                        },
                    })
                    .collect();
                all.extend(run_concurrent_cached(
                    &topo,
                    &reqs,
                    selector,
                    None,
                    &mut rng,
                    None,
                    Some(&mut cache),
                ));
            }
            all
        };

        let serial = run_with(1);
        for threads in [2usize, 4] {
            let par = run_with(threads);
            prop_assert_eq!(par.len(), serial.len());
            for (a, b) in par.iter().zip(&serial) {
                prop_assert_eq!(a.finished, b.finished, "{} threads", threads);
                prop_assert_eq!(a.qp_outcomes.len(), b.qp_outcomes.len());
                for (x, y) in a.qp_outcomes.iter().zip(&b.qp_outcomes) {
                    prop_assert_eq!(x.key, y.key);
                    prop_assert_eq!(x.bytes, y.bytes);
                    prop_assert_eq!(x.finish, y.finish);
                    prop_assert_eq!(
                        x.mean_rate.as_gbps().to_bits(),
                        y.mean_rate.as_gbps().to_bits()
                    );
                }
            }
        }
    }
}

/// The default `select_batch` (serial loop) and explicit `select` calls
/// agree for the baseline selectors too — the trait contract everything
/// above builds on.
#[test]
fn default_batch_matches_select_for_baselines() {
    let topo = Topology::build(&ClosConfig::testbed_128_grouped(2));
    let mut rng = DetRng::seed_from(99);
    let keys = random_keys(&topo, &mut rng, 64);

    let mut a = EcmpSelector::new(7);
    let mut b = EcmpSelector::new(7);
    let batched = a.select_batch(&topo, &keys);
    let single: Vec<PathChoice> = keys.iter().map(|k| b.select(&topo, k)).collect();
    assert_eq!(batched, single);

    let mut a = RailLocalSelector::new();
    let mut b = RailLocalSelector::new();
    let batched = a.select_batch(&topo, &keys);
    let single: Vec<PathChoice> = keys.iter().map(|k| b.select(&topo, k)).collect();
    assert_eq!(
        batched, single,
        "stateful round-robin must advance identically"
    );
}
