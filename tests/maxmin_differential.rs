//! Differential harness: the incremental max-min machinery must be
//! indistinguishable from the retained from-scratch reference.
//!
//! Three layers are checked:
//!
//! * **Solver** — [`MaxMinState`] (one event-driven seed solve, then a
//!   bottleneck-level worklist per batch of removals) vs [`maxmin::solve`]
//!   (textbook progressive filling), across randomized link tables and the
//!   railed 16k-shaped fabric, through long mutation scripts of flow
//!   removals, single and in same-instant batches — the exact operations
//!   the drain loop feeds it.
//! * **Drain** — [`drain`] (the event-driven engine: completion heap,
//!   changed-flow load/score maintenance, one-pass throttle re-rates,
//!   episodic CNP integration) vs [`drain_reference`] (full capped
//!   re-solve and CNP sum per event), across randomized tiny Clos
//!   topologies, flow populations, fault injections (killed host and
//!   fabric links), DCQCN noise grids, CNP accounting and deadlines — plus
//!   a dedicated noisy-at-scale family on a grouped pod (grid redraws over
//!   a spine-shared giant component, same-size completion batches,
//!   deadlines). Both implement one noise model: every active flow draws
//!   at each `start + k·epoch` grid instant and at no other time, in
//!   ascending flow order. So reports must match and the RNG must land on
//!   the same position (asserted bit-for-bit). On the 16k-shaped fabric,
//!   repeat runs must also be **bit-identical** (a strictly stronger bound
//!   than the 1e-9 the reference comparison allows).
//!
//! The proptest stub samples deterministically per test name, so failures
//! reproduce exactly in CI.

use std::sync::OnceLock;

use c4::prelude::*;
use proptest::prelude::*;

/// Relative 1e-9 agreement (with a 1e-9 absolute floor for values near 0).
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Reference solve over only the live flows of a mutated problem, expanded
/// back to dense flow indexing (removed flows → 0).
fn reference_rates(capacity: &[f64], routes: &[Vec<u32>], alive: &[bool]) -> Vec<f64> {
    let live_routes: Vec<Vec<u32>> = routes
        .iter()
        .zip(alive)
        .filter(|(_, &a)| a)
        .map(|(r, _)| r.clone())
        .collect();
    let live = maxmin::solve(capacity, &live_routes, None);
    let mut out = vec![0.0; routes.len()];
    let mut k = 0;
    for (f, &a) in alive.iter().enumerate() {
        if a {
            out[f] = live[k];
            k += 1;
        }
    }
    out
}

fn assert_rates_agree(incremental: &[f64], reference: &[f64], what: &str) {
    for (f, (&a, &b)) in incremental.iter().zip(reference).enumerate() {
        assert!(
            close(a, b),
            "{what}: flow {f} incremental {a} vs reference {b} (diff {})",
            (a - b).abs()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The incremental solver agrees with the reference after construction
    /// and after every step of a random completion script, over random link
    /// tables and (one case in four) the railed 16k-shaped fabric, whose
    /// spine trunks couple every leaf group.
    #[test]
    fn solver_agrees_across_mutation_scripts(
        n_links in 2usize..24,
        n_flows in 1usize..40,
        seed in 0u64..1_000_000,
        script_len in 1usize..60,
        fabric in 0usize..4,
    ) {
        let mut rng = DetRng::seed_from(seed);
        let (capacity, routes) = if fabric == 0 {
            let topo = railed_16k_topology();
            solver_problem(topo, &railed_16k_specs(topo, seed, 12 + n_flows))
        } else {
            let capacity: Vec<f64> =
                (0..n_links).map(|_| 1.0 + rng.uniform() * 400.0).collect();
            let routes: Vec<Vec<u32>> = (0..n_flows)
                .map(|_| {
                    // 0..4 links; empty routes exercise the unbounded path.
                    let len = rng.index(5);
                    (0..len).map(|_| rng.index(n_links) as u32).collect()
                })
                .collect();
            (capacity, routes)
        };
        let n_flows = routes.len();
        let mut alive = vec![true; n_flows];

        let mut state = MaxMinState::with_flows(&capacity, &routes);
        assert_rates_agree(
            state.rates(),
            &reference_rates(&capacity, &routes, &alive),
            "initial solve",
        );

        for step in 0..script_len {
            // One completion, or a same-instant batch of them, then one
            // refresh. Flows may already be removed.
            let batch = if rng.chance(0.25) { 2 + rng.index(4) } else { 1 };
            for _ in 0..batch {
                let f = rng.index(n_flows);
                state.remove_flow(f);
                alive[f] = false;
            }
            assert_rates_agree(
                state.rates(),
                &reference_rates(&capacity, &routes, &alive),
                &format!("after mutation step {step}"),
            );
        }
    }
}

/// Builds a random flow population over a tiny Clos topology: a mix of
/// intra-node NVLink transfers and ECMP-routed inter-node QPs.
fn random_specs(topo: &Topology, rng: &mut DetRng, n_flows: usize, salt: u64) -> Vec<FlowSpec> {
    let ngpus = topo.num_gpus();
    let mut sel = EcmpSelector::new(salt);
    (0..n_flows)
        .map(|i| {
            let src = GpuId::from_index(rng.index(ngpus));
            let mut dst = GpuId::from_index(rng.index(ngpus));
            if dst == src {
                dst = GpuId::from_index((src.index() + 1) % ngpus);
            }
            let key = FlowKey {
                src_gpu: src,
                dst_gpu: dst,
                comm: 1 + (i as u64 % 4),
                channel: (i % 7) as u16,
                qp: (i % 2) as u16,
                incarnation: 0,
            };
            let route = if topo.gpu(src).node == topo.gpu(dst).node {
                topo.intra_node_route(src, dst)
            } else {
                let choice = sel.select(topo, &key);
                let sp = topo.port_of_gpu(src, choice.src_side);
                let dp = topo.port_of_gpu(dst, choice.dst_side);
                topo.inter_node_route(src, sp, choice.fabric.as_ref(), dp, dst)
            };
            // Sizes span zero-byte edge cases through multi-MiB transfers.
            let bytes = match rng.index(8) {
                0 => ByteSize::ZERO,
                n => ByteSize::from_bytes((1u64 << (14 + 2 * n)) + rng.index(10_000) as u64),
            };
            FlowSpec::new(key, bytes, route)
        })
        .collect()
}

/// `r`'s `link_bytes` expanded to one entry per link of a fabric of
/// `num_links` links, 0 for a link that carried nothing.
fn dense_link_bytes(r: &DrainReport, num_links: usize) -> Vec<f64> {
    let mut dense = vec![0.0; num_links];
    for &(l, b) in r.link_bytes.iter() {
        dense[l.index()] = b;
    }
    dense
}

/// Asserts two drain reports on a fabric of `num_links` links agree within
/// the 1e-9 differential tolerance.
fn assert_reports_agree(inc: &DrainReport, reference: &DrainReport, num_links: usize, what: &str) {
    assert_eq!(inc.outcomes.len(), reference.outcomes.len());
    let secs = |t: SimTime| (t - SimTime::ZERO).as_secs_f64();
    for (f, (a, b)) in inc.outcomes.iter().zip(&reference.outcomes).enumerate() {
        assert_eq!(
            a.completed(),
            b.completed(),
            "{what}: flow {f} completion mismatch"
        );
        if let (Some(x), Some(y)) = (a.finish, b.finish) {
            assert!(
                close(secs(x), secs(y)),
                "{what}: flow {f} finish {x} vs {y}"
            );
        }
        assert!(
            close(a.mean_rate.as_gbps(), b.mean_rate.as_gbps()),
            "{what}: flow {f} mean rate {} vs {}",
            a.mean_rate,
            b.mean_rate
        );
    }
    assert!(
        close(secs(inc.end), secs(reference.end)),
        "{what}: end {} vs {}",
        inc.end,
        reference.end
    );
    assert_eq!(
        inc.congested_flows, reference.congested_flows,
        "{what}: congested flow count"
    );
    let (a, b) = (
        dense_link_bytes(inc, num_links),
        dense_link_bytes(reference, num_links),
    );
    for (l, (&a, &b)) in a.iter().zip(&b).enumerate() {
        assert!(close(a, b), "{what}: link {l} bytes {a} vs {b}");
    }
    for (p, (&a, &b)) in inc
        .cnp_per_port
        .iter()
        .zip(reference.cnp_per_port.iter())
        .enumerate()
    {
        assert!(close(a, b), "{what}: port {p} cnp {a} vs {b}");
    }
}

/// Two runs of the same [`drain`] on a fabric of `num_links` links must
/// produce exactly equal reports — same completion instants, same bytes,
/// same CNP series.
fn assert_reports_identical(
    again: &DrainReport,
    first: &DrainReport,
    num_links: usize,
    what: &str,
) {
    assert_eq!(again.outcomes.len(), first.outcomes.len());
    for (f, (a, b)) in again.outcomes.iter().zip(&first.outcomes).enumerate() {
        assert_eq!(a.finish, b.finish, "{what}: flow {f} finish");
        assert_eq!(a.mean_rate, b.mean_rate, "{what}: flow {f} mean rate");
        assert_eq!(a.min_rate, b.min_rate, "{what}: flow {f} min rate");
        assert_eq!(a.max_rate, b.max_rate, "{what}: flow {f} max rate");
    }
    assert_eq!(again.end, first.end, "{what}: end");
    assert_eq!(
        again.congested_flows, first.congested_flows,
        "{what}: congested flows"
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&dense_link_bytes(again, num_links)),
        bits(&dense_link_bytes(first, num_links)),
        "{what}: link bytes"
    );
    assert_eq!(
        bits(&again.cnp_per_port),
        bits(&first.cnp_per_port),
        "{what}: cnp per port"
    );
}

/// A random drain problem: `n_flows` [`random_specs`] flows on a tiny Clos
/// fabric of `nodes` nodes with `kill_links` route links killed or
/// degraded, under noise kind `noise_kind` (none, 10 %, CNP, 25 % with CNP)
/// and a deadline of `10^deadline_ms` ms (0: none).
fn random_drain_problem(
    nodes: usize,
    n_flows: usize,
    seed: u64,
    noise_kind: usize,
    kill_links: usize,
    deadline_ms: u64,
) -> (Topology, Vec<FlowSpec>, DrainConfig) {
    let mut topo = Topology::build(&ClosConfig::tiny(nodes));
    let mut rng = DetRng::seed_from(seed);
    let specs = random_specs(&topo, &mut rng, n_flows, seed ^ 0xD1FF);

    // Fault injection: kill random links that flows actually cross, so
    // stalls and partial-capacity paths are exercised.
    for k in 0..kill_links {
        let victim = &specs[rng.index(specs.len())];
        if victim.route.is_empty() {
            continue;
        }
        let l = victim.route[rng.index(victim.route.len())];
        // Alternate between fully dead and degraded links.
        if k % 2 == 0 {
            topo.link_mut(l).set_up(false);
        } else {
            topo.link_mut(l).set_degradation(0.25);
        }
    }

    let cfg = DrainConfig {
        start: SimTime::ZERO,
        // Deadlines from "immediately" to "after every completion"; 0 means
        // no deadline.
        deadline: (deadline_ms > 0)
            .then(|| SimTime::ZERO + SimDuration::from_millis(10u64.pow(deadline_ms as u32))),
        epoch: SimDuration::from_micros(500),
        rate_noise: [0.0, 0.1, 0.0, 0.25][noise_kind],
        cnp: (noise_kind >= 2).then(CnpModel::paper_default),
        ..DrainConfig::default()
    };
    (topo, specs, cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incremental and reference drains agree over random topologies, flow
    /// populations, fault injections, noise epochs and deadlines.
    #[test]
    fn drain_agrees_with_reference(
        nodes in 2usize..5,
        n_flows in 1usize..28,
        seed in 0u64..1_000_000,
        noise_kind in 0usize..4,
        kill_links in 0usize..3,
        deadline_ms in 0u64..4,
    ) {
        let (topo, specs, cfg) =
            random_drain_problem(nodes, n_flows, seed, noise_kind, kill_links, deadline_ms);
        let mut rng_a = DetRng::seed_from(seed ^ 0xAAAA);
        let mut rng_b = DetRng::seed_from(seed ^ 0xAAAA);
        let inc = drain(&topo, &specs, &cfg, &mut rng_a);
        let reference = drain_reference(&topo, &specs, &cfg, &mut rng_b);
        assert_reports_agree(&inc, &reference, topo.num_links(), "random drain");

        // The incremental drain must leave the RNG exactly where the
        // reference left its own — identical consumption order.
        assert_eq!(
            rng_a.uniform().to_bits(),
            rng_b.uniform().to_bits(),
            "drain must consume the RNG in exactly the reference's order"
        );
    }

    /// A report's `link_bytes` lists exactly the links that carried bytes:
    /// ascending by id, with no zero entry, every route link of a completed
    /// flow with bytes and no link off every route. Expanded to one entry
    /// per link, both drains' tables agree within the differential
    /// tolerance, and `bytes_on` reads that expansion.
    #[test]
    fn link_bytes_list_exactly_the_links_that_carried_bytes(
        nodes in 2usize..5,
        n_flows in 1usize..28,
        seed in 0u64..1_000_000,
        noise_kind in 0usize..4,
        kill_links in 0usize..3,
        deadline_ms in 0u64..4,
    ) {
        let (topo, specs, cfg) =
            random_drain_problem(nodes, n_flows, seed, noise_kind, kill_links, deadline_ms);
        let inc = drain(&topo, &specs, &cfg, &mut DetRng::seed_from(seed));
        let reference = drain_reference(&topo, &specs, &cfg, &mut DetRng::seed_from(seed));
        let mut on_route = vec![false; topo.num_links()];
        for s in &specs {
            for &l in s.route.iter() {
                on_route[l.index()] = true;
            }
        }
        for (what, r) in [("drain", &inc), ("reference", &reference)] {
            let table = &r.link_bytes;
            assert!(table.windows(2).all(|w| w[0].0 < w[1].0), "{what}: ascending");
            assert!(table.iter().all(|&(_, b)| b != 0.0), "{what}: a zero entry");
            assert!(table.iter().all(|&(l, _)| on_route[l.index()]), "{what}: off-route link");
            for (s, o) in specs.iter().zip(&r.outcomes) {
                if o.completed() && s.bytes.as_bytes() > 0 {
                    assert!(s.route.iter().all(|&l| r.bytes_on(l) > 0.0), "{what}: route link missing");
                }
            }
            let dense = dense_link_bytes(r, topo.num_links());
            for (l, &b) in dense.iter().enumerate() {
                assert_eq!(r.bytes_on(LinkId::from_index(l)).to_bits(), b.to_bits(), "{what}: link {l}");
            }
        }
        let (a, b) = (
            dense_link_bytes(&inc, topo.num_links()),
            dense_link_bytes(&reference, topo.num_links()),
        );
        for (l, (&a, &b)) in a.iter().zip(&b).enumerate() {
            assert!(close(a, b), "link {l} bytes {a} vs {b}");
        }
    }

    /// The exact shared-fabric shape the collective engine produces: many
    /// same-sized flows completing in clustered groups under noise, the
    /// worst case for event-ordering divergence.
    #[test]
    fn drain_agrees_on_collective_shaped_populations(
        nodes in 2usize..5,
        seed in 0u64..1_000_000,
    ) {
        let topo = Topology::build(&ClosConfig::tiny(nodes));
        let mut rng = DetRng::seed_from(seed);
        // One "ring": every node boundary gets 2 QPs of identical size.
        let mut sel = EcmpSelector::new(seed);
        let mut specs = Vec::new();
        for n in 0..nodes {
            let src = topo.gpu_at(NodeId::from_index(n), 0);
            let dst = topo.gpu_at(NodeId::from_index((n + 1) % nodes), 0);
            if topo.gpu(src).node == topo.gpu(dst).node {
                continue;
            }
            for qp in 0..2u16 {
                let key = FlowKey {
                    src_gpu: src,
                    dst_gpu: dst,
                    comm: 9,
                    channel: n as u16,
                    qp,
                    incarnation: 0,
                };
                let choice = sel.select(&topo, &key);
                let sp = topo.port_of_gpu(src, choice.src_side);
                let dp = topo.port_of_gpu(dst, choice.dst_side);
                let route = topo.inter_node_route(src, sp, choice.fabric.as_ref(), dp, dst);
                specs.push(FlowSpec::new(key, ByteSize::from_mib(64), route));
            }
        }
        prop_assume!(!specs.is_empty());
        let cfg = DrainConfig {
            rate_noise: 0.15,
            cnp: Some(CnpModel::paper_default()),
            epoch: SimDuration::from_micros(200 + rng.index(2000) as u64),
            ..DrainConfig::default()
        };
        let mut rng_a = DetRng::seed_from(seed ^ 0xBBBB);
        let mut rng_b = DetRng::seed_from(seed ^ 0xBBBB);
        let inc = drain(&topo, &specs, &cfg, &mut rng_a);
        let reference = drain_reference(&topo, &specs, &cfg, &mut rng_b);
        assert_reports_agree(&inc, &reference, topo.num_links(), "collective-shaped drain");
    }
}

/// Builds the noisy-at-scale worst case on a grouped pod: cross-group QP
/// pairs of identical size (same-instant completion batches), a sprinkle
/// of differently-sized and zero-byte flows, all contending on the spine.
fn grouped_pod_specs(topo: &Topology, seed: u64, streams: usize) -> Vec<FlowSpec> {
    let mut sel = EcmpSelector::new(seed ^ 0x5CA1E);
    let mut rng = DetRng::seed_from(seed);
    let nodes = topo.num_nodes();
    let mut specs = Vec::new();
    for s in 0..streams {
        // Source in group 0's half, destination in group 1's half, so every
        // stream crosses the spine layer (the giant shared component).
        let src = topo.gpu_at(NodeId::from_index(s % (nodes / 2)), s % 8);
        let dst = topo.gpu_at(
            NodeId::from_index(nodes / 2 + (s * 3) % (nodes / 2)),
            (s / 2) % 8,
        );
        let bytes = match s % 7 {
            // Mostly identical sizes: completions land in batches.
            0..=4 => ByteSize::from_mib(64),
            5 => ByteSize::from_mib(24 + (rng.index(8) as u64)),
            _ => ByteSize::ZERO,
        };
        for qp in 0..2u16 {
            let key = FlowKey {
                src_gpu: src,
                dst_gpu: dst,
                comm: 1 + (s % 8) as u64,
                channel: s as u16,
                qp,
                incarnation: 0,
            };
            let choice = sel.select(topo, &key);
            let sp = topo.port_of_gpu(src, choice.src_side);
            let dp = topo.port_of_gpu(dst, choice.dst_side);
            let route = topo.inter_node_route(src, sp, choice.fabric.as_ref(), dp, dst);
            specs.push(FlowSpec::new(key, bytes, route));
        }
    }
    specs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Noisy-at-scale: the exact regime the event-driven engine was built
    /// for — grid redraws over a giant spine-shared component, same-size
    /// completion batches, and deadlines — pinned against the reference at
    /// 1e-9 with identical RNG consumption.
    #[test]
    fn drain_agrees_at_scale_under_noise_epochs_and_batches(
        seed in 0u64..1_000_000,
        streams in 8usize..48,
        noise_kind in 0usize..3,
        deadline_case in 0usize..3,
    ) {
        let topo = Topology::build(&ClosConfig::pod_grouped(16, 2));
        let specs = grouped_pod_specs(&topo, seed, streams);
        let cfg = DrainConfig {
            start: SimTime::ZERO,
            // Deadlines from "cuts the drain mid-flight" to "after every
            // completion"; 0 = none.
            deadline: (deadline_case > 0).then(|| {
                SimTime::ZERO + SimDuration::from_millis(4u64.pow(deadline_case as u32 + 1))
            }),
            // Epochs short enough that every drain redraws many times.
            epoch: SimDuration::from_micros(400),
            rate_noise: [0.04, 0.10, 0.25][noise_kind],
            cnp: Some(CnpModel::paper_default()),
            ..DrainConfig::default()
        };
        let mut rng_a = DetRng::seed_from(seed ^ 0xCCCC);
        let mut rng_b = DetRng::seed_from(seed ^ 0xCCCC);
        let inc = drain(&topo, &specs, &cfg, &mut rng_a);
        let reference = drain_reference(&topo, &specs, &cfg, &mut rng_b);
        assert_reports_agree(&inc, &reference, topo.num_links(), "noisy-at-scale drain");
        assert_eq!(
            rng_a.uniform().to_bits(),
            rng_b.uniform().to_bits(),
            "noisy-at-scale drain must match the reference's RNG position"
        );
    }
}

/// Builds a flow population spread over every leaf group of a 16k-shaped
/// railed fabric: cross-group QP pairs in identical-size batches plus a
/// sprinkle of odd sizes and zero-byte flows, so the spine trunks form the
/// giant component and completions land in same-instant batches.
fn railed_16k_specs(topo: &Topology, seed: u64, streams: usize) -> Vec<FlowSpec> {
    let mut sel = EcmpSelector::new(seed ^ 0x16_000);
    let mut rng = DetRng::seed_from(seed);
    let nodes = topo.num_nodes();
    let mut specs = Vec::new();
    for s in 0..streams {
        // Source and destination stride through all 8 groups (node blocks),
        // so streams cross the spine layer in every direction.
        let src = topo.gpu_at(NodeId::from_index((s * 131) % nodes), s % 8);
        let dst_node = (s * 257 + nodes / 2) % nodes;
        let dst = topo.gpu_at(
            NodeId::from_index(if dst_node == (s * 131) % nodes {
                (dst_node + 1) % nodes
            } else {
                dst_node
            }),
            (s / 3) % 8,
        );
        let bytes = match s % 7 {
            0..=4 => ByteSize::from_mib(64),
            5 => ByteSize::from_mib(24 + (rng.index(8) as u64)),
            _ => ByteSize::ZERO,
        };
        for qp in 0..2u16 {
            let key = FlowKey {
                src_gpu: src,
                dst_gpu: dst,
                comm: 1 + (s % 8) as u64,
                channel: s as u16,
                qp,
                incarnation: 0,
            };
            let choice = sel.select(topo, &key);
            let sp = topo.port_of_gpu(src, choice.src_side);
            let dp = topo.port_of_gpu(dst, choice.dst_side);
            let route = topo.inter_node_route(src, sp, choice.fabric.as_ref(), dp, dst);
            specs.push(FlowSpec::new(key, bytes, route));
        }
    }
    specs
}

/// The 16384-GPU `pod_grouped_railed` fabric the solver scripts run on,
/// built once: its link table does not depend on the sampled flows.
fn railed_16k_topology() -> &'static Topology {
    static TOPO: OnceLock<Topology> = OnceLock::new();
    TOPO.get_or_init(|| Topology::build(&ClosConfig::pod_grouped_railed(2048, 8)))
}

/// A flow population as a solver problem: the topology's full link
/// capacity table and each spec's route as link indices.
fn solver_problem(topo: &Topology, specs: &[FlowSpec]) -> (Vec<f64>, Vec<Vec<u32>>) {
    let capacity = (0..topo.num_links())
        .map(|l| {
            topo.link(LinkId::from_index(l))
                .capacity()
                .as_bytes_per_sec()
        })
        .collect();
    let routes = specs
        .iter()
        .map(|s| s.route.iter().map(|l| l.index() as u32).collect())
        .collect();
    (capacity, routes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The solver at the 16k shape: drains on the 16384-GPU
    /// `pod_grouped_railed` fabric (128 rail-dense leaves, wide spine
    /// trunks) with noise epochs, same-size completion batches and killed
    /// links — completions propagate through the worklist across the spine
    /// and dead links pin their flows at zero. Incremental == reference at
    /// 1e-9 with identical RNG consumption; a repeat run is bit-identical,
    /// the worklist (not a re-seed) carries the completions, and a healthy
    /// fabric drains every flow.
    #[test]
    fn drain_agrees_on_16k_shaped_railed_fabric(
        seed in 0u64..1_000_000,
        streams in 12usize..40,
        noise_kind in 0usize..3,
        kill_links in 0usize..3,
    ) {
        let mut topo = Topology::build(&ClosConfig::pod_grouped_railed(2048, 8));
        let specs = railed_16k_specs(&topo, seed, streams);
        prop_assume!(!specs.is_empty());

        // Kill links flows actually cross: flows over a dead link stall
        // while the survivors keep draining around them.
        let mut rng = DetRng::seed_from(seed ^ 0xDEAD);
        for k in 0..kill_links {
            let victim = &specs[rng.index(specs.len())];
            if victim.route.is_empty() {
                continue;
            }
            let l = victim.route[rng.index(victim.route.len())];
            if k % 2 == 0 {
                topo.link_mut(l).set_up(false);
            } else {
                topo.link_mut(l).set_degradation(0.25);
            }
        }

        let cfg = DrainConfig {
            start: SimTime::ZERO,
            deadline: None,
            epoch: SimDuration::from_micros(400),
            rate_noise: [0.04, 0.10, 0.25][noise_kind],
            cnp: Some(CnpModel::paper_default()),
            ..DrainConfig::default()
        };
        let mut rng_a = DetRng::seed_from(seed ^ 0x16AA);
        let mut rng_b = DetRng::seed_from(seed ^ 0x16AA);
        let inc = drain(&topo, &specs, &cfg, &mut rng_a);
        let reference = drain_reference(&topo, &specs, &cfg, &mut rng_b);
        assert_reports_agree(&inc, &reference, topo.num_links(), "16k-shaped drain");
        assert_eq!(
            rng_a.uniform().to_bits(),
            rng_b.uniform().to_bits(),
            "16k-shaped drain must match the reference's RNG position"
        );

        let again = drain(&topo, &specs, &cfg, &mut DetRng::seed_from(seed ^ 0x16AA));
        assert_reports_identical(&again, &inc, topo.num_links(), "16k-shaped repeat run");
        if inc.solver.events >= 3 {
            assert!(
                inc.solver.sparse_solves >= 1,
                "16k-shaped drain never took the sparse path: {:?}",
                inc.solver
            );
        }
        if kill_links == 0 {
            assert!(inc.all_completed(), "a healthy fabric drains every flow");
        }
    }
}

/// A deterministic end-to-end spot check through the collective engine: the
/// engine's own drains (which now run incrementally) reproduce the
/// reference solver's allocation for a full allreduce flow set.
#[test]
fn engine_flows_agree_with_reference_end_to_end() {
    let topo = Topology::build(&ClosConfig::tiny(3));
    let devices: Vec<GpuId> = topo.gpus().iter().map(|g| g.id).collect();
    let comm = Communicator::new(1, devices, &topo).expect("valid communicator");
    let req = CollectiveRequest {
        comm: &comm,
        seq: 0,
        kind: CollKind::AllReduce,
        dtype: DataType::Bf16,
        count: 4 * 1024 * 1024,
        config: CommConfig::default(),
        start: SimTime::ZERO,
        rank_ready: None,
        drain: DrainConfig {
            rate_noise: 0.1,
            cnp: Some(CnpModel::paper_default()),
            ..DrainConfig::default()
        },
    };
    let mut sel = EcmpSelector::new(3);
    let mut rng = DetRng::seed_from(11);
    let result = run_collective(&topo, &req, &mut sel, None, &mut rng, None);
    assert!(!result.hung());

    // Rebuild the same flow set and compare both drain implementations.
    let specs: Vec<FlowSpec> = result
        .intra_outcomes
        .iter()
        .chain(&result.qp_outcomes)
        .map(|o| {
            let src = o.key.src_gpu;
            let dst = o.key.dst_gpu;
            let route = if topo.gpu(src).node == topo.gpu(dst).node {
                topo.intra_node_route(src, dst)
            } else {
                let mut sel = EcmpSelector::new(3);
                let choice = sel.select(&topo, &o.key);
                let sp = topo.port_of_gpu(src, choice.src_side);
                let dp = topo.port_of_gpu(dst, choice.dst_side);
                topo.inter_node_route(src, sp, choice.fabric.as_ref(), dp, dst)
            };
            FlowSpec::new(o.key, o.bytes, route)
        })
        .collect();
    let cfg = req.drain.clone();
    let mut rng_a = DetRng::seed_from(42);
    let mut rng_b = DetRng::seed_from(42);
    let inc = drain(&topo, &specs, &cfg, &mut rng_a);
    let reference = drain_reference(&topo, &specs, &cfg, &mut rng_b);
    assert_reports_agree(
        &inc,
        &reference,
        topo.num_links(),
        "engine allreduce flow set",
    );
}

/// Builds fully pod-disjoint "jobs": per selected node, two equal-size QPs
/// over the same intra-node NVLink route. Jobs on different nodes share no
/// links at all, so each is its own connected component — and equal sizes make
/// their completions land at exactly the same instant across components.
fn disjoint_pod_specs(topo: &Topology, jobs: usize) -> Vec<FlowSpec> {
    let mut specs = Vec::new();
    for j in 0..jobs {
        let src = topo.gpu_at(NodeId::from_index(j), 0);
        let dst = topo.gpu_at(NodeId::from_index(j), 1);
        let route = topo.intra_node_route(src, dst);
        // Two size classes → two distinct cross-component batch instants.
        let bytes = if j % 2 == 0 {
            ByteSize::from_mib(64)
        } else {
            ByteSize::from_mib(32)
        };
        for qp in 0..2u16 {
            let key = FlowKey {
                src_gpu: src,
                dst_gpu: dst,
                comm: 1 + j as u64,
                channel: j as u16,
                qp,
                incarnation: 0,
            };
            specs.push(FlowSpec::new(key, bytes, route.clone()));
        }
    }
    specs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cross-component same-instant batching: disjoint-pod jobs with
    /// equal-size flows complete at one instant in *different* components,
    /// and the completion step must batch all of their removals into one
    /// re-solve. Pinned two ways: drain == reference rates and RNG position
    /// bit-for-bit — plus, on the noiseless cases, the solver stats must
    /// show the batches actually formed.
    #[test]
    fn drain_batches_same_instant_completions_across_components(
        jobs in 4usize..13,
        seed in 0u64..1_000_000,
        noise_kind in 0usize..3,
    ) {
        let topo = Topology::build(&ClosConfig::pod_grouped(16, 2));
        let specs = disjoint_pod_specs(&topo, jobs);
        let cfg = DrainConfig {
            epoch: SimDuration::from_micros(500),
            rate_noise: [0.0, 0.1, 0.25][noise_kind],
            cnp: (noise_kind > 0).then(CnpModel::paper_default),
            ..DrainConfig::default()
        };
        let mut rng_a = DetRng::seed_from(seed ^ 0xBA7C);
        let mut rng_b = DetRng::seed_from(seed ^ 0xBA7C);
        let inc = drain(&topo, &specs, &cfg, &mut rng_a);
        let reference = drain_reference(&topo, &specs, &cfg, &mut rng_b);
        assert_reports_agree(&inc, &reference, topo.num_links(), "disjoint-pod batched drain");
        assert_eq!(
            rng_a.uniform().to_bits(),
            rng_b.uniform().to_bits(),
            "batched drain must consume the RNG in exactly the reference's order"
        );

        if noise_kind == 0 {
            // Without noise every job of a size class completes at the same
            // instant: two classes → exactly two batched instants covering
            // all but one completion each.
            assert_eq!(
                inc.solver.batched_instants, 2,
                "expected both size-class completion waves to batch: {:?}",
                inc.solver
            );
            assert_eq!(
                inc.solver.batched_completions,
                (2 * jobs - 2) as u64,
                "every completion but one per wave rides a batch: {:?}",
                inc.solver
            );
        }
    }
}
