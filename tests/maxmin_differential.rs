//! Differential harness: the incremental max-min machinery must be
//! indistinguishable from the retained from-scratch reference.
//!
//! Three layers are checked:
//!
//! * **Solver** — [`MaxMinState`] (persistent, component-partitioned,
//!   event-driven kernel) vs [`maxmin::solve`] (textbook progressive
//!   filling), across randomized link tables, route sets, cap tables and
//!   long mutation scripts of flow removals, cap perturbations and link
//!   capacity changes — the exact operations the drain loop feeds it.
//! * **Drain** — [`drain`] (the event-driven engine: completion heap,
//!   dirty-component load/score maintenance, one-pass throttle re-rates,
//!   episodic CNP integration) vs [`drain_reference`] (full capped
//!   re-solve and CNP sum per event), across randomized tiny Clos
//!   topologies, flow populations, fault injections (killed host and
//!   fabric links), DCQCN noise grids, CNP accounting and deadlines — plus
//!   a dedicated noisy-at-scale family on a grouped pod (grid redraws over
//!   a spine-shared giant component, same-size completion batches,
//!   deadlines). Both implement one noise model: every active flow draws
//!   at each `start + k·epoch` grid instant and at no other time, in
//!   ascending flow order. So reports must match and the RNG must land on
//!   the same position (asserted bit-for-bit).
//! * **Parallel determinism** — every solver case also runs 2- and
//!   4-thread [`MaxMinState`]s through the same mutation script, and every
//!   drain case re-runs [`drain`] under 2- and 4-thread policies. Worker
//!   results merge in component-index order, so the parallel path must be
//!   **bit-identical** to the serial one (a strictly stronger bound than
//!   the 1e-9 the reference comparison allows).
//!
//! The proptest stub samples deterministically per test name, so failures
//! reproduce exactly in CI.

use c4::prelude::*;
use proptest::prelude::*;

/// Relative 1e-9 agreement (with a 1e-9 absolute floor for values near 0).
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Reference solve over only the live flows of a mutated problem, expanded
/// back to dense flow indexing (removed flows → 0).
fn reference_rates(
    capacity: &[f64],
    routes: &[Vec<u32>],
    caps: &[f64],
    alive: &[bool],
) -> Vec<f64> {
    let live_routes: Vec<Vec<u32>> = routes
        .iter()
        .zip(alive)
        .filter(|(_, &a)| a)
        .map(|(r, _)| r.clone())
        .collect();
    let live_caps: Vec<f64> = caps
        .iter()
        .zip(alive)
        .filter(|(_, &a)| a)
        .map(|(c, _)| *c)
        .collect();
    let live = maxmin::solve(capacity, &live_routes, Some(&live_caps));
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

/// Parallel vs serial must agree on every bit, not merely within 1e-9:
/// each component's rates are the same pure function either way, merged in
/// component-index order.
fn assert_rates_bit_identical(parallel: &[f64], serial: &[f64], what: &str) {
    for (f, (&a, &b)) in parallel.iter().zip(serial).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: flow {f} parallel {a} vs serial {b}"
        );
    }
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
    /// and after every step of a random mutation script.
    #[test]
    fn solver_agrees_across_mutation_scripts(
        n_links in 2usize..24,
        n_flows in 1usize..40,
        seed in 0u64..1_000_000,
        script_len in 1usize..60,
    ) {
        let mut rng = DetRng::seed_from(seed);
        let capacity: Vec<f64> =
            (0..n_links).map(|_| 1.0 + rng.uniform() * 400.0).collect();
        let routes: Vec<Vec<u32>> = (0..n_flows)
            .map(|_| {
                // 0..4 links; empty routes exercise the unbounded path.
                let len = rng.index(5);
                (0..len).map(|_| rng.index(n_links) as u32).collect()
            })
            .collect();
        let mut caps: Vec<f64> = (0..n_flows)
            .map(|_| {
                if rng.chance(0.3) {
                    rng.uniform() * 300.0
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let mut alive = vec![true; n_flows];
        let mut capacity_now = capacity.clone();

        let mut state = MaxMinState::with_flows(&capacity, &routes, Some(&caps))
            .with_parallel(ParallelPolicy::SERIAL);
        // The same problem at 2 and 4 threads, fed the identical mutation
        // script: results must be bit-identical to the serial state.
        let mut par_states: Vec<MaxMinState> = [2usize, 4]
            .iter()
            .map(|&t| {
                MaxMinState::with_flows(&capacity, &routes, Some(&caps))
                    .with_parallel(ParallelPolicy::with_threads(t))
            })
            .collect();
        assert_rates_agree(
            state.rates(),
            &reference_rates(&capacity_now, &routes, &caps, &alive),
            "initial solve",
        );
        for p in par_states.iter_mut() {
            let threads = p.parallel().threads();
            assert_rates_bit_identical(
                p.rates(),
                state.rates(),
                &format!("initial solve at {threads} threads"),
            );
        }

        for step in 0..script_len {
            match rng.index(4) {
                0 => {
                    // Remove a (possibly already removed) flow.
                    let f = rng.index(n_flows);
                    state.remove_flow(f);
                    for p in par_states.iter_mut() {
                        p.remove_flow(f);
                    }
                    alive[f] = false;
                }
                1 => {
                    // Perturb a flow's cap (noise epoch).
                    let f = rng.index(n_flows);
                    let cap = if rng.chance(0.2) {
                        f64::INFINITY
                    } else {
                        rng.uniform() * 300.0
                    };
                    state.rate_perturb(f, cap);
                    for p in par_states.iter_mut() {
                        p.rate_perturb(f, cap);
                    }
                    if alive[f] {
                        caps[f] = cap;
                    }
                }
                2 => {
                    // Change a link capacity (degradation / failure / heal).
                    let l = rng.index(n_links);
                    let c = if rng.chance(0.2) {
                        0.0
                    } else {
                        1.0 + rng.uniform() * 400.0
                    };
                    state.link_change(l, c);
                    for p in par_states.iter_mut() {
                        p.link_change(l, c);
                    }
                    capacity_now[l] = c;
                }
                _ => {
                    // Burst: perturb many caps at once, forcing the
                    // full-solve fallback path.
                    for f in 0..n_flows {
                        if rng.chance(0.7) {
                            let cap = rng.uniform() * 300.0;
                            state.rate_perturb(f, cap);
                            for p in par_states.iter_mut() {
                                p.rate_perturb(f, cap);
                            }
                            if alive[f] {
                                caps[f] = cap;
                            }
                        }
                    }
                }
            }
            assert_rates_agree(
                state.rates(),
                &reference_rates(&capacity_now, &routes, &caps, &alive),
                &format!("after mutation step {step}"),
            );
            let serial_now = state.rates().to_vec();
            for p in par_states.iter_mut() {
                let threads = p.parallel().threads();
                assert_rates_bit_identical(
                    p.rates(),
                    &serial_now,
                    &format!("after mutation step {step} at {threads} threads"),
                );
            }
        }
    }

    /// Adding flows mid-flight (a new collective joining the network) keeps
    /// the state in agreement.
    #[test]
    fn solver_agrees_after_flow_additions(
        n_links in 2usize..16,
        seed in 0u64..1_000_000,
        batches in 1usize..6,
    ) {
        let mut rng = DetRng::seed_from(seed);
        let capacity: Vec<f64> =
            (0..n_links).map(|_| 1.0 + rng.uniform() * 400.0).collect();
        let mut state = MaxMinState::new(&capacity).with_parallel(ParallelPolicy::SERIAL);
        let mut par_states: Vec<MaxMinState> = [2usize, 4]
            .iter()
            .map(|&t| MaxMinState::new(&capacity).with_parallel(ParallelPolicy::with_threads(t)))
            .collect();
        let mut routes: Vec<Vec<u32>> = Vec::new();
        let mut caps: Vec<f64> = Vec::new();
        for _ in 0..batches {
            for _ in 0..1 + rng.index(8) {
                let len = 1 + rng.index(4);
                let route: Vec<u32> =
                    (0..len).map(|_| rng.index(n_links) as u32).collect();
                let cap = if rng.chance(0.25) {
                    rng.uniform() * 200.0
                } else {
                    f64::INFINITY
                };
                state.add_flow(&route, cap);
                for p in par_states.iter_mut() {
                    p.add_flow(&route, cap);
                }
                routes.push(route);
                caps.push(cap);
            }
            let alive = vec![true; routes.len()];
            assert_rates_agree(
                state.rates(),
                &reference_rates(&capacity, &routes, &caps, &alive),
                "after addition batch",
            );
            let serial_now = state.rates().to_vec();
            for p in par_states.iter_mut() {
                let threads = p.parallel().threads();
                assert_rates_bit_identical(
                    p.rates(),
                    &serial_now,
                    &format!("after addition batch at {threads} threads"),
                );
            }
            // Interleave a removal so additions mix with removals across
            // partition rebuilds. The mirror models the removed slot as an
            // empty-route, zero-cap flow, which the reference also pins to
            // rate 0 — matching the state's removed-flow convention.
            if !routes.is_empty() && rng.chance(0.5) {
                let f = rng.index(routes.len());
                state.remove_flow(f);
                for p in par_states.iter_mut() {
                    p.remove_flow(f);
                }
                routes[f] = Vec::new();
                caps[f] = 0.0;
                let alive = vec![true; routes.len()];
                assert_rates_agree(
                    state.rates(),
                    &reference_rates(&capacity, &routes, &caps, &alive),
                    "after interleaved removal",
                );
                let serial_now = state.rates().to_vec();
                for p in par_states.iter_mut() {
                    let threads = p.parallel().threads();
                    assert_rates_bit_identical(
                        p.rates(),
                        &serial_now,
                        &format!("after interleaved removal at {threads} threads"),
                    );
                }
            }
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

/// Asserts two drain reports agree within the 1e-9 differential tolerance.
fn assert_reports_agree(inc: &DrainReport, reference: &DrainReport, what: &str) {
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
    for (l, (&a, &b)) in inc
        .link_bytes
        .iter()
        .zip(reference.link_bytes.iter())
        .enumerate()
    {
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

/// Two [`drain`] reports produced under different thread policies must be
/// exactly equal — same completion instants, same bytes, same CNP series.
fn assert_reports_identical(parallel: &DrainReport, serial: &DrainReport, what: &str) {
    assert_eq!(parallel.outcomes.len(), serial.outcomes.len());
    for (f, (a, b)) in parallel.outcomes.iter().zip(&serial.outcomes).enumerate() {
        assert_eq!(a.finish, b.finish, "{what}: flow {f} finish");
        assert_eq!(a.mean_rate, b.mean_rate, "{what}: flow {f} mean rate");
        assert_eq!(a.min_rate, b.min_rate, "{what}: flow {f} min rate");
        assert_eq!(a.max_rate, b.max_rate, "{what}: flow {f} max rate");
    }
    assert_eq!(parallel.end, serial.end, "{what}: end");
    assert_eq!(
        parallel.congested_flows, serial.congested_flows,
        "{what}: congested flows"
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&parallel.link_bytes),
        bits(&serial.link_bytes),
        "{what}: link bytes"
    );
    assert_eq!(
        bits(&parallel.cnp_per_port),
        bits(&serial.cnp_per_port),
        "{what}: cnp per port"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incremental and reference drains agree over random topologies, flow
    /// populations, fault injections, noise epochs and deadlines — and the
    /// incremental drain is bit-identical to itself at 2 and 4 threads.
    #[test]
    fn drain_agrees_with_reference(
        nodes in 2usize..5,
        n_flows in 1usize..28,
        seed in 0u64..1_000_000,
        noise_kind in 0usize..4,
        kill_links in 0usize..3,
        deadline_ms in 0u64..4,
    ) {
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
            // Deadlines from "immediately" to "after every completion";
            // 0 means no deadline.
            deadline: (deadline_ms > 0)
                .then(|| SimTime::ZERO + SimDuration::from_millis(10u64.pow(deadline_ms as u32))),
            epoch: SimDuration::from_micros(500),
            rate_noise: [0.0, 0.1, 0.0, 0.25][noise_kind],
            cnp: (noise_kind >= 2).then(CnpModel::paper_default),
            parallel: ParallelPolicy::SERIAL,
            ..DrainConfig::default()
        };

        let mut rng_a = DetRng::seed_from(seed ^ 0xAAAA);
        let mut rng_b = DetRng::seed_from(seed ^ 0xAAAA);
        let inc = drain(&topo, &specs, &cfg, &mut rng_a);
        let reference = drain_reference(&topo, &specs, &cfg, &mut rng_b);
        assert_reports_agree(&inc, &reference, "random drain");

        // The same drain under worker threads: bit-identical, and the RNG
        // must end in the same position (same consumption order). The
        // incremental drain must also leave the RNG exactly where the
        // reference left its own — identical consumption order.
        let next_after_serial = rng_a.uniform();
        assert_eq!(
            next_after_serial.to_bits(),
            rng_b.uniform().to_bits(),
            "drain must consume the RNG in exactly the reference's order"
        );
        for threads in [2usize, 4] {
            let par_cfg = DrainConfig {
                parallel: ParallelPolicy::with_threads(threads),
                ..cfg.clone()
            };
            let mut rng_p = DetRng::seed_from(seed ^ 0xAAAA);
            let par = drain(&topo, &specs, &par_cfg, &mut rng_p);
            assert_reports_identical(&par, &inc, &format!("{threads}-thread drain"));
            assert_eq!(
                rng_p.uniform().to_bits(),
                next_after_serial.to_bits(),
                "thread count must not change RNG consumption"
            );
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
        assert_reports_agree(&inc, &reference, "collective-shaped drain");
        for threads in [2usize, 4] {
            let par_cfg = DrainConfig {
                parallel: ParallelPolicy::with_threads(threads),
                ..cfg.clone()
            };
            let mut rng_p = DetRng::seed_from(seed ^ 0xBBBB);
            let par = drain(&topo, &specs, &par_cfg, &mut rng_p);
            assert_reports_identical(
                &par,
                &inc,
                &format!("collective-shaped {threads}-thread drain"),
            );
        }
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
    /// 1e-9 with identical RNG consumption, and bit-identical to itself at
    /// 2 and 4 threads.
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
            parallel: ParallelPolicy::SERIAL,
            ..DrainConfig::default()
        };
        let mut rng_a = DetRng::seed_from(seed ^ 0xCCCC);
        let mut rng_b = DetRng::seed_from(seed ^ 0xCCCC);
        let inc = drain(&topo, &specs, &cfg, &mut rng_a);
        let reference = drain_reference(&topo, &specs, &cfg, &mut rng_b);
        assert_reports_agree(&inc, &reference, "noisy-at-scale drain");
        let next_after_serial = rng_a.uniform();
        assert_eq!(
            next_after_serial.to_bits(),
            rng_b.uniform().to_bits(),
            "noisy-at-scale drain must match the reference's RNG position"
        );
        for threads in [2usize, 4] {
            let par_cfg = DrainConfig {
                parallel: ParallelPolicy::with_threads(threads),
                ..cfg.clone()
            };
            let mut rng_p = DetRng::seed_from(seed ^ 0xCCCC);
            let par = drain(&topo, &specs, &par_cfg, &mut rng_p);
            assert_reports_identical(
                &par,
                &inc,
                &format!("noisy-at-scale {threads}-thread drain"),
            );
            assert_eq!(
                rng_p.uniform().to_bits(),
                next_after_serial.to_bits(),
                "thread count must not change RNG consumption at scale"
            );
        }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The hierarchical/SoA solve path at the 16k shape: drains on the
    /// 16384-GPU `pod_grouped_railed` fabric (128 rail-dense leaves, wide
    /// spine trunks) with noise epochs, same-size completion batches and
    /// killed links — completions trigger the pod-level component splits
    /// and dead links produce quiescent husks. Incremental == reference at
    /// 1e-9 with identical RNG consumption; 1/2/4-thread bit-identity.
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

        // Kill links flows actually cross: stalled flows turn their
        // components fully dead (husks) while survivors re-partition.
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
            parallel: ParallelPolicy::SERIAL,
            ..DrainConfig::default()
        };
        let mut rng_a = DetRng::seed_from(seed ^ 0x16AA);
        let mut rng_b = DetRng::seed_from(seed ^ 0x16AA);
        let inc = drain(&topo, &specs, &cfg, &mut rng_a);
        let reference = drain_reference(&topo, &specs, &cfg, &mut rng_b);
        assert_reports_agree(&inc, &reference, "16k-shaped drain");
        let next_after_serial = rng_a.uniform();
        assert_eq!(
            next_after_serial.to_bits(),
            rng_b.uniform().to_bits(),
            "16k-shaped drain must match the reference's RNG position"
        );
        for threads in [2usize, 4] {
            let par_cfg = DrainConfig {
                parallel: ParallelPolicy::with_threads(threads),
                ..cfg.clone()
            };
            let mut rng_p = DetRng::seed_from(seed ^ 0x16AA);
            let par = drain(&topo, &specs, &par_cfg, &mut rng_p);
            assert_reports_identical(
                &par,
                &inc,
                &format!("16k-shaped {threads}-thread drain"),
            );
            assert_eq!(
                rng_p.uniform().to_bits(),
                next_after_serial.to_bits(),
                "thread count must not change RNG consumption at the 16k shape"
            );
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
    assert_reports_agree(&inc, &reference, "engine allreduce flow set");
}

/// Builds fully pod-disjoint "jobs": per selected node, two equal-size QPs
/// over the same intra-node NVLink route. Jobs on different nodes share no
/// links at all, so each is its own solver component — and equal sizes make
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
    /// re-solve. Pinned three ways: drain == reference rates, RNG position
    /// bit-for-bit, and 1/2/4-thread bit-identity — plus, on the noiseless
    /// cases, the solver stats must show the batches actually formed.
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
        assert_reports_agree(&inc, &reference, "disjoint-pod batched drain");
        let next_after_serial = rng_a.uniform();
        assert_eq!(
            next_after_serial.to_bits(),
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

        for threads in [2usize, 4] {
            let par_cfg = DrainConfig {
                parallel: ParallelPolicy::with_threads(threads),
                ..cfg.clone()
            };
            let mut rng_p = DetRng::seed_from(seed ^ 0xBA7C);
            let par = drain(&topo, &specs, &par_cfg, &mut rng_p);
            assert_reports_identical(
                &par,
                &inc,
                &format!("disjoint-pod {threads}-thread drain"),
            );
            assert_eq!(
                rng_p.uniform().to_bits(),
                next_after_serial.to_bits(),
                "thread count must not change RNG consumption in batched drains"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The two-tier spine solve stays within its configured ε of the exact
    /// allocation on 16k-shaped railed fabrics, from the initial solve and
    /// through long completion scripts — and is deterministic (two states
    /// fed the same script stay bit-identical).
    #[test]
    fn two_tier_rates_stay_within_epsilon_of_exact(
        seed in 0u64..1_000_000,
        streams in 12usize..32,
        eps_kind in 0usize..2,
    ) {
        let topo = Topology::build(&ClosConfig::pod_grouped_railed(2048, 8));
        let specs = railed_16k_specs(&topo, seed, streams);
        prop_assume!(!specs.is_empty());
        let epsilon = [0.01, 0.05][eps_kind];

        let nl = topo.num_links();
        let capacity: Vec<f64> = (0..nl)
            .map(|l| {
                topo.link(LinkId::from_index(l))
                    .capacity()
                    .as_bytes_per_sec()
            })
            .collect();
        let spine: Vec<bool> = (0..nl)
            .map(|l| topo.link(LinkId::from_index(l)).kind().is_fabric())
            .collect();
        let routes: Vec<Vec<u32>> = specs
            .iter()
            .map(|s| {
                let mut r: Vec<u32> = s.route.iter().map(|l| l.index() as u32).collect();
                r.sort_unstable();
                r.dedup();
                r
            })
            .collect();

        let mut exact = MaxMinState::with_flows(&capacity, &routes, None)
            .with_parallel(ParallelPolicy::SERIAL);
        let make_tt = || {
            let mut s = MaxMinState::with_flows(&capacity, &routes, None)
                .with_parallel(ParallelPolicy::SERIAL)
                .with_solve_mode(SolveMode::TwoTier { epsilon });
            s.set_spine_links(&spine);
            s
        };
        let mut tt = make_tt();
        let mut tt_witness = make_tt();

        let assert_eps = |approx: &[f64], exact: &[f64], what: &str| {
            for (f, (&a, &b)) in approx.iter().zip(exact).enumerate() {
                let err = (a - b).abs() / a.abs().max(b.abs()).max(1.0);
                assert!(
                    err <= epsilon + 1e-9,
                    "{what}: flow {f} two-tier {a} vs exact {b} (rel err {err} > ε {epsilon})"
                );
            }
        };

        assert_eps(&tt.rates().to_vec(), exact.rates(), "initial solve");
        assert_rates_bit_identical(
            tt_witness.rates(),
            tt.rates(),
            "two-tier witness after initial solve",
        );

        // Completion script: remove flows in small batches, exactly the
        // mutation stream a drain feeds the solver.
        let mut rng = DetRng::seed_from(seed ^ 0x271E);
        let mut alive: Vec<usize> = (0..specs.len()).collect();
        let mut step = 0usize;
        while alive.len() > specs.len() / 4 {
            let batch = 1 + rng.index(4.min(alive.len()));
            for _ in 0..batch {
                let pick = rng.index(alive.len());
                let f = alive.swap_remove(pick);
                exact.remove_flow(f);
                tt.remove_flow(f);
                tt_witness.remove_flow(f);
            }
            step += 1;
            assert_eps(
                &tt.rates().to_vec(),
                exact.rates(),
                &format!("after completion batch {step}"),
            );
            assert_rates_bit_identical(
                tt_witness.rates(),
                tt.rates(),
                &format!("two-tier witness after batch {step}"),
            );
        }
    }

    /// End-to-end: a two-tier drain on the 16k shape completes the same
    /// flows as the exact drain with completion times within a few ε, is
    /// bit-identical to itself, and actually exercises the sparse path.
    #[test]
    fn two_tier_drain_tracks_exact_on_16k_shape(
        seed in 0u64..1_000_000,
        streams in 12usize..24,
    ) {
        let topo = Topology::build(&ClosConfig::pod_grouped_railed(2048, 8));
        let specs = railed_16k_specs(&topo, seed, streams);
        prop_assume!(!specs.is_empty());

        let cfg_exact = DrainConfig::default();
        let cfg_tt = DrainConfig {
            solve_mode: SolveMode::TwoTier { epsilon: 0.01 },
            ..DrainConfig::default()
        };
        let ex = drain(&topo, &specs, &cfg_exact, &mut DetRng::seed_from(seed));
        let tt = drain(&topo, &specs, &cfg_tt, &mut DetRng::seed_from(seed));
        let tt_again = drain(&topo, &specs, &cfg_tt, &mut DetRng::seed_from(seed));

        assert_eq!(ex.outcomes.len(), tt.outcomes.len());
        let secs = |t: SimTime| (t - SimTime::ZERO).as_secs_f64();
        for (f, (a, b)) in tt.outcomes.iter().zip(&ex.outcomes).enumerate() {
            assert_eq!(
                a.completed(),
                b.completed(),
                "two-tier vs exact: flow {f} completion"
            );
            if let (Some(x), Some(y)) = (a.finish, b.finish) {
                let (x, y) = (secs(x), secs(y));
                let err = (x - y).abs() / x.abs().max(y.abs()).max(1e-9);
                assert!(
                    err <= 0.05,
                    "two-tier finish {x} drifted {err} from exact {y} (flow {f})"
                );
            }
        }
        assert_reports_identical(&tt_again, &tt, "two-tier repeat run");
        if tt.solver.events >= 3 {
            assert!(
                tt.solver.sparse_solves >= 1,
                "two-tier drain never took the sparse path: {:?}",
                tt.solver
            );
        }

        for threads in [2usize, 4] {
            let par_cfg = DrainConfig {
                parallel: ParallelPolicy::with_threads(threads),
                ..cfg_tt.clone()
            };
            let par = drain(&topo, &specs, &par_cfg, &mut DetRng::seed_from(seed));
            assert_reports_identical(
                &par,
                &tt,
                &format!("two-tier {threads}-thread drain"),
            );
        }

        // The noisy/CNP two-tier path (the shared epoch-grid noise model,
        // episodic CNP integration) must stay deterministic and
        // thread-invariant too, and every flow must still complete on a
        // healthy fabric.
        let cfg_noisy = DrainConfig {
            rate_noise: 0.10,
            cnp: Some(CnpModel::paper_default()),
            solve_mode: SolveMode::TwoTier { epsilon: 0.01 },
            ..DrainConfig::default()
        };
        let nz = drain(&topo, &specs, &cfg_noisy, &mut DetRng::seed_from(seed));
        let nz_again = drain(&topo, &specs, &cfg_noisy, &mut DetRng::seed_from(seed));
        assert_reports_identical(&nz_again, &nz, "noisy two-tier repeat run");
        for o in &nz.outcomes {
            assert!(o.completed(), "noisy two-tier drain must complete flows");
        }
        let nz_par = drain(
            &topo,
            &specs,
            &DrainConfig {
                parallel: ParallelPolicy::with_threads(4),
                ..cfg_noisy.clone()
            },
            &mut DetRng::seed_from(seed),
        );
        assert_reports_identical(&nz_par, &nz, "noisy two-tier 4-thread drain");
        assert!(
            nz.cnp_per_port.iter().any(|&c| c > 0.0),
            "congested railed traffic must accumulate CNPs episodically"
        );
    }
}
