//! Differential/property harness for the 4D-hybrid traffic layer.
//!
//! Pins, exactly:
//!
//! * the all-to-all plan: every ordered rank pair appears as exactly one
//!   flow, channels round-trip to the pair, the edge set is invariant under
//!   permutation of the communicator's device list, and EP skew rescales
//!   bytes without changing the per-source (and hence total) byte volume;
//! * C4P's batched selection on all-to-all key populations: `select_batch`
//!   equals sequential `select` at 2 and 4 worker threads, ledger and
//!   sticky state included;
//! * the hybrid iteration: bit-identical phase timings, bus bandwidths and
//!   per-expert received bytes at 1, 2 and 4 threads, and batch planning
//!   equal to one-request-at-a-time planning;
//! * the plan cache: invalidating one communicator of a hybrid job evicts
//!   exactly that plan and no other family's;
//! * `c4d` smoothing: a step-function load shift is detected within one
//!   window, while sub-threshold i.i.d. EP noise never fires the smoothed
//!   detector.

use c4::prelude::*;
use c4::scenarios;
use proptest::prelude::*;

/// A random all-to-all communicator on the tiny fabric: `nranks` GPUs, at
/// most one per node so every pair is an inter-node edge, rank order
/// shuffled.
fn random_a2a_comm(topo: &Topology, rng: &mut DetRng, nranks: usize, id: u64) -> Communicator {
    let mut nodes: Vec<usize> = (0..topo.num_nodes()).collect();
    rng.shuffle(&mut nodes);
    let devices: Vec<GpuId> = nodes[..nranks]
        .iter()
        .map(|&n| topo.gpu_at(NodeId::from_index(n), rng.index(2)))
        .collect();
    Communicator::new(id, devices, topo).expect("valid a2a comm")
}

/// The hybrid job used by the thread-invariance and cache tests: TP2/PP2/
/// EP2 on the 8-node tiny fabric (2 GPUs per node), small messages so the
/// debug-profile CI matrix stays fast.
fn tiny_hybrid(topo: &Topology) -> HybridJob {
    let mut spec = HybridSpec::moe(2, 2, 2);
    spec.tp_elems = 256 * 1024;
    spec.pp_elems = 128 * 1024;
    spec.dp_elems = 512 * 1024;
    spec.ep_elems = 256 * 1024;
    let nodes: Vec<NodeId> = (0..topo.num_nodes()).map(NodeId::from_index).collect();
    HybridJob::new(topo, spec, nodes, 1).expect("tiny hybrid places")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every ordered rank pair of an all-to-all plan appears exactly once,
    /// its channel decodes back to the pair, and rebuilding the plan from a
    /// permuted device list yields the same GPU-pair edge set.
    #[test]
    fn a2a_plan_covers_every_pair_exactly_once(
        nranks in 2usize..8,
        seed in 0u64..1_000_000,
    ) {
        let topo = Topology::build(&ClosConfig::tiny(8));
        let mut rng = DetRng::seed_from(seed);
        let comm = random_a2a_comm(&topo, &mut rng, nranks, 1);
        let plan = AllToAllPlan::build(&topo, &comm);

        prop_assert_eq!(plan.flow_count(), nranks * (nranks - 1));
        let mut seen = std::collections::BTreeSet::new();
        for e in plan.intra.iter().chain(&plan.inter) {
            prop_assert!(e.src_rank != e.dst_rank, "no self-pairs");
            prop_assert!(seen.insert((e.src_rank, e.dst_rank)), "duplicate pair");
            let ch = pair_channel(e.src_rank, e.dst_rank);
            prop_assert_eq!(channel_pair(ch), (e.src_rank, e.dst_rank));
            prop_assert_eq!(comm.devices()[e.src_rank as usize], e.src_gpu);
            prop_assert_eq!(comm.devices()[e.dst_rank as usize], e.dst_gpu);
        }
        prop_assert_eq!(seen.len(), nranks * (nranks - 1));

        // Permuting the device list relabels ranks but must connect the
        // same set of GPU pairs.
        let edge_set = |p: &AllToAllPlan| -> std::collections::BTreeSet<(GpuId, GpuId)> {
            p.intra
                .iter()
                .chain(&p.inter)
                .map(|e| (e.src_gpu, e.dst_gpu))
                .collect()
        };
        let mut permuted = comm.devices().to_vec();
        rng.shuffle(&mut permuted);
        let comm2 = Communicator::new(2, permuted, &topo).expect("permuted comm");
        prop_assert_eq!(edge_set(&plan), edge_set(&AllToAllPlan::build(&topo, &comm2)));
    }

    /// EP skew redistributes all-to-all bytes without creating or
    /// destroying any: per source, shares sum to one, and the engine's
    /// flow-spec bytes under a hot-expert skew total exactly the uniform
    /// volume while the hot rank receives more than any cold rank.
    #[test]
    fn ep_skew_conserves_bytes(
        nranks in 3usize..8,
        hot in 0usize..8,
        factor in 1.5f64..8.0,
        seed in 0u64..1_000_000,
    ) {
        let hot = (hot % nranks) as u32;
        let skew = EpSkew::hot(hot, factor);
        for src in 0..nranks as u32 {
            let total: f64 = (0..nranks as u32)
                .filter(|&d| d != src)
                .map(|d| skew.share(src, d, nranks))
                .sum();
            prop_assert!((total - 1.0).abs() < 1e-12, "src {src}: shares sum to {total}");
        }

        // End to end through the engine: identical total bytes as uniform.
        let topo = Topology::build(&ClosConfig::tiny(8));
        let mut rng = DetRng::seed_from(seed);
        let comm = random_a2a_comm(&topo, &mut rng, nranks, 1);
        let run = |ep_skew: EpSkew| -> CollectiveResult {
            let req = CollectiveRequest {
                comm: &comm,
                seq: 0,
                kind: CollKind::AllToAll,
                dtype: DataType::Bf16,
                count: 1024 * 1024,
                config: CommConfig { ep_skew },
                start: SimTime::ZERO,
                rank_ready: None,
                drain: DrainConfig::default(),
            };
            let mut sel = EcmpSelector::new(7);
            let mut rng = DetRng::seed_from(1);
            run_concurrent(&topo, &[req], &mut sel, None, &mut rng, None)
                .pop()
                .expect("one result")
        };
        let bytes_by_dst = |r: &CollectiveResult| -> Vec<u64> {
            let mut v = vec![0u64; nranks];
            for o in r.intra_outcomes.iter().chain(&r.qp_outcomes) {
                v[channel_pair(o.key.channel).1 as usize] += o.bytes.as_bytes();
            }
            v
        };
        let skewed = bytes_by_dst(&run(skew));
        let uniform = bytes_by_dst(&run(EpSkew::default()));
        // Each ordered pair's share rounds to whole bytes independently, so
        // totals may differ by up to one byte per flow — never more.
        let diff = (skewed.iter().sum::<u64>() as i64 - uniform.iter().sum::<u64>() as i64).abs();
        prop_assert!(
            diff <= (nranks * (nranks - 1)) as i64,
            "skew must conserve total bytes up to per-flow rounding (off by {diff})"
        );
        for (d, &b) in skewed.iter().enumerate() {
            if d != hot as usize {
                prop_assert!(
                    skewed[hot as usize] > b,
                    "hot rank {hot} must out-receive rank {d}: {skewed:?}"
                );
            }
        }
    }

    /// C4P's partitioned `select_batch` on all-to-all key populations
    /// (channel-encoded pairs, qp 0) equals sequential `select` at 2 and 4
    /// threads — choices, ledger and sticky table.
    #[test]
    fn c4p_batch_matches_sequential_on_a2a_keys(
        nranks in 3usize..8,
        seed in 0u64..1_000_000,
        dynamic_pick in 0usize..2,
    ) {
        let topo = Topology::build(&ClosConfig::tiny(8));
        let mut rng = DetRng::seed_from(seed);
        let comm = random_a2a_comm(&topo, &mut rng, nranks, 1);
        let plan = AllToAllPlan::build(&topo, &comm);
        let mut keys: Vec<FlowKey> = plan
            .inter
            .iter()
            .map(|e| FlowKey {
                src_gpu: e.src_gpu,
                dst_gpu: e.dst_gpu,
                comm: comm.id(),
                channel: pair_channel(e.src_rank, e.dst_rank),
                qp: 0,
                incarnation: comm.incarnation(),
            })
            .collect();
        // Duplicates exercise sticky hits inside one batch.
        for _ in 0..rng.index(8) {
            keys.push(keys[rng.index(keys.len())]);
        }

        let cfg = C4pConfig { dynamic: dynamic_pick == 1 };
        let mut serial = C4pMaster::new(&topo, cfg);
        let expected: Vec<PathChoice> = keys.iter().map(|k| serial.select(&topo, k)).collect();
        for threads in [2usize, 4] {
            let mut batched = C4pMaster::new(&topo, cfg)
                .with_parallel(ParallelPolicy::with_threads(threads));
            batched.set_batch_min_keys(1);
            let got = batched.select_batch(&topo, &keys);
            prop_assert_eq!(&got, &expected, "choices at {} threads", threads);
            prop_assert_eq!(
                batched.ledger().total_allocations(),
                serial.ledger().total_allocations()
            );
            for k in &keys {
                prop_assert_eq!(batched.allocation(k), serial.allocation(k));
            }
        }
    }

    /// A step-function shift in one expert's load is flagged within one
    /// window of full data, while sub-threshold i.i.d. noise never fires
    /// the smoothed detector.
    #[test]
    fn smoothing_detects_steps_but_not_noise(
        nranks in 2usize..10,
        window in 1usize..12,
        seed in 0u64..1_000_000,
        victim in 0usize..10,
        shift in 2.0f64..6.0,
    ) {
        let victim = victim % nranks;
        let mut rng = DetRng::seed_from(seed);

        // Sub-threshold i.i.d. noise: loads in [1, 1.3] can never reach a
        // 1.5× worst/median ratio — raw or smoothed.
        let mut s = LoadSmoother::new(nranks, window);
        for _ in 0..window * 3 {
            let loads: Vec<f64> =
                (0..nranks).map(|_| rng.uniform_range(1.0, 1.3)).collect();
            prop_assert!(raw_straggler(&loads, 1.5).is_none());
            s.push_step(&loads);
            prop_assert!(s.detect_straggler(1.5).is_none(), "noise must not fire");
        }

        // Step shift: after `window` steps of the shifted regime every
        // window holds only shifted samples, so detection is guaranteed by
        // then (often earlier).
        let mut detected_at = None;
        for step in 0..2 * window {
            let loads: Vec<f64> = (0..nranks)
                .map(|r| {
                    let base = rng.uniform_range(1.0, 1.1);
                    if r == victim { base * shift } else { base }
                })
                .collect();
            s.push_step(&loads);
            if let Some((rank, _)) = s.detect_straggler(1.5) {
                prop_assert_eq!(rank, victim, "wrong rank flagged");
                detected_at = Some(step);
                break;
            }
        }
        let at = detected_at.expect("systemic shift must be detected");
        prop_assert!(at < window, "detected at step {at}, window {window}");
    }
}

/// One hybrid iteration drains to bit-identical results at 1, 2 and 4
/// worker threads: phase timings, bus bandwidths and per-expert received
/// bytes.
#[test]
fn hybrid_iteration_is_thread_invariant() {
    let topo = Topology::build(&ClosConfig::tiny(8));
    let run_with = |threads: usize| -> Vec<HybridIterationReport> {
        let parallel = ParallelPolicy::with_threads(threads);
        let mut job = tiny_hybrid(&topo);
        job.drain = DrainConfig {
            parallel,
            ..DrainConfig::default()
        };
        let mut master = C4pMaster::new(&topo, C4pConfig::default()).with_parallel(parallel);
        master.set_batch_min_keys(1);
        let mut rng = DetRng::seed_from(5);
        (0..2)
            .map(|it| {
                job.set_ep_skew(EpSkew::hot(it % 2, 3.0));
                job.run_iteration(&topo, &mut master, None, &mut rng)
            })
            .collect()
    };
    let serial = run_with(1);
    for threads in [2usize, 4] {
        let par = run_with(threads);
        assert_eq!(par.len(), serial.len());
        for (a, b) in par.iter().zip(&serial) {
            assert_eq!(a.total, b.total, "{threads} threads: iteration wall");
            assert_eq!(a.phases.len(), b.phases.len());
            for (x, y) in a.phases.iter().zip(&b.phases) {
                assert_eq!(x.kind, y.kind);
                assert_eq!(
                    x.duration, y.duration,
                    "{threads} threads: {:?} phase",
                    x.kind
                );
                assert_eq!(
                    x.busbw_mean_gbps.map(f64::to_bits),
                    y.busbw_mean_gbps.map(f64::to_bits),
                    "{threads} threads: {:?} busbw",
                    x.kind
                );
            }
            assert_eq!(a.ep_recv_bytes, b.ep_recv_bytes, "{threads} threads");
        }
    }
}

/// The engine's batched planning of a whole hybrid phase (one
/// `select_batch` across all cache misses) equals planning each collective
/// request alone: same flows, same bytes, same completion times.
#[test]
fn batch_planning_matches_sequential_planning() {
    let topo = Topology::build(&ClosConfig::tiny(8));
    let job = tiny_hybrid(&topo);
    let skew = EpSkew::hot(1, 4.0);
    fn mk_req(comm: &Communicator, skew: EpSkew) -> CollectiveRequest<'_> {
        CollectiveRequest {
            comm,
            seq: 0,
            kind: CollKind::AllToAll,
            dtype: DataType::Bf16,
            count: 256 * 1024,
            config: CommConfig { ep_skew: skew },
            start: SimTime::ZERO,
            rank_ready: None,
            drain: DrainConfig::default(),
        }
    }

    // Batched: all EP groups planned in one engine call.
    let mut batched_sel = C4pMaster::new(&topo, C4pConfig::default());
    batched_sel.set_batch_min_keys(1);
    let reqs: Vec<CollectiveRequest<'_>> = job.ep_comms().iter().map(|c| mk_req(c, skew)).collect();
    let mut rng = DetRng::seed_from(9);
    let batched = run_concurrent(&topo, &reqs, &mut batched_sel, None, &mut rng, None);

    // Sequential: each group planned by its own engine call (fresh rng per
    // call keeps the drains comparable; a lone request's drain is
    // contention-free, so only flow sets and bytes are compared).
    let mut seq_sel = C4pMaster::new(&topo, C4pConfig::default());
    let sequential: Vec<CollectiveResult> = job
        .ep_comms()
        .iter()
        .map(|comm| {
            let mut rng = DetRng::seed_from(9);
            run_concurrent(
                &topo,
                &[mk_req(comm, skew)],
                &mut seq_sel,
                None,
                &mut rng,
                None,
            )
            .pop()
            .expect("one result")
        })
        .collect();

    assert_eq!(batched.len(), sequential.len());
    for (a, b) in batched.iter().zip(&sequential) {
        assert_eq!(a.comm, b.comm);
        assert_eq!(a.message_bytes, b.message_bytes);
        let flows = |r: &CollectiveResult| -> Vec<(FlowKey, u64)> {
            let mut v: Vec<(FlowKey, u64)> = r
                .intra_outcomes
                .iter()
                .chain(&r.qp_outcomes)
                .map(|o| (o.key, o.bytes.as_bytes()))
                .collect();
            v.sort_by_key(|(k, _)| (k.src_gpu, k.dst_gpu, k.comm, k.channel, k.qp));
            v
        };
        assert_eq!(flows(a), flows(b), "comm {}: flow/byte sets", a.comm);
    }
}

/// Invalidating one communicator's plan leaves every other family's cached
/// plan intact: exactly one extra miss on the next iteration.
#[test]
fn invalidate_comm_is_surgical_across_families() {
    let topo = Topology::build(&ClosConfig::tiny(8));
    let mut job = tiny_hybrid(&topo);
    let mut sel = EcmpSelector::new(3);
    let mut rng = DetRng::seed_from(4);
    let families =
        (job.tp_comms().len() + job.pp_comms().len() + job.dp_comms().len() + job.ep_comms().len())
            as u64;

    job.run_iteration(&topo, &mut sel, None, &mut rng);
    assert_eq!(job.plan_cache().misses(), families, "first pass builds all");
    assert_eq!(job.plan_cache().hits(), 0);

    let victim = job.dp_comms()[0].id();
    job.plan_cache_mut().invalidate_comm(victim);
    job.run_iteration(&topo, &mut sel, None, &mut rng);
    assert_eq!(
        job.plan_cache().misses(),
        families + 1,
        "only the invalidated DP plan rebuilds"
    );
    assert_eq!(
        job.plan_cache().hits(),
        families - 1,
        "every other family's plan survives"
    );
}

/// The scenario layer's EP-imbalance study on real traffic: the raw
/// detector false-fires through healthy rotation, the smoothed detector
/// stays silent yet catches the pinned expert. (Scaled down: the full
/// study lives in the release scenario suite.)
#[test]
fn ep_imbalance_study_smoke() {
    let cfg = scenarios::hybrid::EpImbalanceConfig {
        seed: 2,
        nodes: 32,
        rotate_steps: 10,
        pinned_steps: 6,
        window: 8,
        factor: 2.0,
        hot_factor: 4.0,
    };
    let r = scenarios::hybrid::run_ep_imbalance(&cfg);
    assert!(r.raw_false_positives >= r.rotate_steps / 2);
    assert_eq!(r.smoothed_false_positives, 0);
    assert_eq!(r.detected_rank, Some(r.pinned_rank));
}
