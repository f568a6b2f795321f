//! Bit-identity guard for seed-determined simulated results.
//!
//! Each case runs one fixed-seed simulation and folds it into two `mix64`
//! digests over 64-bit words, each compared against a recorded constant:
//!
//! * the **results** digest: for a drain, per flow the finish time and the
//!   mean, min and max rate, then the drain end, `link_bytes` expanded to
//!   one entry per fabric link (0 for a link that carried nothing),
//!   `cnp_per_port` and the congested count (a testbed drain of mixed QPs
//!   and an expert-parallel all-to-all); for a hybrid iteration, each
//!   phase's comm count, duration and bus bandwidth, the total and the
//!   per-rank EP bytes;
//! * the **counters** digest: every [`DrainSolverStats`] counter except
//!   `arena_hwm_bytes`, which measures scratch capacity rather than work.
//!
//! One hybrid case runs three warm noisy iterations per selector, whose
//! drains go over plans the job's [`PlanCache`] already holds; its counters
//! digest folds `arena_hwm_bytes` as well, which a drain must report the
//! same however its seed solve was reached.
//!
//! Two cases run fleet soaks, whose counters digest folds the report's
//! plan-cache hits and misses instead: how often plans were built, not
//! what the soak did. One folds noise-free plan-cached BSP iterations and
//! a fleet soak, the drains a [`PlanCache`] may replay rather than
//! re-drain; its results were first recorded before the replay existed,
//! so it pins that a replayed drain reports what a fresh one does. The
//! other folds a whole day of the 512-GPU benchmark soak, report and
//! per-job ledger, at two seeds: the fleet's control loop, detectors and
//! telemetry plumbing must leave every outcome unchanged.
//!
//! A pure refactor of the drain, the solver or the collective layer must
//! leave every results digest unchanged; a change that moves any result by
//! one ulp fails here under plain `cargo test`, without a benchmark run. A
//! change to how the solver reaches the same results (more or fewer solves,
//! rounds or batches), or to how often the fleet re-plans, moves only the
//! counters digest. After an intentional change, re-record the constants
//! from the failure messages.

use c4::prelude::*;

/// Order-sensitive digest over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0)
    }

    fn word(&mut self, v: u64) {
        self.0 = mix64(self.0 ^ v);
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// Folds a drain on a fabric of `num_links` links.
    fn drain(&mut self, r: &DrainReport, num_links: usize) {
        for o in &r.outcomes {
            self.word(o.finish.map_or(u64::MAX, SimTime::as_nanos));
            self.float(o.mean_rate.as_bytes_per_sec());
            self.float(o.min_rate.as_bytes_per_sec());
            self.float(o.max_rate.as_bytes_per_sec());
        }
        self.word(r.end.as_nanos());
        let mut dense = vec![0.0; num_links];
        for &(l, b) in r.link_bytes.iter() {
            dense[l.index()] = b;
        }
        for b in dense {
            self.float(b);
        }
        for &c in r.cnp_per_port.iter() {
            self.float(c);
        }
        self.word(r.congested_flows as u64);
    }
}

/// The counters digest of one run's solver stats.
fn counters(s: &DrainSolverStats) -> u64 {
    let mut d = Digest::new();
    for v in [
        s.events,
        s.flows,
        s.full_solves,
        s.component_solves,
        s.sparse_solves,
        s.spine_rounds,
        s.spine_link_updates,
        s.fallback_solves,
        s.batched_instants,
        s.batched_completions,
    ] {
        d.word(v);
    }
    d.0
}

/// The counters digest of a fleet report: its plan-cache hits and misses.
fn fleet_counters(r: &FleetReport) -> u64 {
    let mut d = Digest::new();
    d.word(r.cache_hits);
    d.word(r.cache_misses);
    d.0
}

/// Checks both digests of one case, results first.
fn assert_digests(what: &str, (results, counts): (u64, u64), expected: (u64, u64)) {
    assert_eq!(
        results, expected.0,
        "{what}: results digest {results:#018x}, recorded {:#018x} (counters {counts:#018x})",
        expected.0
    );
    assert_eq!(
        counts, expected.1,
        "{what}: counters digest {counts:#018x}, recorded {:#018x}",
        expected.1
    );
}

/// A fixed flow population on the paper testbed: ECMP-routed inter-node
/// QPs of mixed sizes (completions spread out, so the solver propagates
/// many separate removals) plus a few intra-node NVLink transfers that share
/// no link with them.
fn testbed_specs(topo: &Topology) -> Vec<FlowSpec> {
    let mut sel = EcmpSelector::new(0xD16E57);
    let mut rng = DetRng::seed_from(20251016);
    let ngpus = topo.num_gpus();
    (0..96)
        .map(|i| {
            let src = GpuId::from_index(rng.index(ngpus));
            let mut dst = GpuId::from_index(rng.index(ngpus));
            let intra = i % 12 == 0;
            if intra {
                dst = topo.gpu_at(topo.gpu(src).node, (src.index() + 1) % 8);
            } else if topo.gpu(src).node == topo.gpu(dst).node {
                dst = GpuId::from_index((dst.index() + 8) % ngpus);
            }
            let key = FlowKey {
                src_gpu: src,
                dst_gpu: dst,
                comm: 1 + (i % 8) as u64,
                channel: (i % 16) as u16,
                qp: (i % 2) as u16,
                incarnation: 0,
            };
            let route = if intra {
                topo.intra_node_route(src, dst)
            } else {
                let choice = sel.select(topo, &key);
                let sp = topo.port_of_gpu(src, choice.src_side);
                let dp = topo.port_of_gpu(dst, choice.dst_side);
                topo.inter_node_route(src, sp, choice.fabric.as_ref(), dp, dst)
            };
            let bytes = ByteSize::from_mib(4 + 4 * rng.index(8) as u64);
            FlowSpec::new(key, bytes, route)
        })
        .collect()
}

#[test]
fn noisy_exact_drain_on_testbed_is_unchanged() {
    let topo = Topology::build(&ClosConfig::testbed_128());
    let specs = testbed_specs(&topo);
    let cfg = DrainConfig {
        epoch: SimDuration::from_micros(200),
        rate_noise: 0.10,
        cnp: Some(CnpModel::paper_default()),
        ..DrainConfig::default()
    };
    let report = drain(&topo, &specs, &cfg, &mut DetRng::seed_from(42));
    assert!(report.all_completed(), "healthy testbed drains every flow");
    let mut d = Digest::new();
    d.drain(&report, topo.num_links());
    assert_digests(
        "testbed drain",
        (d.0, counters(&report.solver)),
        (0x3191_3eae_05b6_a1db, 0x3e43_7335_d875_b1d7),
    );
}

/// An expert-parallel all-to-all: every ordered pair among 64 GPUs (GPUs
/// 0–3 of each of the 16 nodes, so both pods take part), one QP per pair as
/// the collective engine keys it, bytes skewed toward a hot expert,
/// inter-node pairs ECMP-routed on a 2:1 `pod_grouped_railed` fabric. The
/// inter-pod pairs share spine links, and each sender port carries dozens
/// of pairs, so completions flip the congestion score of several flows on
/// one port in the same event.
fn alltoall_specs(topo: &Topology) -> Vec<FlowSpec> {
    const RANKS: u32 = 64;
    let skew = EpSkew::hot(5, 4.0);
    let per_source = ByteSize::from_mib(8).as_bytes() as f64;
    let gpu_of = |rank: u32| topo.gpu_at(NodeId::from_index(rank as usize / 4), rank as usize % 4);
    let mut sel = EcmpSelector::new(0xA2A);
    let mut specs = Vec::new();
    for src_rank in 0..RANKS {
        for dst_rank in (0..RANKS).filter(|&d| d != src_rank) {
            let (src, dst) = (gpu_of(src_rank), gpu_of(dst_rank));
            let key = FlowKey {
                src_gpu: src,
                dst_gpu: dst,
                comm: 7,
                channel: pair_channel(src_rank, dst_rank),
                qp: 0,
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
            let bytes = (per_source * skew.share(src_rank, dst_rank, RANKS as usize)).round();
            specs.push(FlowSpec::new(
                key,
                ByteSize::from_bytes(bytes as u64),
                route,
            ));
        }
    }
    specs
}

#[test]
fn noisy_alltoall_drain_is_unchanged() {
    let topo = Topology::build(&ClosConfig::pod_grouped_railed(16, 2));
    let specs = alltoall_specs(&topo);
    let cfg = DrainConfig {
        epoch: SimDuration::from_micros(50),
        rate_noise: 0.10,
        cnp: Some(CnpModel::paper_default()),
        ..DrainConfig::default()
    };
    let report = drain(&topo, &specs, &cfg, &mut DetRng::seed_from(16));
    assert!(report.all_completed(), "healthy fabric drains every pair");
    let mut d = Digest::new();
    d.drain(&report, topo.num_links());
    assert_digests(
        "all-to-all drain",
        (d.0, counters(&report.solver)),
        (0x1ff0_1656_a3ab_119b, 0x395b_b71e_e1a8_1775),
    );
}

/// The TP2/PP2/EP2 hybrid job on the 8-node tiny fabric (the job of
/// `tests/hybrid_differential.rs`), with 10 % rate noise and paper CNP
/// accounting.
fn tiny_hybrid_job(topo: &Topology) -> HybridJob {
    let mut spec = HybridSpec::moe(2, 2, 2);
    spec.tp_elems = 256 * 1024;
    spec.pp_elems = 128 * 1024;
    spec.dp_elems = 512 * 1024;
    spec.ep_elems = 256 * 1024;
    let nodes: Vec<NodeId> = (0..topo.num_nodes()).map(NodeId::from_index).collect();
    let mut job = HybridJob::new(topo, spec, nodes, 1).expect("tiny hybrid places");
    job.drain = DrainConfig {
        rate_noise: 0.10,
        cnp: Some(CnpModel::paper_default()),
        ..DrainConfig::default()
    };
    job
}

/// Folds a hybrid iteration's results: each phase's comm count, duration
/// and mean bus bandwidth, the total and the per-rank EP bytes.
fn hybrid_iteration(d: &mut Digest, report: &HybridIterationReport) {
    for p in &report.phases {
        d.word(p.comms as u64);
        d.word(p.duration.as_nanos());
        d.float(p.busbw_mean_gbps.unwrap_or(f64::NAN));
    }
    d.word(report.total.as_nanos());
    for ranks in &report.ep_recv_bytes {
        for &b in ranks {
            d.word(b);
        }
    }
}

/// One noisy iteration of the tiny hybrid job under C4P, from cold plan
/// caches.
#[test]
fn noisy_tiny_hybrid_iteration_is_unchanged() {
    let topo = Topology::build(&ClosConfig::tiny(8));
    let mut job = tiny_hybrid_job(&topo);
    job.set_ep_skew(EpSkew::hot(1, 3.0));
    let mut master = C4pMaster::new(&topo, C4pConfig::default());
    let report = job.run_iteration(&topo, &mut master, None, &mut DetRng::seed_from(5));
    assert!(!report.hung, "tiny hybrid iteration completes");

    let mut d = Digest::new();
    hybrid_iteration(&mut d, &report);
    assert_digests(
        "tiny hybrid iteration",
        (d.0, counters(&report.solver)),
        (0x47a5_5437_32ca_e85a, 0xf9b0_6b4c_831d_6c57),
    );
}

/// Three noisy iterations of the tiny hybrid job, under ECMP and then under
/// C4P, each selector on its own job with the hot expert rotating every
/// iteration: after the first, every phase drains again over plans its
/// cache already holds. The results digest folds each iteration and the
/// RNG position after each selector's three; the counters digest folds
/// every iteration's solver counters, `arena_hwm_bytes` included.
#[test]
fn warm_noisy_tiny_hybrid_iterations_are_unchanged() {
    let topo = Topology::build(&ClosConfig::tiny(8));
    let mut ecmp = EcmpSelector::new(0x7A2);
    let mut master = C4pMaster::new(&topo, C4pConfig::default());
    let selectors: [&mut dyn PathSelector; 2] = [&mut ecmp, &mut master];
    let (mut d, mut c) = (Digest::new(), Digest::new());
    for selector in selectors {
        let mut job = tiny_hybrid_job(&topo);
        let mut rng = DetRng::seed_from(9);
        for it in 0..3u32 {
            job.set_ep_skew(EpSkew::hot(it % 2, 3.0));
            let report = job.run_iteration(&topo, &mut *selector, None, &mut rng);
            assert!(!report.hung, "iteration {it} completes");
            hybrid_iteration(&mut d, &report);
            c.word(counters(&report.solver));
            c.word(report.solver.arena_hwm_bytes);
        }
        assert!(job.plan_cache().hits() > 0, "warm iterations reuse plans");
        d.word(rng.uniform().to_bits());
    }
    assert_digests(
        "warm tiny hybrid iterations",
        (d.0, c.0),
        (0xb7b8_82c7_9bbb_9052, 0x0cd6_8455_c7c9_deb3),
    );
}

/// Noise-free, plan-cached BSP work: six iterations of the GPT-22B TP8/DP16
/// job on the paper testbed under ECMP with telemetry on, then a 6 h smoke
/// fleet soak. Each iteration folds its total and comm time and both bus
/// bandwidths; the soak folds its seed-determined control-loop census and
/// the goodput bits.
#[test]
fn noise_free_cached_iterations_and_soak_are_unchanged() {
    let topo = Topology::build(&ClosConfig::testbed_128());
    let spec = JobSpec::gpt22b_tp8_dp16();
    let nodes: Vec<NodeId> = (0..16).map(NodeId::from_index).collect();
    let layout = ParallelLayout::place(&topo, &spec, nodes).expect("testbed places the job");
    let mut job = TrainingJob::new(&topo, spec, layout, 100);
    let mut tel: Vec<WorkerTelemetry> = topo
        .gpus()
        .iter()
        .map(|g| WorkerTelemetry::new(g.id))
        .collect();
    job.register_telemetry(&mut tel);
    let mut sel = EcmpSelector::new(0x5EED);
    let mut rng = DetRng::seed_from(11);
    let mut d = Digest::new();
    for _ in 0..6 {
        let r = job.run_iteration(&topo, &mut sel, None, &mut rng, &[], Some(&mut tel));
        assert!(!r.hung, "healthy testbed iterations complete");
        d.word(r.total.as_nanos());
        d.word(r.comm.as_nanos());
        d.float(r.busbw_min_gbps.unwrap_or(f64::NAN));
        d.float(r.busbw_mean_gbps.unwrap_or(f64::NAN));
    }
    assert_eq!(job.plan_cache().hits(), 5 * job.comms().len() as u64);

    let mut cfg = FleetConfig::smoke(42);
    cfg.horizon = SimDuration::from_hours(6);
    let r = FleetController::new(cfg).run();
    for v in [
        r.rounds,
        r.live_iterations,
        r.detections,
        r.isolations,
        r.replacements,
        r.total_recoveries(),
    ] {
        d.word(v);
    }
    d.float(r.aggregate_goodput_fraction());
    assert_digests(
        "noise-free iterations + soak",
        (d.0, fleet_counters(&r)),
        (0x2035_85e1_375b_fe21, 0x88a5_a742_5989_9c7a),
    );
}

/// Folds every field of a fleet report except `drain_reuses`,
/// `cache_hits` and `cache_misses`, which count replays and plan builds
/// (how the work was done) rather than outcomes, and
/// `late_dropped_durations`, which `tests/fleet_soak.rs` pins on its own.
fn fleet_report(d: &mut Digest, r: &FleetReport) {
    d.word(r.horizon.as_nanos());
    d.word(r.ended.as_nanos());
    d.word(r.rounds);
    d.word(r.live_iterations);
    let f = &r.faults;
    for v in [f.crashes, f.degradations, f.link_failures, f.skipped] {
        d.word(v);
    }
    for v in [
        r.detections,
        r.isolations,
        r.replacements,
        r.dp_shrinks(),
        r.retries(),
        r.escalations,
        r.repairs_returned,
        r.cache_rebased_drops,
        r.stale_plan_routes,
    ] {
        d.word(v);
    }
    for j in &r.jobs {
        d.word(j.id);
        d.word(u64::from(j.completed));
        d.word(u64::from(j.failed));
        d.word(j.final_dp as u64);
        let a = &j.accounting;
        d.word(a.admitted.as_nanos());
        d.word(a.finished.map_or(u64::MAX, SimTime::as_nanos));
        for v in [
            a.iterations,
            a.degraded_iterations,
            a.productive.as_nanos(),
            a.downtime.as_nanos(),
            a.recoveries,
            a.retries,
            a.dp_shrinks,
        ] {
            d.word(v);
        }
    }
}

/// One simulated day of the 512-GPU benchmark soak (`FleetConfig::soak_512`)
/// at seeds 2 and 42: the control-loop census, the fault counts and every
/// job's outcome and time ledger.
#[test]
fn soak_512_day_is_unchanged() {
    for (seed, recorded) in [
        (2, (0x1df7_b747_9468_024b, 0xc8d8_0198_c2a8_03a9)),
        (42, (0xdac6_fbf4_89b9_c521, 0xc9a5_c1e1_5c29_6b08)),
    ] {
        let mut cfg = FleetConfig::soak_512(seed);
        cfg.horizon = SimDuration::from_hours(24);
        let r = FleetController::new(cfg).run();
        assert!(r.isolations > 0, "seed {seed}: the day isolates nodes");
        let mut d = Digest::new();
        fleet_report(&mut d, &r);
        assert_digests(
            &format!("soak_512 seed {seed}"),
            (d.0, fleet_counters(&r)),
            recorded,
        );
    }
}
