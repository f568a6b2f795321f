//! Bit-identity guard for seed-determined simulated results.
//!
//! Each case runs one fixed-seed simulation and folds it into two `mix64`
//! digests over 64-bit words, each compared against a recorded constant:
//!
//! * the **results** digest: for a drain, per flow the finish time and the
//!   mean, min and max rate, then the drain end, `link_bytes`,
//!   `cnp_per_port` and the congested count (a testbed drain of mixed QPs
//!   and an expert-parallel all-to-all); for a hybrid iteration, each
//!   phase's comm count, duration and bus bandwidth, the total and the
//!   per-rank EP bytes;
//! * the **counters** digest: every [`DrainSolverStats`] counter except
//!   `arena_hwm_bytes`, which measures scratch capacity rather than work.
//!
//! One case has a results digest only: noise-free plan-cached BSP
//! iterations and a fleet soak, the drains a [`PlanCache`] may replay
//! rather than re-drain. Its constant was recorded before the replay
//! existed, so it pins that a replayed drain reports what a fresh one does.
//!
//! A pure refactor of the drain, the solver or the collective layer must
//! leave every results digest unchanged; a change that moves any result by
//! one ulp fails here under plain `cargo test`, without a benchmark run. A
//! change to how the solver reaches the same results (more or fewer solves,
//! rounds or batches) moves only the counters digest. After an intentional
//! change, re-record the constants from the failure messages.

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

    fn drain(&mut self, r: &DrainReport) {
        for o in &r.outcomes {
            self.word(o.finish.map_or(u64::MAX, SimTime::as_nanos));
            self.float(o.mean_rate.as_bytes_per_sec());
            self.float(o.min_rate.as_bytes_per_sec());
            self.float(o.max_rate.as_bytes_per_sec());
        }
        self.word(r.end.as_nanos());
        for &b in r.link_bytes.iter() {
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
    d.drain(&report);
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
    d.drain(&report);
    assert_digests(
        "all-to-all drain",
        (d.0, counters(&report.solver)),
        (0x1ff0_1656_a3ab_119b, 0x395b_b71e_e1a8_1775),
    );
}

/// One noisy iteration of the TP2/PP2/EP2 hybrid job on the 8-node tiny
/// fabric under C4P (the job of `tests/hybrid_differential.rs`).
#[test]
fn noisy_tiny_hybrid_iteration_is_unchanged() {
    let topo = Topology::build(&ClosConfig::tiny(8));
    let mut spec = HybridSpec::moe(2, 2, 2);
    spec.tp_elems = 256 * 1024;
    spec.pp_elems = 128 * 1024;
    spec.dp_elems = 512 * 1024;
    spec.ep_elems = 256 * 1024;
    let nodes: Vec<NodeId> = (0..topo.num_nodes()).map(NodeId::from_index).collect();
    let mut job = HybridJob::new(&topo, spec, nodes, 1).expect("tiny hybrid places");
    job.drain = DrainConfig {
        rate_noise: 0.10,
        cnp: Some(CnpModel::paper_default()),
        ..DrainConfig::default()
    };
    job.set_ep_skew(EpSkew::hot(1, 3.0));
    let mut master = C4pMaster::new(&topo, C4pConfig::default());
    let report = job.run_iteration(&topo, &mut master, None, &mut DetRng::seed_from(5));
    assert!(!report.hung, "tiny hybrid iteration completes");

    let mut d = Digest::new();
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
    assert_digests(
        "tiny hybrid iteration",
        (d.0, counters(&report.solver)),
        (0x47a5_5437_32ca_e85a, 0xf9b0_6b4c_831d_6c57),
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
    job.register_telemetry(&topo, &mut tel);
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
        r.cache_hits,
        r.cache_misses,
        r.total_recoveries(),
    ] {
        d.word(v);
    }
    d.float(r.aggregate_goodput_fraction());
    const RECORDED: u64 = 0x8c29_4195_adf9_8638;
    assert_eq!(
        d.0, RECORDED,
        "noise-free iterations + soak: results digest {:#018x}, recorded {RECORDED:#018x}",
        d.0
    );
}
