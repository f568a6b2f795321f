//! 4D-hybrid parallel workloads: TP × PP × DP × EP traffic over one fabric.
//!
//! [`crate::iteration::TrainingJob`] models the paper's evaluation jobs,
//! whose only network traffic is the DP gradient ring. Thousands-of-GPU MoE
//! training produces a far more asymmetric matrix, and this module emits it
//! as four traffic families, all planned through the engine's
//! `run_concurrent_cached`/`select_batch` path so C4P path selection and the
//! plan cache face genuinely bursty, heterogeneous shapes:
//!
//! * **TP** — all-gathers confined to each node's NVLink domain (rails never
//!   see them, but they share NVLink with everything else);
//! * **PP** — point-to-point stage edges between adjacent pipeline stages
//!   (send/recv over the stage pair's rails);
//! * **DP** — cross-fabric allreduce rings, one per (stage, rail), striding
//!   the whole cluster;
//! * **EP** — expert-parallel all-to-alls inside slices of each DP group,
//!   with a hot-expert skew knob ([`EpSkew`]) that concentrates token bytes
//!   on one expert rank — the imbalance `c4d::smoothing`'s `LoadSmoother`
//!   window exists to keep out of the straggler detector.

use c4_collectives::alltoall::MAX_A2A_RANKS;
use c4_collectives::{
    channel_pair, run_concurrent_cached, CollKind, CollectiveRequest, CommConfig, Communicator,
    EpSkew, PlanCache, QpWeightFn,
};
use c4_netsim::{DrainConfig, DrainSolverStats, PathSelector};
use c4_simcore::{DetRng, SimDuration, SimTime};
use c4_telemetry::{DataType, LoadSample};
use c4_topology::{NodeId, Topology};

/// Shape and message sizes of a 4D-hybrid job.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridSpec {
    /// Display name.
    pub name: String,
    /// Tensor-parallel size (must divide GPUs/node; 1 disables TP traffic).
    pub tp: usize,
    /// Pipeline-parallel stages (must divide the node count; 1 disables PP
    /// traffic).
    pub pp: usize,
    /// Expert-parallel group size: ranks per all-to-all, sliced out of each
    /// DP ring (must divide nodes/stage; 1 disables EP traffic).
    pub ep: usize,
    /// Element type of every collective.
    pub dtype: DataType,
    /// All-gather elements per TP rank.
    pub tp_elems: u64,
    /// Send/recv elements per PP stage edge.
    pub pp_elems: u64,
    /// Allreduce elements per DP rank.
    pub dp_elems: u64,
    /// All-to-all elements per EP rank (its full dispatched token payload).
    pub ep_elems: u64,
    /// Hot-expert byte skew of the EP all-to-alls (rotate it per iteration
    /// with [`HybridJob::set_ep_skew`] to model shifting token routing).
    pub ep_skew: EpSkew,
}

impl HybridSpec {
    /// A Mixtral-style MoE shape: full-node TP, `pp` stages, `ep`-expert
    /// all-to-all groups, with message sizes balanced so no single family
    /// dwarfs the rest (TP 128 MiB, PP 64 MiB, DP 256 MiB, EP 64 MiB per
    /// rank at BF16).
    pub fn moe(tp: usize, pp: usize, ep: usize) -> Self {
        HybridSpec {
            name: format!("MoE TP{tp}/PP{pp}/EP{ep}"),
            tp,
            pp,
            ep,
            dtype: DataType::Bf16,
            tp_elems: 64 * 1024 * 1024,
            pp_elems: 32 * 1024 * 1024,
            dp_elems: 128 * 1024 * 1024,
            ep_elems: 32 * 1024 * 1024,
            ep_skew: EpSkew::default(),
        }
    }
}

/// One traffic family's outcome within an iteration.
#[derive(Debug, Clone)]
pub struct HybridPhase {
    /// The collective kind this phase ran.
    pub kind: CollKind,
    /// Communicators that participated.
    pub comms: usize,
    /// Phase duration (slowest collective, from phase start).
    pub duration: SimDuration,
    /// Mean bus bandwidth over the phase's collectives (Gbps); `None` on
    /// hang.
    pub busbw_mean_gbps: Option<f64>,
    /// True when any collective of the phase never completed.
    pub hung: bool,
}

/// What one hybrid iteration produced.
#[derive(Debug, Clone)]
pub struct HybridIterationReport {
    /// Completed phases in execution order (TP, PP, EP, DP; absent families
    /// are skipped).
    pub phases: Vec<HybridPhase>,
    /// Iteration wall time (phases run back to back).
    pub total: SimDuration,
    /// True when any phase hung.
    pub hung: bool,
    /// Per-EP-communicator, per-rank bytes *received* this iteration — the
    /// expert-load signal the EP-imbalance detection study feeds into
    /// `c4d`'s raw and smoothed straggler tests.
    pub ep_recv_bytes: Vec<Vec<u64>>,
    /// Drain-solver counters folded across the iteration's phases (each
    /// phase is one shared drain; counters add, high-water marks take the
    /// max).
    pub solver: DrainSolverStats,
}

impl HybridIterationReport {
    /// The phase outcome of one collective kind, if it ran.
    pub fn phase(&self, kind: CollKind) -> Option<&HybridPhase> {
        self.phases.iter().find(|p| p.kind == kind)
    }
}

/// A placed 4D-hybrid job: owns its four communicator families, plan cache
/// and virtual clock.
#[derive(Debug, Clone)]
pub struct HybridJob {
    spec: HybridSpec,
    nodes: Vec<NodeId>,
    tp_comms: Vec<Communicator>,
    pp_comms: Vec<Communicator>,
    dp_comms: Vec<Communicator>,
    ep_comms: Vec<Communicator>,
    seq: u64,
    now: SimTime,
    plan_cache: PlanCache,
    /// Drain configuration of every phase (noise, CNP, thread budget);
    /// `start`/`deadline` are overridden per phase.
    pub drain: DrainConfig,
    /// Give-up horizon per phase (hang modelling).
    pub comm_deadline: SimDuration,
}

impl HybridJob {
    /// Places the job on `nodes` (PP-stage-major order: stage `s` owns
    /// `nodes[s × nodes/pp .. (s+1) × nodes/pp]`) and derives all four
    /// communicator families:
    ///
    /// * TP: one all-gather group per (node, column) over `tp` adjacent
    ///   GPUs — NVLink-local;
    /// * PP: one send/recv pair per (stage edge, node position) joining the
    ///   full nodes of adjacent stages;
    /// * DP: one allreduce ring per (stage, GPU local index) spanning the
    ///   stage's nodes — rail-aligned, cross-fabric;
    /// * EP: each DP ring sliced into `ep`-rank all-to-all groups.
    ///
    /// `comm_base` namespaces communicator ids so concurrent jobs don't
    /// collide.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated shape rule, including
    /// an EP group larger than an all-to-all plan holds
    /// ([`MAX_A2A_RANKS`] ranks).
    pub fn new(
        topo: &Topology,
        spec: HybridSpec,
        nodes: Vec<NodeId>,
        comm_base: u64,
    ) -> Result<Self, String> {
        let gpn = topo.config().gpus_per_node;
        if spec.tp == 0 || spec.pp == 0 || spec.ep == 0 {
            return Err("tp/pp/ep must be positive".into());
        }
        if !gpn.is_multiple_of(spec.tp) {
            return Err(format!("tp ({}) must divide GPUs/node ({gpn})", spec.tp));
        }
        if nodes.is_empty() || !nodes.len().is_multiple_of(spec.pp) {
            return Err(format!(
                "pp ({}) must divide the node count ({})",
                spec.pp,
                nodes.len()
            ));
        }
        let nodes_per_stage = nodes.len() / spec.pp;
        if !nodes_per_stage.is_multiple_of(spec.ep) {
            return Err(format!(
                "ep ({}) must divide nodes/stage ({nodes_per_stage})",
                spec.ep
            ));
        }
        if spec.ep > MAX_A2A_RANKS {
            return Err(format!(
                "ep ({}) exceeds the {MAX_A2A_RANKS}-rank all-to-all limit",
                spec.ep
            ));
        }
        for &n in &nodes {
            if !topo.is_node_healthy(n) {
                return Err(format!("node {n} is isolated"));
            }
        }

        let mut next_id = comm_base;
        let mut comm = |devices: Vec<_>| -> Result<Communicator, String> {
            let c = Communicator::new(next_id, devices, topo).map_err(|e| e.to_string())?;
            next_id += 1;
            Ok(c)
        };

        // TP: NVLink all-gather groups, `gpn / tp` columns per node.
        let mut tp_comms = Vec::new();
        if spec.tp > 1 {
            for &n in &nodes {
                for c in 0..gpn / spec.tp {
                    let devices = (0..spec.tp)
                        .map(|t| topo.gpu_at(n, c * spec.tp + t))
                        .collect();
                    tp_comms.push(comm(devices)?);
                }
            }
        }

        // PP: adjacent-stage node pairs at matching positions.
        let mut pp_comms = Vec::new();
        if spec.pp > 1 {
            for s in 0..spec.pp - 1 {
                for k in 0..nodes_per_stage {
                    let a = nodes[s * nodes_per_stage + k];
                    let b = nodes[(s + 1) * nodes_per_stage + k];
                    let mut devices: Vec<_> = topo.node(a).gpus.clone();
                    devices.extend_from_slice(&topo.node(b).gpus);
                    pp_comms.push(comm(devices)?);
                }
            }
        }

        // DP: rail-aligned rings across each stage's nodes; EP: `ep`-rank
        // slices of each ring.
        let mut dp_comms = Vec::new();
        let mut ep_comms = Vec::new();
        if nodes_per_stage > 1 {
            for s in 0..spec.pp {
                let stage_nodes = &nodes[s * nodes_per_stage..(s + 1) * nodes_per_stage];
                for g in 0..gpn {
                    let devices: Vec<_> = stage_nodes.iter().map(|&n| topo.gpu_at(n, g)).collect();
                    if spec.ep > 1 {
                        for slice in devices.chunks(spec.ep) {
                            ep_comms.push(comm(slice.to_vec())?);
                        }
                    }
                    dp_comms.push(comm(devices)?);
                }
            }
        }

        Ok(HybridJob {
            spec,
            nodes,
            tp_comms,
            pp_comms,
            dp_comms,
            ep_comms,
            seq: 0,
            now: SimTime::ZERO,
            plan_cache: PlanCache::new(),
            drain: DrainConfig::default(),
            comm_deadline: SimDuration::from_secs(120),
        })
    }

    /// The job spec.
    pub fn spec(&self) -> &HybridSpec {
        &self.spec
    }

    /// Assigned nodes, PP-stage-major.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// TP (NVLink all-gather) communicators.
    pub fn tp_comms(&self) -> &[Communicator] {
        &self.tp_comms
    }

    /// PP (stage-edge send/recv) communicators.
    pub fn pp_comms(&self) -> &[Communicator] {
        &self.pp_comms
    }

    /// DP (cross-fabric allreduce ring) communicators.
    pub fn dp_comms(&self) -> &[Communicator] {
        &self.dp_comms
    }

    /// EP (all-to-all) communicators.
    pub fn ep_comms(&self) -> &[Communicator] {
        &self.ep_comms
    }

    /// Virtual clock (advances across iterations).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Completed iteration count.
    pub fn iterations(&self) -> u64 {
        self.seq
    }

    /// The job's flow-plan cache (shared by all four families).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// Mutable access to the plan cache (explicit invalidation).
    pub fn plan_cache_mut(&mut self) -> &mut PlanCache {
        &mut self.plan_cache
    }

    /// Points the EP all-to-alls at a (new) hot expert. Skew scales bytes,
    /// not routes, so cached plans survive the rotation.
    pub fn set_ep_skew(&mut self, skew: EpSkew) {
        self.spec.ep_skew = skew;
    }

    /// Flattens one iteration's per-expert received bytes into telemetry
    /// [`LoadSample`]s — one per (EP communicator, rank), stamped with the
    /// job clock after that iteration and `step` as the logical step. This
    /// is the source feeding the streaming EP-imbalance detectors
    /// (`c4_diagnosis::StreamSmoother`); samples are emitted
    /// communicator-major, rank-ascending — the canonical order windowed
    /// aggregation folds them in.
    pub fn ep_load_samples(&self, report: &HybridIterationReport, step: u64) -> Vec<LoadSample> {
        let at = self.now;
        self.ep_comms
            .iter()
            .zip(&report.ep_recv_bytes)
            .flat_map(|(comm, recv)| {
                let id = comm.id();
                recv.iter().enumerate().map(move |(rank, &b)| LoadSample {
                    comm: id,
                    rank: rank as u32,
                    step,
                    at,
                    value: b as f64,
                })
            })
            .collect()
    }

    /// Runs one iteration: the four phases back to back (TP all-gather,
    /// PP send/recv, EP all-to-all, DP allreduce), each a single shared
    /// drain over its family's collectives.
    pub fn run_iteration(
        &mut self,
        topo: &Topology,
        selector: &mut dyn PathSelector,
        qp_weights: Option<&QpWeightFn<'_>>,
        rng: &mut DetRng,
    ) -> HybridIterationReport {
        let start = self.now;
        let mut t = start;
        let mut phases = Vec::with_capacity(4);
        let mut ep_recv_bytes = Vec::new();
        let mut solver = DrainSolverStats::default();

        struct Phase<'a> {
            kind: CollKind,
            comms: &'a [Communicator],
            count: u64,
        }
        let order = [
            Phase {
                kind: CollKind::AllGather,
                comms: &self.tp_comms,
                count: self.spec.tp_elems,
            },
            Phase {
                kind: CollKind::SendRecv,
                comms: &self.pp_comms,
                count: self.spec.pp_elems,
            },
            Phase {
                kind: CollKind::AllToAll,
                comms: &self.ep_comms,
                count: self.spec.ep_elems,
            },
            Phase {
                kind: CollKind::AllReduce,
                comms: &self.dp_comms,
                count: self.spec.dp_elems,
            },
        ];

        let config = CommConfig {
            ep_skew: self.spec.ep_skew,
        };
        for phase in order {
            if phase.comms.is_empty() {
                continue;
            }
            let drain = DrainConfig {
                deadline: Some(t + self.comm_deadline),
                ..self.drain.clone()
            };
            let requests: Vec<CollectiveRequest<'_>> = phase
                .comms
                .iter()
                .map(|comm| CollectiveRequest {
                    comm,
                    seq: self.seq,
                    kind: phase.kind,
                    dtype: self.spec.dtype,
                    count: phase.count,
                    config,
                    start: t,
                    rank_ready: None,
                    drain: drain.clone(),
                })
                .collect();
            let results = run_concurrent_cached(
                topo,
                &requests,
                selector,
                qp_weights,
                rng,
                None,
                Some(&mut self.plan_cache),
            );

            // One shared drain per phase: every result shares the call's
            // report, so fold its counters once rather than per result.
            if let Some(first) = results.first() {
                solver.merge(&first.report.solver);
            }
            let hung = results.iter().any(|r| r.hung());
            let end = results
                .iter()
                .filter_map(|r| r.finished)
                .max()
                .unwrap_or(t + self.comm_deadline);
            let busbws: Vec<f64> = results.iter().filter_map(|r| r.busbw_gbps()).collect();
            if phase.kind == CollKind::AllToAll {
                // Expert load per EP rank: bytes received, summed over the
                // pairwise flows by destination rank (pair decoded from the
                // flow channel).
                for (comm, res) in phase.comms.iter().zip(&results) {
                    let mut recv = vec![0u64; comm.nranks()];
                    for o in res.intra_outcomes.iter().chain(&res.qp_outcomes) {
                        let (_, dst) = channel_pair(o.key.channel);
                        recv[dst as usize] += o.bytes.as_bytes();
                    }
                    ep_recv_bytes.push(recv);
                }
            }
            phases.push(HybridPhase {
                kind: phase.kind,
                comms: phase.comms.len(),
                duration: end - t,
                busbw_mean_gbps: (!hung && !busbws.is_empty())
                    .then(|| busbws.iter().sum::<f64>() / busbws.len() as f64),
                hung,
            });
            t = end;
        }

        self.now = t;
        self.seq += 1;
        HybridIterationReport {
            total: t - start,
            hung: phases.iter().any(|p| p.hung),
            phases,
            ep_recv_bytes,
            solver,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4_netsim::{EcmpSelector, RailLocalSelector};
    use c4_topology::ClosConfig;

    fn topo() -> Topology {
        Topology::build(&ClosConfig::testbed_128())
    }

    fn nodes(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::from_index).collect()
    }

    #[test]
    fn family_shapes_follow_the_decomposition() {
        let t = topo();
        // 16 nodes × 8 GPUs, TP8 / PP4 / EP2: 4 nodes per stage.
        let job = HybridJob::new(&t, HybridSpec::moe(8, 4, 2), nodes(16), 1000).unwrap();
        assert_eq!(job.tp_comms().len(), 16); // one column per node
        assert_eq!(job.pp_comms().len(), 3 * 4); // stage edges × positions
        assert_eq!(job.dp_comms().len(), 4 * 8); // stages × rails
        assert_eq!(job.ep_comms().len(), 4 * 8 * 2); // each DP ring → 2 slices
        for c in job.tp_comms() {
            assert_eq!(c.nodes().len(), 1);
            assert_eq!(c.nranks(), 8);
        }
        for c in job.dp_comms() {
            assert_eq!(c.nranks(), 4);
            // Rail-aligned: every member shares one local index.
            let li = t.gpu(c.devices()[0]).local_index;
            assert!(c.devices().iter().all(|&g| t.gpu(g).local_index == li));
        }
        for c in job.ep_comms() {
            assert_eq!(c.nranks(), 2);
        }
        // All ids distinct.
        let mut ids: Vec<u64> = job
            .tp_comms()
            .iter()
            .chain(job.pp_comms())
            .chain(job.dp_comms())
            .chain(job.ep_comms())
            .map(|c| c.id())
            .collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn shape_rules_are_enforced() {
        let t = topo();
        assert!(HybridJob::new(&t, HybridSpec::moe(3, 2, 2), nodes(16), 0).is_err());
        assert!(HybridJob::new(&t, HybridSpec::moe(8, 3, 2), nodes(16), 0).is_err());
        assert!(HybridJob::new(&t, HybridSpec::moe(8, 2, 3), nodes(16), 0).is_err());
        let mut spec = HybridSpec::moe(8, 2, 2);
        spec.ep = 0;
        assert!(HybridJob::new(&t, spec, nodes(16), 0).is_err());
    }

    #[test]
    fn ep_groups_beyond_the_all_to_all_limit_are_rejected() {
        // 512 two-GPU nodes, one stage: EP512 divides the stage, but an
        // all-to-all plan holds at most MAX_A2A_RANKS ranks.
        let t = Topology::build(&ClosConfig::tiny(512));
        let err = HybridJob::new(&t, HybridSpec::moe(2, 1, 512), nodes(512), 0).unwrap_err();
        assert!(err.contains("all-to-all limit"), "{err}");
        let job = HybridJob::new(&t, HybridSpec::moe(2, 2, MAX_A2A_RANKS), nodes(512), 0)
            .expect("EP at the limit places");
        assert!(job.ep_comms().iter().all(|c| c.nranks() == MAX_A2A_RANKS));
    }

    #[test]
    fn iteration_runs_all_four_phases() {
        let t = topo();
        let mut job = HybridJob::new(&t, HybridSpec::moe(8, 4, 2), nodes(16), 1).unwrap();
        let mut sel = RailLocalSelector::new();
        let mut rng = DetRng::seed_from(1);
        let r = job.run_iteration(&t, &mut sel, None, &mut rng);
        assert!(!r.hung);
        assert_eq!(r.phases.len(), 4);
        let kinds: Vec<CollKind> = r.phases.iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            vec![
                CollKind::AllGather,
                CollKind::SendRecv,
                CollKind::AllToAll,
                CollKind::AllReduce
            ]
        );
        for p in &r.phases {
            assert!(p.duration > SimDuration::ZERO, "{} phase", p.kind);
            assert!(p.busbw_mean_gbps.unwrap() > 0.0);
        }
        assert_eq!(r.ep_recv_bytes.len(), job.ep_comms().len());
        assert_eq!(job.iterations(), 1);
        assert_eq!(job.now(), SimTime::ZERO + r.total);
    }

    #[test]
    fn hot_expert_skew_shifts_received_bytes() {
        let t = topo();
        // EP4 slices so a hot expert stands out among 4 ranks.
        let mut job = HybridJob::new(&t, HybridSpec::moe(8, 2, 4), nodes(16), 1).unwrap();
        job.set_ep_skew(EpSkew::hot(2, 4.0));
        let mut sel = RailLocalSelector::new();
        let mut rng = DetRng::seed_from(2);
        let r = job.run_iteration(&t, &mut sel, None, &mut rng);
        for recv in &r.ep_recv_bytes {
            let hot = recv[2] as f64;
            for (rank, &b) in recv.iter().enumerate() {
                if rank != 2 {
                    assert!(
                        hot / b as f64 > 2.5,
                        "hot rank should draw ≈4× cold: {hot} vs {b}"
                    );
                }
            }
        }
        // Bytes are conserved: each of the 4 ranks sends its full message.
        let msg = job.spec().ep_elems * 2; // BF16
        for recv in &r.ep_recv_bytes {
            let total: u64 = recv.iter().sum();
            let expect = 4 * msg;
            assert!(
                (total as f64 - expect as f64).abs() / (expect as f64) < 1e-6,
                "total {total} vs {expect}"
            );
        }
    }

    #[test]
    fn ep_load_samples_flatten_received_bytes_in_canonical_order() {
        let t = topo();
        let mut job = HybridJob::new(&t, HybridSpec::moe(8, 2, 4), nodes(16), 1).unwrap();
        let mut sel = RailLocalSelector::new();
        let mut rng = DetRng::seed_from(2);
        let r = job.run_iteration(&t, &mut sel, None, &mut rng);
        let samples = job.ep_load_samples(&r, 0);
        assert_eq!(samples.len(), job.ep_comms().len() * 4);
        // Communicator-major, rank-ascending; values mirror ep_recv_bytes.
        let first = job.ep_comms()[0].id();
        assert!(samples[..4].iter().all(|s| s.comm == first));
        assert_eq!(samples[1].rank, 1);
        assert_eq!(samples[0].value, r.ep_recv_bytes[0][0] as f64);
        assert!(samples.iter().all(|s| s.at == job.now() && s.step == 0));
    }

    #[test]
    fn noise_free_iterations_replay_every_phase() {
        let t = topo();
        let mut job = HybridJob::new(&t, HybridSpec::moe(8, 2, 4), nodes(16), 1).unwrap();
        let mut sel = EcmpSelector::new(5);
        let mut rng = DetRng::seed_from(5);
        let first = job.run_iteration(&t, &mut sel, None, &mut rng);
        assert_eq!(job.plan_cache().drain_reuses(), 0);
        // Each phase keeps its own memo slot: all four replay.
        let second = job.run_iteration(&t, &mut sel, None, &mut rng);
        assert_eq!(job.plan_cache().drain_reuses(), 4);
        let durations = |r: &HybridIterationReport| -> Vec<SimDuration> {
            r.phases.iter().map(|p| p.duration).collect()
        };
        assert_eq!(durations(&first), durations(&second));
        assert_eq!(first.solver, second.solver);
        // A skew rotation moves EP bytes: that phase drains afresh.
        job.set_ep_skew(EpSkew::hot(0, 3.0));
        job.run_iteration(&t, &mut sel, None, &mut rng);
        assert_eq!(job.plan_cache().drain_reuses(), 4 + 3);
    }

    #[test]
    fn plan_cache_serves_every_family_across_iterations() {
        let t = topo();
        let mut job = HybridJob::new(&t, HybridSpec::moe(8, 4, 2), nodes(16), 1).unwrap();
        let families = job.tp_comms().len()
            + job.pp_comms().len()
            + job.dp_comms().len()
            + job.ep_comms().len();
        let mut sel = EcmpSelector::new(3);
        let mut rng = DetRng::seed_from(3);
        job.run_iteration(&t, &mut sel, None, &mut rng);
        assert_eq!(job.plan_cache().misses(), families as u64);
        assert_eq!(job.plan_cache().hits(), 0);
        // A skew rotation must NOT invalidate cached plans.
        job.set_ep_skew(EpSkew::hot(0, 3.0));
        job.run_iteration(&t, &mut sel, None, &mut rng);
        assert_eq!(job.plan_cache().misses(), families as u64, "all reused");
        assert_eq!(job.plan_cache().hits(), families as u64);
    }
}
