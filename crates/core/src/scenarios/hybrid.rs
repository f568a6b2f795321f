//! The 4D-hybrid workload at scale: TP/PP/DP/EP traffic competing for one
//! `pod_grouped_railed` fabric, ECMP vs C4P, plus the Expert-Parallel
//! imbalance study behind the paper's §V smoothing proposal.
//!
//! Two experiments:
//!
//! * [`run_scale`] — a Mixtral-style TP8/PP8/EP8 job on 512…4096 GPUs, one
//!   BSP iteration = four back-to-back traffic phases (NVLink all-gathers,
//!   stage-edge send/recv, expert all-to-alls with a rotating hot expert,
//!   cross-fabric allreduce rings), all planned through the batched
//!   selection path with the paper's DCQCN noise and CNP accounting live.
//!   Both selectors run the identical workload; the row records per-phase
//!   bus bandwidths, the simulated iteration wall, plan-build and drain
//!   wall clocks — the `BENCH_hybrid.json` document CI gates at 2×.
//! * [`run_ep_imbalance`] — the detection-side study: per-expert received
//!   bytes from the EP all-to-alls feed both the **raw** straggler test and
//!   [`LoadSmoother`]'s windowed-mean test. A rotating hot expert (healthy
//!   MoE routing) makes the raw detector fire nearly every step; the
//!   smoothed detector stays silent, yet still catches a genuinely pinned
//!   hot expert within a window of its onset.
//!
//! [`LoadSmoother`]: c4_diagnosis::LoadSmoother

use std::time::Instant;

use c4_collectives::EpSkew;
use c4_diagnosis::{raw_straggler, LoadSmoother, StepVerdict, StreamSmoother};
use c4_netsim::{
    mix64, CnpModel, DrainConfig, DrainSolverStats, EcmpSelector, PathSelector, SolveMode,
};
use c4_simcore::{DetRng, JsonValue, ParallelPolicy};
use c4_telemetry::{CollKind, TelemetryEvent};
use c4_topology::{ClosConfig, NodeId, Topology};
use c4_traffic::{C4pConfig, C4pMaster};
use c4_trainsim::{HybridJob, HybridSpec};

/// Configuration of the hybrid-workload scale sweep.
#[derive(Debug, Clone)]
pub struct HybridScaleConfig {
    /// Root random seed.
    pub seed: u64,
    /// BSP iterations per (scale, selector) cell.
    pub iters: usize,
    /// Cluster sizes in nodes (GPUs = 8 × nodes). Each must be a multiple
    /// of 64 so TP8/PP8/EP8 places: 8 stages of `nodes / 8` nodes, with 8
    /// dividing nodes/stage.
    pub node_scales: Vec<usize>,
    /// The job shape and message sizes every cell runs.
    pub spec: HybridSpec,
    /// Thread budget (simulated results are bit-identical at any value).
    pub parallel: ParallelPolicy,
    /// Rate solver the drains run under. The 4k sweep stays on the exact
    /// solver (its baseline predates the two-tier mode); the 16k/32k
    /// extensions run [`SolveMode::TwoTier`] with ε = 1% — the differential
    /// proptests pin the rate error bound.
    pub solve_mode: SolveMode,
}

impl HybridScaleConfig {
    /// The CI-gated sweep: the full-size TP8/PP8/EP8 MoE job at 512…4096
    /// GPUs.
    pub fn scale_4096(seed: u64, iters: usize) -> Self {
        HybridScaleConfig {
            seed,
            iters,
            node_scales: vec![64, 128, 256, 512],
            spec: HybridSpec::moe(8, 8, 8),
            parallel: ParallelPolicy::default(),
            solve_mode: SolveMode::Exact,
        }
    }

    /// The 16k extension: the same TP8/PP8/EP8 MoE job at 8192 and 16384
    /// GPUs (gated separately from the 4k sweep so that baseline stays
    /// comparable across PRs).
    pub fn scale_16384(seed: u64, iters: usize) -> Self {
        HybridScaleConfig {
            seed,
            iters,
            node_scales: vec![1024, 2048],
            spec: HybridSpec::moe(8, 8, 8),
            parallel: ParallelPolicy::default(),
            solve_mode: SolveMode::TwoTier { epsilon: 0.01 },
        }
    }

    /// The 32k extension: the 32768-GPU cell.
    pub fn scale_32768(seed: u64, iters: usize) -> Self {
        HybridScaleConfig {
            seed,
            iters,
            node_scales: vec![4096],
            spec: HybridSpec::moe(8, 8, 8),
            parallel: ParallelPolicy::default(),
            solve_mode: SolveMode::TwoTier { epsilon: 0.01 },
        }
    }
}

/// One scale point: both selectors on the identical 4-phase workload.
#[derive(Debug, Clone)]
pub struct HybridScaleRow {
    /// Total GPUs.
    pub gpus: usize,
    /// Mean simulated iteration wall under ECMP, milliseconds.
    pub ecmp_iter_ms: f64,
    /// Mean simulated iteration wall under C4P, milliseconds.
    pub c4p_iter_ms: f64,
    /// Iteration-time advantage: `ecmp_iter / c4p_iter − 1`.
    pub improvement: f64,
    /// Mean EP all-to-all bus bandwidth, ECMP, Gbps.
    pub ecmp_ep_gbps: f64,
    /// Mean EP all-to-all bus bandwidth, C4P, Gbps.
    pub c4p_ep_gbps: f64,
    /// Mean DP allreduce bus bandwidth, ECMP, Gbps.
    pub ecmp_dp_gbps: f64,
    /// Mean DP allreduce bus bandwidth, C4P, Gbps.
    pub c4p_dp_gbps: f64,
    /// ECMP plan-build wall clock (all four families), milliseconds.
    pub ecmp_plan_ms: f64,
    /// C4P plan-build wall clock, milliseconds.
    pub c4p_plan_ms: f64,
    /// ECMP iteration-loop wall net of plan building, milliseconds.
    pub ecmp_drain_ms: f64,
    /// C4P drain wall clock, milliseconds.
    pub c4p_drain_ms: f64,
    /// Whole-cell wall clock, milliseconds.
    pub wall_ms: f64,
    /// Solver counters folded over every ECMP iteration of the cell.
    pub ecmp_solver: DrainSolverStats,
    /// Solver counters folded over every C4P iteration of the cell.
    pub c4p_solver: DrainSolverStats,
}

/// The full hybrid sweep plus `BENCH_hybrid.json` timing metadata.
#[derive(Debug, Clone)]
pub struct HybridScaleSweep {
    /// Per-scale rows.
    pub rows: Vec<HybridScaleRow>,
    /// Whole-sweep wall clock, milliseconds.
    pub total_wall_ms: f64,
    /// Thread budget the sweep ran under.
    pub threads: usize,
    /// The root seed.
    pub seed: u64,
    /// Iterations per cell.
    pub iters: usize,
    /// Rate solver every drain of the sweep ran under.
    pub solve_mode: SolveMode,
}

/// Stage-major node order for `pp` stages over `nodes` stride-`pp` ids:
/// stage `s` owns nodes `s, s+pp, s+2·pp, …` — adjacent stages sit on
/// adjacent node ids (PP edges stay leaf-group-local on the grouped
/// fabrics) while each stage's DP/EP rings stride across the groups and
/// cross the spine layer.
fn stage_major_nodes(nodes: usize, pp: usize) -> Vec<NodeId> {
    let per_stage = nodes / pp;
    let mut out = Vec::with_capacity(nodes);
    for s in 0..pp {
        for k in 0..per_stage {
            out.push(NodeId::from_index(s + pp * k));
        }
    }
    out
}

/// Per-selector outcome of one cell.
struct ModeStats {
    iter_ms: f64,
    ep_gbps: f64,
    dp_gbps: f64,
    plan_ms: f64,
    drain_ms: f64,
    solver: DrainSolverStats,
}

/// Runs one selector over `iters` hybrid iterations, rotating the hot
/// expert round-robin (offset by the cell rng) so both selectors see the
/// identical skew sequence.
fn run_hybrid_mode(
    topo: &Topology,
    cfg: &HybridScaleConfig,
    selector: &mut dyn PathSelector,
    rng: &mut DetRng,
) -> ModeStats {
    let mode_start = Instant::now();
    let spec = cfg.spec.clone();
    let ep = spec.ep;
    let nodes = stage_major_nodes(topo.num_nodes(), spec.pp);
    let mut job = HybridJob::new(topo, spec, nodes, 1).expect("sweep shape places");
    job.drain = DrainConfig {
        rate_noise: 0.10,
        cnp: Some(CnpModel::paper_default()),
        parallel: cfg.parallel,
        solve_mode: cfg.solve_mode,
        ..DrainConfig::default()
    };
    let offset = rng.index(ep);
    let mut iter_secs = 0.0;
    let (mut ep_sum, mut dp_sum) = (0.0, 0.0);
    let mut solver = DrainSolverStats::default();
    for it in 0..cfg.iters {
        job.set_ep_skew(EpSkew::hot(((offset + it) % ep) as u32, 4.0));
        let r = job.run_iteration(topo, selector, None, rng);
        assert!(!r.hung, "healthy fabric must not hang");
        solver.merge(&r.solver);
        iter_secs += r.total.as_secs_f64();
        ep_sum += r
            .phase(CollKind::AllToAll)
            .and_then(|p| p.busbw_mean_gbps)
            .unwrap_or(0.0);
        dp_sum += r
            .phase(CollKind::AllReduce)
            .and_then(|p| p.busbw_mean_gbps)
            .unwrap_or(0.0);
    }
    let n = cfg.iters.max(1) as f64;
    let plan_ms = job.plan_cache().build_wall_ms();
    let mode_ms = mode_start.elapsed().as_secs_f64() * 1e3;
    ModeStats {
        iter_ms: iter_secs * 1e3 / n,
        ep_gbps: ep_sum / n,
        dp_gbps: dp_sum / n,
        plan_ms,
        drain_ms: (mode_ms - plan_ms).max(0.0),
        solver,
    }
}

/// Runs the hybrid-workload scale sweep: ECMP vs C4P on identical 4-phase
/// iterations at every scale point.
///
/// # Panics
///
/// Panics if a scale point cannot place the TP8/PP8/EP8 job (see
/// [`HybridScaleConfig::node_scales`]).
pub fn run_scale(cfg: &HybridScaleConfig) -> HybridScaleSweep {
    assert!(
        !cfg.node_scales.is_empty(),
        "sweep needs at least one scale"
    );
    let sweep_start = Instant::now();
    let mut rows = Vec::new();
    for &nodes in &cfg.node_scales {
        let row_start = Instant::now();
        let clos = ClosConfig::pod_grouped_railed(nodes, 8);
        let topo = Topology::build(&clos);
        let mut rng = DetRng::seed_from(cfg.seed ^ mix64(0x4D ^ nodes as u64));

        let mut ecmp = EcmpSelector::new(cfg.seed ^ 0xEC3F ^ nodes as u64);
        let e = run_hybrid_mode(&topo, cfg, &mut ecmp, &mut rng);

        let mut master = C4pMaster::new(&topo, C4pConfig::default()).with_parallel(cfg.parallel);
        let c = run_hybrid_mode(&topo, cfg, &mut master, &mut rng);

        rows.push(HybridScaleRow {
            gpus: nodes * clos.gpus_per_node,
            ecmp_iter_ms: e.iter_ms,
            c4p_iter_ms: c.iter_ms,
            improvement: e.iter_ms / c.iter_ms.max(1e-9) - 1.0,
            ecmp_ep_gbps: e.ep_gbps,
            c4p_ep_gbps: c.ep_gbps,
            ecmp_dp_gbps: e.dp_gbps,
            c4p_dp_gbps: c.dp_gbps,
            ecmp_plan_ms: e.plan_ms,
            c4p_plan_ms: c.plan_ms,
            ecmp_drain_ms: e.drain_ms,
            c4p_drain_ms: c.drain_ms,
            wall_ms: row_start.elapsed().as_secs_f64() * 1e3,
            ecmp_solver: e.solver,
            c4p_solver: c.solver,
        });
    }
    HybridScaleSweep {
        rows,
        total_wall_ms: sweep_start.elapsed().as_secs_f64() * 1e3,
        threads: cfg.parallel.threads(),
        seed: cfg.seed,
        iters: cfg.iters,
        solve_mode: cfg.solve_mode,
    }
}

/// A [`DrainSolverStats`] as the nested `c4-bench-v1` solver column.
fn solver_json(s: &DrainSolverStats) -> JsonValue {
    let mut o = JsonValue::object();
    o.push("events", s.events)
        .push("flows", s.flows)
        .push("full_solves", s.full_solves)
        .push("component_solves", s.component_solves)
        .push("sparse_solves", s.sparse_solves)
        .push("spine_rounds", s.spine_rounds)
        .push("spine_link_updates", s.spine_link_updates)
        .push("fallback_solves", s.fallback_solves)
        .push("batched_instants", s.batched_instants)
        .push("batched_completions", s.batched_completions)
        .push("arena_hwm_bytes", s.arena_hwm_bytes);
    o
}

impl HybridScaleSweep {
    /// The sweep as the `BENCH_hybrid.json` document (`c4-bench-v1`).
    pub fn to_json(&self) -> JsonValue {
        let mut config = JsonValue::object();
        config
            .push("seed", self.seed)
            .push("iters", self.iters)
            .push("threads", self.threads)
            .push("solve_mode", format!("{:?}", self.solve_mode));
        let rows: Vec<JsonValue> = self
            .rows
            .iter()
            .map(|r| {
                let mut row = JsonValue::object();
                row.push("gpus", r.gpus)
                    .push("ecmp_iter_ms", r.ecmp_iter_ms)
                    .push("c4p_iter_ms", r.c4p_iter_ms)
                    .push("improvement", r.improvement)
                    .push("ecmp_ep_gbps", r.ecmp_ep_gbps)
                    .push("c4p_ep_gbps", r.c4p_ep_gbps)
                    .push("ecmp_dp_gbps", r.ecmp_dp_gbps)
                    .push("c4p_dp_gbps", r.c4p_dp_gbps)
                    .push("ecmp_plan_ms", r.ecmp_plan_ms)
                    .push("c4p_plan_ms", r.c4p_plan_ms)
                    .push("ecmp_drain_ms", r.ecmp_drain_ms)
                    .push("c4p_drain_ms", r.c4p_drain_ms)
                    .push("wall_ms", r.wall_ms)
                    .push("ecmp_solver", solver_json(&r.ecmp_solver))
                    .push("c4p_solver", solver_json(&r.c4p_solver));
                row
            })
            .collect();
        let mut doc = JsonValue::object();
        doc.push("schema", "c4-bench-v1")
            .push("bench", "hybrid_scale_sweep")
            .push("config", config)
            .push("rows", JsonValue::Array(rows))
            .push("total_wall_ms", self.total_wall_ms);
        doc
    }
}

/// Configuration of the EP-imbalance detection study.
#[derive(Debug, Clone)]
pub struct EpImbalanceConfig {
    /// Root random seed.
    pub seed: u64,
    /// Cluster size in nodes — a valid 8-group railed fabric (≥ 32) on
    /// which TP8/PP2/EP8 places.
    pub nodes: usize,
    /// Steps with healthy (rotating) expert routing.
    pub rotate_steps: usize,
    /// Steps after the hot expert pins to one rank.
    pub pinned_steps: usize,
    /// Smoothing window (steps); the paper's "predefined period".
    pub window: usize,
    /// Straggler threshold: worst/median load ratio that fires a detector.
    pub factor: f64,
    /// Hot-expert byte skew factor of every step.
    pub hot_factor: f64,
}

impl EpImbalanceConfig {
    /// The default study: 256 GPUs, 8 experts, a 2× detection threshold
    /// against a 4× routing skew, smoothing window = one full rotation.
    pub fn default_study(seed: u64) -> Self {
        EpImbalanceConfig {
            seed,
            nodes: 32,
            rotate_steps: 16,
            pinned_steps: 8,
            window: 8,
            factor: 2.0,
            hot_factor: 4.0,
        }
    }
}

/// Outcome of the EP-imbalance detection study.
#[derive(Debug, Clone)]
pub struct EpImbalanceReport {
    /// Steps with rotating (healthy) routing.
    pub rotate_steps: usize,
    /// Steps with the hot expert pinned (systemic imbalance).
    pub pinned_steps: usize,
    /// Rotation steps where the **raw** per-step detector fired — every one
    /// a false positive.
    pub raw_false_positives: usize,
    /// Rotation steps where the smoothed detector fired (should be zero).
    pub smoothed_false_positives: usize,
    /// Step index (within the pinned phase) at which the smoothed detector
    /// first flagged the pinned expert; `None` if it never did.
    pub smoothed_detect_step: Option<usize>,
    /// The rank the smoothed detector flagged.
    pub detected_rank: Option<usize>,
    /// The rank the hot expert was pinned to.
    pub pinned_rank: usize,
    /// Rotation steps the **streamed** raw detector (a window-1
    /// [`StreamSmoother`] fed [`TelemetryEvent::Load`]s) flagged — must
    /// equal [`raw_false_positives`](Self::raw_false_positives).
    pub streamed_raw_false_positives: usize,
    /// Rotation steps the streamed windowed detector flagged — must equal
    /// [`smoothed_false_positives`](Self::smoothed_false_positives).
    pub streamed_smoothed_false_positives: usize,
    /// First pinned-phase step the streamed windowed detector fired — must
    /// equal [`smoothed_detect_step`](Self::smoothed_detect_step).
    pub streamed_detect_step: Option<usize>,
    /// The rank the streamed windowed detector flagged.
    pub streamed_detected_rank: Option<usize>,
    /// The recorded EP load stream (first EP group, canonical rank order) —
    /// the input both streamed detectors consumed, kept for CSV-replay
    /// differentials.
    pub load_events: Vec<TelemetryEvent>,
}

/// Runs the EP-imbalance study: real all-to-all traffic on a hybrid job
/// feeds per-expert received bytes into both detectors.
///
/// During the healthy phase the hot expert walks a random rotation (a fresh
/// permutation of the experts each round, so any `window`-step span sees a
/// rank hot at most twice) — per-step skew is large, windowed means stay
/// flat. Then the hot expert pins to one rank: a systemic imbalance the
/// smoothed detector must still catch.
pub fn run_ep_imbalance(cfg: &EpImbalanceConfig) -> EpImbalanceReport {
    let clos = ClosConfig::pod_grouped_railed(cfg.nodes, 8);
    let topo = Topology::build(&clos);
    let mut spec = HybridSpec::moe(8, 2, 8);
    // The study watches the EP phase; shrink the other families to keep the
    // step loop cheap.
    spec.tp_elems = 1024 * 1024;
    spec.pp_elems = 1024 * 1024;
    spec.dp_elems = 1024 * 1024;
    spec.ep_elems = 8 * 1024 * 1024;
    let ep = spec.ep;
    let nodes = stage_major_nodes(cfg.nodes, spec.pp);
    // The detection signal is byte skew from token routing; DCQCN noise
    // and CNP accounting are orthogonal to it (and the smoothing proptests
    // cover noise robustness), so the study drains noise-free.
    let mut job = HybridJob::new(&topo, spec, nodes, 1).expect("study shape places");
    let mut rng = DetRng::seed_from(cfg.seed ^ 0xE9);
    let mut selector = EcmpSelector::new(cfg.seed ^ 0xEC3F);

    let mut smoother = LoadSmoother::new(ep, cfg.window);
    let mut raw_fp = 0usize;
    let mut smoothed_fp = 0usize;
    let mut rotation: Vec<usize> = Vec::new();
    // The live telemetry stream: per-step Load events for the first EP
    // group, in the canonical rank order the batch loads vector uses.
    let mut events: Vec<TelemetryEvent> = Vec::new();
    let mut step_no: u64 = 0;
    let mut step_loads = |job: &mut HybridJob,
                          hot: usize,
                          rng: &mut DetRng,
                          events: &mut Vec<TelemetryEvent>,
                          step: u64|
     -> Vec<f64> {
        job.set_ep_skew(EpSkew::hot(hot as u32, cfg.hot_factor));
        let r = job.run_iteration(&topo, &mut selector, None, rng);
        // Expert load signal: bytes received by each rank of the first EP
        // group (all groups share the skew; one suffices).
        let first = job.ep_comms()[0].id();
        events.extend(
            job.ep_load_samples(&r, step)
                .into_iter()
                .filter(|s| s.comm == first)
                .map(TelemetryEvent::Load),
        );
        r.ep_recv_bytes[0].iter().map(|&b| b as f64).collect()
    };

    for _ in 0..cfg.rotate_steps {
        if rotation.is_empty() {
            rotation = (0..ep).collect();
            rng.shuffle(&mut rotation);
        }
        let hot = rotation.pop().expect("refilled above");
        let loads = step_loads(&mut job, hot, &mut rng, &mut events, step_no);
        step_no += 1;
        if raw_straggler(&loads, cfg.factor).is_some() {
            raw_fp += 1;
        }
        smoother.push_step(&loads);
        if smoother.detect_straggler(cfg.factor).is_some() {
            smoothed_fp += 1;
        }
    }

    // The imbalance turns systemic: the hot expert stops moving.
    let pinned_rank = rng.index(ep);
    let mut detect = None;
    let mut detected_rank = None;
    for step in 0..cfg.pinned_steps {
        let loads = step_loads(&mut job, pinned_rank, &mut rng, &mut events, step_no);
        step_no += 1;
        smoother.push_step(&loads);
        if detect.is_none() {
            if let Some((rank, _)) = smoother.detect_straggler(cfg.factor) {
                detect = Some(step);
                detected_rank = Some(rank);
            }
        }
    }

    // The streaming twins consume the recorded event stream: a window-1
    // smoother is exactly the raw per-step test, the window-W smoother the
    // batch `LoadSmoother` — both must reproduce the batch verdicts.
    let (raw_verdicts, smooth_verdicts) = stream_ep_verdicts(&events, ep, cfg);
    let rotate = cfg.rotate_steps as u64;
    let streamed_raw_fp = raw_verdicts
        .iter()
        .filter(|v| v.step < rotate && v.verdict.is_some())
        .count();
    let streamed_smoothed_fp = smooth_verdicts
        .iter()
        .filter(|v| v.step < rotate && v.verdict.is_some())
        .count();
    let first_hit = smooth_verdicts
        .iter()
        .find(|v| v.step >= rotate && v.verdict.is_some());
    let streamed_detect_step = first_hit.map(|v| (v.step - rotate) as usize);
    let streamed_detected_rank = first_hit.and_then(|v| v.verdict.map(|(r, _)| r));

    EpImbalanceReport {
        rotate_steps: cfg.rotate_steps,
        pinned_steps: cfg.pinned_steps,
        raw_false_positives: raw_fp,
        smoothed_false_positives: smoothed_fp,
        smoothed_detect_step: detect,
        detected_rank,
        pinned_rank,
        streamed_raw_false_positives: streamed_raw_fp,
        streamed_smoothed_false_positives: streamed_smoothed_fp,
        streamed_detect_step,
        streamed_detected_rank,
        load_events: events,
    }
}

/// Drives the streamed raw (window 1) and windowed EP detectors over a load
/// event stream, returning their per-step verdicts. Public so the CSV-replay
/// differential can re-run detection on a parsed copy of the stream.
pub fn stream_ep_verdicts(
    events: &[TelemetryEvent],
    ep: usize,
    cfg: &EpImbalanceConfig,
) -> (Vec<StepVerdict>, Vec<StepVerdict>) {
    let mut raw = StreamSmoother::new(ep, 1, cfg.factor);
    let mut smooth = StreamSmoother::new(ep, cfg.window, cfg.factor);
    let mut raw_verdicts = Vec::new();
    let mut smooth_verdicts = Vec::new();
    for e in events {
        raw_verdicts.extend(raw.feed(e));
        smooth_verdicts.extend(smooth.feed(e));
    }
    raw_verdicts.extend(raw.flush());
    smooth_verdicts.extend(smooth.flush());
    (raw_verdicts, smooth_verdicts)
}

impl EpImbalanceReport {
    /// The study as a JSON object (embedded in `BENCH_hybrid.json`).
    pub fn to_json(&self) -> JsonValue {
        let mut doc = JsonValue::object();
        doc.push("rotate_steps", self.rotate_steps)
            .push("pinned_steps", self.pinned_steps)
            .push("raw_false_positives", self.raw_false_positives)
            .push("smoothed_false_positives", self.smoothed_false_positives)
            .push(
                "smoothed_detect_step",
                self.smoothed_detect_step.map_or(-1.0, |s| s as f64),
            )
            .push("pinned_rank", self.pinned_rank);
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(seed: u64) -> HybridScaleConfig {
        // The full shape with 16×-shrunken messages: the same flow graph
        // and planning work as the real sweep, far shorter drains.
        let mut spec = HybridSpec::moe(8, 8, 8);
        spec.tp_elems /= 16;
        spec.pp_elems /= 16;
        spec.dp_elems /= 16;
        spec.ep_elems /= 16;
        HybridScaleConfig {
            seed,
            iters: 2,
            node_scales: vec![64],
            spec,
            parallel: ParallelPolicy::default(),
            solve_mode: SolveMode::Exact,
        }
    }

    #[test]
    fn stage_major_order_is_a_permutation() {
        let order = stage_major_nodes(64, 8);
        let mut idx: Vec<usize> = order.iter().map(|n| n.index()).collect();
        // Stage 0 = nodes 0, 8, 16, …
        assert_eq!(idx[0], 0);
        assert_eq!(idx[1], 8);
        idx.sort_unstable();
        assert_eq!(idx, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn scale_cell_runs_and_c4p_speeds_the_iteration() {
        let sweep = run_scale(&small_cfg(7));
        assert_eq!(sweep.rows.len(), 1);
        let r = &sweep.rows[0];
        assert_eq!(r.gpus, 512);
        assert!(r.ecmp_iter_ms > 0.0 && r.c4p_iter_ms > 0.0);
        assert!(
            r.c4p_iter_ms < r.ecmp_iter_ms,
            "C4P iteration {:.1} ms must beat ECMP {:.1} ms",
            r.c4p_iter_ms,
            r.ecmp_iter_ms
        );
        assert!(r.c4p_dp_gbps > r.ecmp_dp_gbps, "DP rings gain from C4P");
        assert!(r.ecmp_ep_gbps > 0.0 && r.c4p_ep_gbps > 0.0);
        assert!(r.ecmp_plan_ms > 0.0 && r.c4p_plan_ms > 0.0);
        assert!(r.wall_ms > 0.0 && sweep.total_wall_ms >= r.wall_ms);

        // The same sweep as the BENCH_hybrid.json document.
        let doc = sweep.to_json();
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("c4-bench-v1")
        );
        assert_eq!(
            doc.get("bench").and_then(|v| v.as_str()),
            Some("hybrid_scale_sweep")
        );
        let back = JsonValue::parse(&doc.pretty()).expect("round-trip");
        let rows = back.get("rows").and_then(|r| r.as_array()).unwrap();
        assert_eq!(rows[0].get("gpus").and_then(|v| v.as_f64()), Some(512.0));
        assert!(back.get("total_wall_ms").and_then(|v| v.as_f64()).unwrap() > 0.0);
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        // Invariance is about the planning/selection layers, not scale: a
        // 32-node PP2 shape builds the same four families far cheaper.
        let mk = |threads: usize| {
            let mut cfg = small_cfg(11);
            cfg.node_scales = vec![32];
            cfg.spec.pp = 2;
            cfg.parallel = ParallelPolicy::with_threads(threads);
            run_scale(&cfg)
        };
        let serial = mk(1);
        let par = mk(4);
        for (a, b) in par.rows.iter().zip(&serial.rows) {
            assert_eq!(a.ecmp_iter_ms.to_bits(), b.ecmp_iter_ms.to_bits());
            assert_eq!(a.c4p_iter_ms.to_bits(), b.c4p_iter_ms.to_bits());
            assert_eq!(a.c4p_ep_gbps.to_bits(), b.c4p_ep_gbps.to_bits());
        }
    }

    #[test]
    fn smoothing_kills_rotation_false_positives_but_catches_pinning() {
        let r = run_ep_imbalance(&EpImbalanceConfig::default_study(42));
        // Healthy rotation: the raw detector cries wolf almost every step…
        assert!(
            r.raw_false_positives > r.rotate_steps / 2,
            "raw detector should fire on most rotation steps: {}/{}",
            r.raw_false_positives,
            r.rotate_steps
        );
        // …the smoothed detector never does…
        assert_eq!(
            r.smoothed_false_positives, 0,
            "windowed means must absorb healthy rotation"
        );
        // …and still catches the pinned expert within one window.
        let step = r.smoothed_detect_step.expect("pinned expert detected");
        assert!(
            step < 8,
            "detection within the window of the onset, got step {step}"
        );
        assert_eq!(r.detected_rank, Some(r.pinned_rank));
        // The streaming twins, fed the recorded event stream, reproduce the
        // batch verdicts exactly.
        assert_eq!(r.streamed_raw_false_positives, r.raw_false_positives);
        assert_eq!(
            r.streamed_smoothed_false_positives,
            r.smoothed_false_positives
        );
        assert_eq!(r.streamed_detect_step, r.smoothed_detect_step);
        assert_eq!(r.streamed_detected_rank, r.detected_rank);
        assert!(!r.load_events.is_empty(), "stream must carry load events");
    }
}
