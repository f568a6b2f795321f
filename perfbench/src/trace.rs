//! Outside-in tracing: per-layer host time measured by wrapping the calls
//! into each layer, never by instrumenting the library.
//!
//! * [`TimedSelector`] delegates every [`PathSelector`] method to the
//!   selector it wraps and times `select`/`select_batch` (the c4_traffic /
//!   c4_netsim selection layer);
//! * [`PhaseRunner`] re-drives one hybrid iteration phase by phase through
//!   `run_concurrent_cached` on the job's public communicator families,
//!   exactly as `HybridJob::run_iteration` does, timing each call and
//!   reading the plan-cache counters around it (the c4_collectives layer)
//!   and the drain report it returns (the c4_netsim layer).
//!
//! The traced run checks both against the untraced path bit for bit
//! (see `hybrid::run_traced`).

use std::time::{Duration, Instant};

use c4::prelude::{
    channel_pair, run_concurrent_cached, CollKind, CollectiveRequest, CommConfig, Communicator,
    DetRng, DrainConfig, DrainSolverStats, EpSkew, FlowKey, HybridIterationReport, HybridJob,
    HybridSpec, PathChoice, PathSelector, PlanCache, SimDuration, SimTime, Topology,
};
use c4_trainsim::HybridPhase;

/// A delegating [`PathSelector`] that times selection and records every
/// decision it passes through.
pub struct TimedSelector<'a> {
    inner: &'a mut dyn PathSelector,
    /// Host time spent inside `select`/`select_batch`.
    pub wall: Duration,
    /// Every (key, choice) the inner selector returned, in call order.
    pub choices: Vec<(FlowKey, PathChoice)>,
}

impl<'a> TimedSelector<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn PathSelector) -> Self {
        TimedSelector {
            inner,
            wall: Duration::ZERO,
            choices: Vec::new(),
        }
    }
}

impl PathSelector for TimedSelector<'_> {
    fn select(&mut self, topo: &Topology, key: &FlowKey) -> PathChoice {
        let t = Instant::now();
        let choice = self.inner.select(topo, key);
        self.wall += t.elapsed();
        self.choices.push((*key, choice));
        choice
    }

    fn select_batch(&mut self, topo: &Topology, keys: &[FlowKey]) -> Vec<PathChoice> {
        let t = Instant::now();
        let choices = self.inner.select_batch(topo, keys);
        self.wall += t.elapsed();
        self.choices
            .extend(keys.iter().copied().zip(choices.iter().copied()));
        choices
    }

    fn byte_split_weight(&self, key: &FlowKey) -> f64 {
        self.inner.byte_split_weight(key)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn cache_token(&self) -> Option<u64> {
        self.inner.cache_token()
    }
}

/// What one phase's `run_concurrent_cached` call cost and did.
#[derive(Debug, Clone, Copy)]
pub struct PhaseTrace {
    /// The phase's collective kind.
    pub kind: CollKind,
    /// Host time of the whole call (plan + drain + result split).
    pub wall: Duration,
    /// Plan-cache build wall charged during the call, milliseconds.
    pub plan_ms: f64,
    /// Plan-cache hits during the call.
    pub hits: u64,
    /// Plan-cache misses during the call.
    pub misses: u64,
    /// The phase drain's solver counters.
    pub solver: DrainSolverStats,
    /// Flows that crossed a saturated shared link.
    pub congested_flows: u64,
    /// Sum of the average CNP rates over sender ports (CNPs/s).
    pub cnp_total: f64,
}

/// Re-drives a [`HybridJob`]'s iterations from outside, one
/// `run_concurrent_cached` call per phase, with its own plan cache and
/// virtual clock.
pub struct PhaseRunner {
    spec: HybridSpec,
    families: [(CollKind, Vec<Communicator>); 4],
    drain: DrainConfig,
    comm_deadline: SimDuration,
    cache: PlanCache,
    seq: u64,
    now: SimTime,
}

impl PhaseRunner {
    /// A runner over `job`'s communicator families and drain settings, at
    /// `job`'s clock, with an empty plan cache.
    pub fn from_job(job: &HybridJob) -> Self {
        PhaseRunner {
            spec: job.spec().clone(),
            families: [
                (CollKind::AllGather, job.tp_comms().to_vec()),
                (CollKind::SendRecv, job.pp_comms().to_vec()),
                (CollKind::AllToAll, job.ep_comms().to_vec()),
                (CollKind::AllReduce, job.dp_comms().to_vec()),
            ],
            drain: job.drain.clone(),
            comm_deadline: job.comm_deadline,
            cache: PlanCache::new(),
            seq: job.iterations(),
            now: job.now(),
        }
    }

    /// The runner's plan cache.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Points the EP all-to-alls at a hot expert (`HybridJob::set_ep_skew`).
    pub fn set_ep_skew(&mut self, skew: EpSkew) {
        self.spec.ep_skew = skew;
    }

    /// The element count of one family, as `run_iteration` sizes it.
    fn count(&self, kind: CollKind) -> u64 {
        match kind {
            CollKind::AllGather => self.spec.tp_elems,
            CollKind::SendRecv => self.spec.pp_elems,
            CollKind::AllToAll => self.spec.ep_elems,
            _ => self.spec.dp_elems,
        }
    }

    /// Runs one iteration — TP, PP, EP, DP back to back, each one shared
    /// drain — returning the report `HybridJob::run_iteration` would and
    /// the per-phase trace.
    pub fn run_iteration(
        &mut self,
        topo: &Topology,
        selector: &mut dyn PathSelector,
        rng: &mut DetRng,
    ) -> (HybridIterationReport, Vec<PhaseTrace>) {
        let start = self.now;
        let mut t = start;
        let mut phases = Vec::with_capacity(4);
        let mut traces = Vec::with_capacity(4);
        let mut ep_recv_bytes = Vec::new();
        let mut solver = DrainSolverStats::default();
        let config = CommConfig {
            ep_skew: self.spec.ep_skew,
            ..CommConfig::default()
        };
        for (kind, comms) in &self.families {
            let kind = *kind;
            if comms.is_empty() {
                continue;
            }
            let drain = DrainConfig {
                deadline: Some(t + self.comm_deadline),
                ..self.drain.clone()
            };
            let requests: Vec<CollectiveRequest<'_>> = comms
                .iter()
                .map(|comm| CollectiveRequest {
                    comm,
                    seq: self.seq,
                    kind,
                    dtype: self.spec.dtype,
                    count: self.count(kind),
                    config,
                    start: t,
                    rank_ready: None,
                    drain: drain.clone(),
                })
                .collect();
            let (hits, misses, plan_ms) = (
                self.cache.hits(),
                self.cache.misses(),
                self.cache.build_wall_ms(),
            );
            let call = Instant::now();
            let results = run_concurrent_cached(
                topo,
                &requests,
                selector,
                None,
                rng,
                None,
                Some(&mut self.cache),
            );
            let wall = call.elapsed();

            let first = &results[0].report;
            solver.merge(&first.solver);
            traces.push(PhaseTrace {
                kind,
                wall,
                plan_ms: self.cache.build_wall_ms() - plan_ms,
                hits: self.cache.hits() - hits,
                misses: self.cache.misses() - misses,
                solver: first.solver,
                congested_flows: first.congested_flows as u64,
                cnp_total: first.cnp_per_port.iter().sum(),
            });
            let hung = results.iter().any(|r| r.hung());
            let end = results
                .iter()
                .filter_map(|r| r.finished)
                .max()
                .unwrap_or(t + self.comm_deadline);
            let busbws: Vec<f64> = results.iter().filter_map(|r| r.busbw_gbps()).collect();
            if kind == CollKind::AllToAll {
                for (comm, res) in comms.iter().zip(&results) {
                    let mut recv = vec![0u64; comm.nranks()];
                    for o in res.intra_outcomes.iter().chain(&res.qp_outcomes) {
                        let (_, dst) = channel_pair(o.key.channel);
                        recv[dst as usize] += o.bytes.as_bytes();
                    }
                    ep_recv_bytes.push(recv);
                }
            }
            phases.push(HybridPhase {
                kind,
                comms: comms.len(),
                duration: end - t,
                busbw_mean_gbps: (!hung && !busbws.is_empty())
                    .then(|| busbws.iter().sum::<f64>() / busbws.len() as f64),
                hung,
            });
            t = end;
        }
        self.now = t;
        self.seq += 1;
        let report = HybridIterationReport {
            total: t - start,
            hung: phases.iter().any(|p| p.hung),
            phases,
            ep_recv_bytes,
            solver,
        };
        (report, traces)
    }
}

/// Checks two iteration reports for bit-identity: simulated time, every
/// phase's duration and bus bandwidth (by `f64::to_bits`), expert loads
/// and solver counters.
pub fn same_iteration(a: &HybridIterationReport, b: &HybridIterationReport) -> Result<(), String> {
    if a.total != b.total || a.hung != b.hung {
        return Err(format!(
            "iteration {:?}/hung {} vs {:?}/hung {}",
            a.total, a.hung, b.total, b.hung
        ));
    }
    if a.phases.len() != b.phases.len() {
        return Err("phase count differs".into());
    }
    for (p, q) in a.phases.iter().zip(&b.phases) {
        let bits = |x: Option<f64>| x.map(f64::to_bits);
        if p.kind != q.kind
            || p.comms != q.comms
            || p.duration != q.duration
            || p.hung != q.hung
            || bits(p.busbw_mean_gbps) != bits(q.busbw_mean_gbps)
        {
            return Err(format!("{} phase differs: {p:?} vs {q:?}", p.kind));
        }
    }
    if a.ep_recv_bytes != b.ep_recv_bytes {
        return Err("EP received bytes differ".into());
    }
    if a.solver != b.solver {
        return Err(format!(
            "solver counters differ: {:?} vs {:?}",
            a.solver, b.solver
        ));
    }
    Ok(())
}
