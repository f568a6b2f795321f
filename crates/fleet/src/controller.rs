//! The fleet controller: concurrent training jobs with churn, live fault
//! injection, streaming detection, and closed-loop steering recovery.
//!
//! One controller *round* is a wall-clock tick of the fleet:
//!
//! 1. revert expired transient faults, return repaired nodes;
//! 2. apply fault events that came due (node crashes → host links down,
//!    degradations → capacity loss or compute stretch, fabric link flaps);
//! 3. surgically rebase every job's [`PlanCache`] against the changed
//!    links, then audit the zero-stale-route invariant;
//! 4. admit due arrivals onto free healthy nodes;
//! 5. run one **live** BSP iteration per unblocked job through
//!    `run_concurrent_cached`, feed its telemetry to the streaming
//!    detectors, and extrapolate `stride - 1` further iterations (BSP
//!    periodicity makes the extrapolation exact up to compute jitter);
//! 6. act on verdicts: retry/backoff transient flaps with N-strike
//!    escalation, otherwise isolate through [`JobSteering`] and resume per
//!    the job's [`RecoveryPolicy`] — backup swap, whole-job re-placement,
//!    or DP shrink when the backup pool is dry;
//! 7. depart finished jobs and advance the fleet clock.
//!
//! [`PlanCache`]: c4_collectives::PlanCache

use std::collections::{BTreeMap, VecDeque};

use c4_diagnosis::{
    CollHealthDetector, DetectorConfig, JobSteering, SteeringConfig, SteeringError, StreamVerdict,
    StreamingC4dMaster,
};
use c4_faults::{
    ComputePerturbation, Degradation, FaultEvent, FaultInjector, FaultKind, FaultRates,
};
use c4_netsim::EcmpSelector;
use c4_simcore::{DetRng, ParallelPolicy, SimDuration, SimTime};
use c4_telemetry::pipeline::events_from_snapshots;
use c4_telemetry::{CommRecord, TelemetrySnapshot, WorkerTelemetry};
use c4_topology::{ClosConfig, LinkId, NodeId, Topology};
use c4_trainsim::{JobSpec, ParallelLayout, TrainingJob};

use crate::accounting::{FaultCounts, FleetReport, JobAccounting, JobOutcome};
use crate::policy::{FlapTracker, RecoveryPolicy};

/// One job the fleet will run.
#[derive(Debug, Clone)]
pub struct JobTemplate {
    /// Workload shape (TP/PP/DP, payload, compute).
    pub spec: JobSpec,
    /// How this job recovers from localized faults.
    pub policy: RecoveryPolicy,
    /// Iterations until the job departs.
    pub target_iterations: u64,
}

/// Fleet soak configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Master seed: fault schedules, compute jitter, ECMP salts.
    pub seed: u64,
    /// Cluster shape.
    pub clos: ClosConfig,
    /// Nodes reserved as the steering backup pool (taken from the top of
    /// the node range).
    pub backup_nodes: usize,
    /// Simulated horizon.
    pub horizon: SimDuration,
    /// Iterations credited per live round (one network-simulated
    /// iteration extrapolated over the stride).
    pub stride: u64,
    /// Fault rates (scaled by `rate_multiplier`).
    pub rates: FaultRates,
    /// Multiplier on every fault rate (soak acceleration).
    pub rate_multiplier: f64,
    /// Jobs admitted at time zero.
    pub initial_jobs: Vec<JobTemplate>,
    /// Later arrivals: (offset from start, template). Queued until enough
    /// free healthy nodes exist.
    pub arrivals: Vec<(SimDuration, JobTemplate)>,
    /// Streaming-detector thresholds.
    pub detector: DetectorConfig,
    /// Localization latency charged on top of the hang timeout per
    /// detection (telemetry comparison on the C4D master).
    pub localize_delay: SimDuration,
    /// Steering service timing.
    pub steering: SteeringConfig,
    /// Checkpoint cadence: work since the last checkpoint is redone after
    /// a recovery.
    pub checkpoint_interval: SimDuration,
    /// Re-initialization time after a restart.
    pub reinit: SimDuration,
    /// Per-collective give-up horizon (hang modelling).
    pub comm_deadline: SimDuration,
    /// Strike window for transient faults.
    pub flap_window: SimDuration,
    /// Strikes within the window before a transient fault is escalated to
    /// permanent isolation.
    pub flap_strikes: usize,
    /// Auto-repair delay of a transient fault (link flap, NIC brown-out).
    pub flap_repair: SimDuration,
    /// Extra wait after a transient repair before the job retries.
    pub retry_backoff: SimDuration,
    /// How long degradation events (slow GPU, PCIe downgrade, GC pauses)
    /// persist before self-healing.
    pub degradation_duration: SimDuration,
    /// Time until a crashed/isolated node is repaired and returned to the
    /// backup pool; `ZERO` disables repair (bounded pools drain).
    pub node_repair: SimDuration,
    /// Slow strikes (windowed verdicts) before a non-degraded-continue job
    /// escalates persistent slowness to isolation.
    pub slow_strikes: usize,
    /// Tumbling-window width of the per-job collective-health detector.
    pub slow_window: SimDuration,
    /// Mean-over-baseline ratio flagging a slow window.
    pub slow_factor: f64,
    /// Trailing window means forming the health baseline.
    pub slow_baseline: usize,
    /// Thread budget for the network layers (bit-identical results at any
    /// setting).
    pub parallel: ParallelPolicy,
}

impl FleetConfig {
    /// A small, fast churn mix used by tests: 128-GPU pod, 8+ jobs.
    pub fn smoke(seed: u64) -> Self {
        let small = |dp: usize| JobSpec {
            // Shrink the payload so test drains stay cheap.
            params: 2_000_000_000,
            ..JobSpec::gpt22b_scaling(dp)
        };
        let job = |dp: usize, policy: RecoveryPolicy, iters: u64| JobTemplate {
            spec: small(dp),
            policy,
            target_iterations: iters,
        };
        FleetConfig {
            seed,
            clos: ClosConfig::pod(32),
            backup_nodes: 3,
            horizon: SimDuration::from_hours(24),
            stride: 200,
            rates: FaultRates::december_2023(),
            rate_multiplier: 40.0,
            initial_jobs: vec![
                job(3, RecoveryPolicy::CheckpointRestart, 4_000),
                job(2, RecoveryPolicy::DegradedContinue, 6_000),
                job(3, RecoveryPolicy::Replace, 6_000),
                job(2, RecoveryPolicy::CheckpointRestart, 8_000),
                job(2, RecoveryPolicy::CheckpointRestart, 20_000),
                job(3, RecoveryPolicy::DegradedContinue, 20_000),
            ],
            arrivals: vec![
                (
                    SimDuration::from_hours(2),
                    job(2, RecoveryPolicy::Replace, 6_000),
                ),
                (
                    SimDuration::from_hours(5),
                    job(3, RecoveryPolicy::CheckpointRestart, 8_000),
                ),
                (
                    SimDuration::from_hours(9),
                    job(2, RecoveryPolicy::DegradedContinue, 10_000),
                ),
            ],
            detector: DetectorConfig::default(),
            localize_delay: SimDuration::from_secs(30),
            steering: SteeringConfig::default(),
            checkpoint_interval: SimDuration::from_secs(600),
            reinit: SimDuration::from_secs(600),
            comm_deadline: SimDuration::from_secs(30),
            flap_window: SimDuration::from_hours(2),
            flap_strikes: 3,
            flap_repair: SimDuration::from_secs(300),
            retry_backoff: SimDuration::from_secs(30),
            degradation_duration: SimDuration::from_secs(1800),
            node_repair: SimDuration::from_hours(4),
            slow_strikes: 3,
            slow_window: SimDuration::from_secs(5),
            slow_factor: 1.8,
            slow_baseline: 8,
            parallel: ParallelPolicy::default(),
        }
    }

    /// The benchmark soak: a 512-GPU pod (64 nodes), 8 initial jobs plus
    /// churn, one simulated week.
    pub fn soak_512(seed: u64) -> Self {
        let job = |dp: usize, policy: RecoveryPolicy, iters: u64| JobTemplate {
            spec: JobSpec::gpt22b_scaling(dp),
            policy,
            target_iterations: iters,
        };
        FleetConfig {
            clos: ClosConfig::pod(64),
            backup_nodes: 4,
            horizon: SimDuration::from_hours(168),
            stride: 400,
            rate_multiplier: 12.0,
            initial_jobs: vec![
                job(8, RecoveryPolicy::CheckpointRestart, 200_000),
                job(6, RecoveryPolicy::DegradedContinue, 200_000),
                job(8, RecoveryPolicy::Replace, 200_000),
                job(6, RecoveryPolicy::CheckpointRestart, 150_000),
                job(4, RecoveryPolicy::CheckpointRestart, 60_000),
                job(6, RecoveryPolicy::DegradedContinue, 200_000),
                job(4, RecoveryPolicy::Replace, 80_000),
                job(4, RecoveryPolicy::CheckpointRestart, 200_000),
            ],
            arrivals: vec![
                (
                    SimDuration::from_hours(20),
                    job(4, RecoveryPolicy::CheckpointRestart, 60_000),
                ),
                (
                    SimDuration::from_hours(48),
                    job(6, RecoveryPolicy::DegradedContinue, 80_000),
                ),
                (
                    SimDuration::from_hours(90),
                    job(4, RecoveryPolicy::Replace, 60_000),
                ),
            ],
            node_repair: SimDuration::from_hours(12),
            ..Self::smoke(seed)
        }
    }
}

/// Links whose state a fault (or its repair) changed — tracked by the
/// controller independently of the degradation object so cache rebasing
/// and the stale-route audit need no topology introspection at audit time.
#[derive(Debug, Clone)]
struct ActiveFault {
    node: Option<NodeId>,
    link: Option<LinkId>,
    /// Topology-level effects to revert on repair.
    degradations: Vec<Degradation>,
    /// Compute-side effects (consumed by matching jobs each round).
    perturbations: Vec<ComputePerturbation>,
    /// Links this fault has taken down or degraded.
    links: Vec<LinkId>,
    /// When the fault self-heals; `None` = permanent until isolation.
    repair_at: Option<SimTime>,
}

/// One running job plus its control-loop state.
struct FleetJob {
    policy: RecoveryPolicy,
    target_iterations: u64,
    job: TrainingJob,
    selector: EcmpSelector,
    rng: DetRng,
    health: CollHealthDetector,
    acc: JobAccounting,
    /// Fleet time before which the job does not run (recovery/backoff).
    blocked_until: SimTime,
    productive_since_ckpt: SimDuration,
    /// Nodes swapped in since the last clean iteration. A hang right
    /// after a swap means the localizer blamed the wrong node (rank-level
    /// evidence is ambiguous when a whole ring stalls): the fresh node is
    /// above suspicion, so the next victim is chosen among the survivors.
    recent_replacements: Vec<NodeId>,
    failed: bool,
}

/// What the verdict loop decided for one job this round.
enum Action {
    /// Wait out a transient fault, optionally escalating it first.
    Retry {
        until: SimTime,
        strike_key: Option<u64>,
    },
    /// Isolate `victim` and resume per policy.
    Recover { victim: NodeId },
}

/// Pending repair of a whole node.
#[derive(Debug, Clone, Copy)]
struct NodeRepair {
    at: SimTime,
    node: NodeId,
    /// True when the node was isolated through the steering service (goes
    /// back to the backup pool); false for idle-node crashes (goes back to
    /// the free pool).
    via_steering: bool,
}

/// The long-horizon fleet controller. Construct with [`FleetController::new`]
/// and drive to completion with [`FleetController::run`].
pub struct FleetController {
    cfg: FleetConfig,
    topo: Topology,
    steering: JobSteering,
    free_nodes: Vec<NodeId>,
    jobs: BTreeMap<u64, FleetJob>,
    next_job_id: u64,
    /// Future arrivals, absolute fleet time, sorted.
    pending: VecDeque<(SimTime, JobTemplate)>,
    /// Arrivals waiting for capacity.
    queue: VecDeque<JobTemplate>,
    /// Merged fault schedule, sorted by time.
    events: VecDeque<FaultEvent>,
    active: Vec<ActiveFault>,
    node_repairs: Vec<NodeRepair>,
    flaps: FlapTracker,
    slow: FlapTracker,
    clock: SimTime,
    outcomes: Vec<JobOutcome>,
    faults: FaultCounts,
    detections: u64,
    isolations: u64,
    replacements: u64,
    dp_shrinks: u64,
    retries: u64,
    escalations: u64,
    repairs_returned: u64,
    cache_rebased_drops: u64,
    stale_plan_routes: u64,
    cache_hits: u64,
    cache_misses: u64,
    drain_reuses: u64,
    rounds: u64,
    live_iterations: u64,
}

/// Host-uplink/downlink + PCIe links of a node (the links a cached plan
/// can route through on that node; NVLink intra edges are node-internal
/// and only appear in the node's own jobs' plans, which are invalidated by
/// incarnation bumps).
fn node_links(topo: &Topology, node: NodeId) -> Vec<LinkId> {
    let mut out = Vec::new();
    for &nic in &topo.node(node).nics {
        for p in topo.nic(nic).ports {
            out.push(topo.port(p).host_up);
            out.push(topo.port(p).host_down);
        }
    }
    for &g in &topo.node(node).gpus {
        let gpu = topo.gpu(g);
        out.push(gpu.pcie_tx);
        out.push(gpu.pcie_rx);
    }
    out
}

/// Strike-tracker key namespaces (links and nodes share one tracker).
fn link_key(l: LinkId) -> u64 {
    (l.index() as u64) << 1
}
fn node_key(n: NodeId) -> u64 {
    ((n.index() as u64) << 1) | 1
}

impl FleetController {
    /// Builds the fleet: topology, backup pool, fault schedules.
    ///
    /// # Panics
    ///
    /// Panics when the initial jobs need more nodes than the cluster has
    /// outside the backup pool.
    pub fn new(cfg: FleetConfig) -> Self {
        let topo = Topology::build(&cfg.clos);
        let nodes = topo.num_nodes();
        assert!(
            cfg.backup_nodes < nodes,
            "backup pool must leave room for jobs"
        );
        let backup_start = nodes - cfg.backup_nodes;
        let backups: Vec<NodeId> = (backup_start..nodes).map(NodeId::from_index).collect();
        let free_nodes: Vec<NodeId> = (0..backup_start).map(NodeId::from_index).collect();
        let steering = JobSteering::new(cfg.steering, backups);

        // Pre-draw the three fault schedules over the whole horizon from
        // the injector's disjoint per-class streams.
        let mut injector = FaultInjector::new(cfg.rates.scaled(cfg.rate_multiplier), cfg.seed);
        let gpus = topo.gpus().len();
        let gpn = gpus / nodes;
        let mut events = injector.schedule_crashes(gpus, nodes, gpn, SimTime::ZERO, cfg.horizon);
        events.extend(injector.schedule_degradations(gpus, nodes, gpn, SimTime::ZERO, cfg.horizon));
        events.extend(injector.schedule_link_failures(
            &topo.fabric_links(),
            SimTime::ZERO,
            cfg.horizon,
        ));
        events.sort_by_key(|e| (e.time, e.id));

        let mut pending: Vec<(SimTime, JobTemplate)> = cfg
            .arrivals
            .iter()
            .map(|(off, t)| (SimTime::ZERO + *off, t.clone()))
            .collect();
        pending.sort_by_key(|(t, _)| *t);

        let mut ctl = FleetController {
            flaps: FlapTracker::new(cfg.flap_window, cfg.flap_strikes),
            slow: FlapTracker::new(cfg.flap_window, cfg.slow_strikes),
            topo,
            steering,
            free_nodes,
            jobs: BTreeMap::new(),
            next_job_id: 0,
            pending: pending.into(),
            queue: VecDeque::new(),
            events: events.into(),
            active: Vec::new(),
            node_repairs: Vec::new(),
            clock: SimTime::ZERO,
            outcomes: Vec::new(),
            faults: FaultCounts::default(),
            detections: 0,
            isolations: 0,
            replacements: 0,
            dp_shrinks: 0,
            retries: 0,
            escalations: 0,
            repairs_returned: 0,
            cache_rebased_drops: 0,
            stale_plan_routes: 0,
            cache_hits: 0,
            cache_misses: 0,
            drain_reuses: 0,
            rounds: 0,
            live_iterations: 0,
            cfg,
        };
        let initial = ctl.cfg.initial_jobs.clone();
        for t in initial {
            ctl.queue.push_back(t);
        }
        ctl.admit_queued();
        ctl
    }

    /// The live topology (for inspection in tests).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Nodes of a currently running job, admission order (test hook for
    /// aiming injected faults at live jobs).
    pub fn job_nodes(&self, job: u64) -> Option<Vec<NodeId>> {
        self.jobs.get(&job).map(|j| j.job.layout().nodes.clone())
    }

    /// Inserts a fault event into the schedule (test hook: deterministic
    /// scenarios aim specific faults at specific components instead of
    /// relying on the seeded schedule).
    pub fn inject_event(&mut self, e: FaultEvent) {
        let pos = self
            .events
            .iter()
            .position(|q| (q.time, q.id) > (e.time, e.id))
            .unwrap_or(self.events.len());
        self.events.insert(pos, e);
    }

    /// Runs the soak to the horizon and returns the report.
    pub fn run(mut self) -> FleetReport {
        let end = SimTime::ZERO + self.cfg.horizon;
        while self.clock < end {
            self.round();
            if self.jobs.is_empty() && self.pending.is_empty() && self.queue.is_empty() {
                break;
            }
        }
        // Departure ledger for jobs still running at the horizon.
        let ended = self.clock;
        let ids: Vec<u64> = self.jobs.keys().copied().collect();
        for id in ids {
            self.depart(id, false, false);
        }
        self.outcomes.sort_by_key(|o| o.id);
        FleetReport {
            horizon: self.cfg.horizon,
            ended,
            rounds: self.rounds,
            live_iterations: self.live_iterations,
            jobs: std::mem::take(&mut self.outcomes),
            faults: self.faults,
            detections: self.detections,
            isolations: self.isolations,
            replacements: self.replacements,
            dp_shrinks: self.dp_shrinks,
            retries: self.retries,
            escalations: self.escalations,
            repairs_returned: self.repairs_returned,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            drain_reuses: self.drain_reuses,
            cache_rebased_drops: self.cache_rebased_drops,
            stale_plan_routes: self.stale_plan_routes,
        }
    }

    /// One controller tick.
    fn round(&mut self) {
        self.rounds += 1;
        let mut changed_links: Vec<LinkId> = Vec::new();

        self.process_repairs(&mut changed_links);
        self.apply_due_events(&mut changed_links);
        if !changed_links.is_empty() {
            self.rebase_caches(&changed_links);
            self.audit_stale_routes(&changed_links);
        }
        self.admit_queued();

        // --- live iterations + detection --------------------------------
        let ids: Vec<u64> = self.jobs.keys().copied().collect();
        let mut actions: Vec<(u64, Action)> = Vec::new();
        let mut round_wall = SimDuration::ZERO;
        for id in ids {
            let decision = self.run_job_round(id, &mut round_wall);
            if let Some(a) = decision {
                actions.push((id, a));
            }
        }

        // --- act on verdicts --------------------------------------------
        for (id, action) in actions {
            match action {
                Action::Retry { until, strike_key } => {
                    self.retries += 1;
                    let escalate = match strike_key {
                        Some(k) => self.flaps.record(k, self.clock),
                        None => false,
                    };
                    if escalate {
                        self.escalate(strike_key.expect("escalation implies a key"), id);
                    } else if let Some(fj) = self.jobs.get_mut(&id) {
                        let wait = until.saturating_since(self.clock) + self.cfg.retry_backoff;
                        fj.blocked_until = self.clock + wait;
                        fj.acc.retries += 1;
                        fj.acc.downtime += wait;
                        fj.job.advance_clock(wait);
                    }
                }
                Action::Recover { victim } => self.recover(id, victim),
            }
        }

        // --- advance the fleet clock -------------------------------------
        if round_wall.is_zero() {
            round_wall = SimDuration::from_secs(1) * self.cfg.stride as f64;
        }
        self.clock += round_wall;

        // --- departures (after the clock advance, so the final round's
        // productive time is inside the job's wall time) ------------------
        let done: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, j)| j.acc.iterations >= j.target_iterations || j.failed)
            .map(|(&id, _)| id)
            .collect();
        for id in done {
            let failed = self.jobs[&id].failed;
            self.depart(id, !failed, failed);
        }
    }

    /// Runs one job's live iteration + detection; returns what to do.
    fn run_job_round(&mut self, id: u64, round_wall: &mut SimDuration) -> Option<Action> {
        let cfg_detector = self.cfg.detector;
        let stride = self.cfg.stride;
        let topo = &self.topo;
        let fj = self.jobs.get_mut(&id).expect("job exists");
        if fj.blocked_until > self.clock {
            return None;
        }

        // Compute-side perturbations hitting this job.
        let job_gpus: Vec<_> = fj.job.layout().gpus(topo);
        let perturbs: Vec<ComputePerturbation> = self
            .active
            .iter()
            .flat_map(|f| f.perturbations.iter())
            .filter(|p| job_gpus.contains(&p.gpu))
            .copied()
            .collect();

        let mut tel: Vec<WorkerTelemetry> = topo
            .gpus()
            .iter()
            .map(|g| WorkerTelemetry::new(g.id))
            .collect();
        let round_start = fj.job.now();
        let report = fj.job.run_iteration(
            topo,
            &mut fj.selector,
            None,
            &mut fj.rng,
            &perturbs,
            Some(&mut tel),
        );
        self.live_iterations += 1;

        // Stream this round's telemetry through one per-communicator
        // streaming master each: a half-down NIC only hangs the DP groups
        // hashed onto the dead port, so every group must be watched.
        let scan_at = fj.job.now() + cfg_detector.hang_timeout + SimDuration::from_secs(1);
        let mut diags = Vec::new();
        let mut verdicts: Vec<StreamVerdict> = Vec::new();
        for comm in fj.job.comms() {
            let snaps: Vec<TelemetrySnapshot> = comm
                .devices()
                .iter()
                .map(|&g| tel[g.index()].snapshot(fj.job.now()))
                .collect();
            let events = events_from_snapshots(&snaps);
            let mut master = StreamingC4dMaster::new(
                cfg_detector,
                CommRecord {
                    comm: comm.id(),
                    devices: comm.devices().to_vec(),
                    created: round_start,
                },
            );
            for e in &events {
                master.feed(e);
                verdicts.extend(fj.health.feed(e));
            }
            diags.extend(master.scan(scan_at, topo));
        }

        let job_nodes = fj.job.layout().nodes.clone();
        let mut candidates: Vec<NodeId> = diags
            .iter()
            .filter(|d| d.critical)
            .filter_map(|d| d.suspect)
            .filter(|n| job_nodes.contains(n))
            .collect();
        candidates.dedup();
        let critical_suspect = candidates
            .iter()
            .find(|n| !fj.recent_replacements.contains(n))
            .or_else(|| candidates.first())
            .copied();
        if diags.iter().any(|d| d.critical) {
            self.detections += 1;
        }

        if report.hung {
            // The wasted iteration attempt plus the hang-detection latency
            // are downtime no matter how the job resumes.
            let waste = report.total + cfg_detector.hang_timeout + self.cfg.localize_delay;
            fj.acc.downtime += waste;
            fj.job
                .advance_clock(cfg_detector.hang_timeout + self.cfg.localize_delay);

            // Prefer the detector's localization; corroborate against the
            // fault ledger to classify transient vs permanent.
            let victim = critical_suspect.or_else(|| {
                self.active
                    .iter()
                    .filter(|f| f.repair_at.is_none())
                    .find_map(|f| f.node.filter(|n| job_nodes.contains(n)))
            });
            if let Some(v) = victim {
                let transient = self
                    .active
                    .iter()
                    .find(|f| f.node == Some(v) && f.repair_at.is_some());
                if let Some(f) = transient {
                    return Some(Action::Retry {
                        until: f.repair_at.expect("transient has repair time"),
                        strike_key: Some(node_key(v)),
                    });
                }
                return Some(Action::Recover { victim: v });
            }
            // No localization: wait out the nearest pending repair (or a
            // plain backoff when the ledger has nothing — e.g. a race with
            // an event this controller has not applied yet).
            let until = self
                .active
                .iter()
                .filter_map(|f| f.repair_at)
                .min()
                .unwrap_or(self.clock);
            return Some(Action::Retry {
                until,
                strike_key: None,
            });
        }

        // Healthy (or merely slow) round: credit the stride.
        fj.recent_replacements.clear();
        let credited = report.total * stride as f64;
        fj.acc.iterations += stride;
        fj.acc.productive += credited;
        fj.productive_since_ckpt += credited;
        fj.job.advance_clock(report.total * (stride - 1) as f64);
        *round_wall = (*round_wall).max(credited);

        let slow = verdicts
            .iter()
            .any(|v| matches!(v, StreamVerdict::CollSlow { .. }))
            || diags.iter().any(|d| !d.critical);
        if slow {
            if fj.policy == RecoveryPolicy::DegradedContinue {
                fj.acc.degraded_iterations += stride;
                return None;
            }
            if self.slow.record(id, self.clock) {
                // Persistent slowness: isolate whatever slow component the
                // detectors or the ledger point at.
                let victim = diags
                    .iter()
                    .filter(|d| !d.critical)
                    .find_map(|d| d.suspect)
                    .filter(|n| job_nodes.contains(n))
                    .or_else(|| {
                        self.active
                            .iter()
                            .find_map(|f| f.node.filter(|n| job_nodes.contains(n)))
                    });
                if let Some(v) = victim {
                    return Some(Action::Recover { victim: v });
                }
            }
        }
        None
    }

    /// Escalates a transient fault (by strike key) to permanent: cancels
    /// its auto-repair; node-scoped faults then isolate through the normal
    /// recovery path.
    fn escalate(&mut self, key: u64, job_id: u64) {
        self.escalations += 1;
        let mut victim = None;
        for f in &mut self.active {
            let matches = match (f.node, f.link) {
                (Some(n), _) if node_key(n) == key => {
                    victim = Some(n);
                    true
                }
                (_, Some(l)) if link_key(l) == key => true,
                _ => false,
            };
            if matches {
                f.repair_at = None;
            }
        }
        if let Some(v) = victim {
            self.recover(job_id, v);
        }
    }

    /// Isolates `victim` through steering and resumes the job per policy.
    fn recover(&mut self, id: u64, victim: NodeId) {
        // Charge the recovery downtime: steering turnaround + re-init +
        // redone post-checkpoint work (detection was charged at verdict
        // time).
        let (redo, policy, old_nodes) = {
            let fj = self.jobs.get_mut(&id).expect("job exists");
            let interval = self.cfg.checkpoint_interval;
            let redo = if interval.is_zero() {
                SimDuration::ZERO
            } else {
                SimDuration::from_secs_f64(
                    fj.productive_since_ckpt.as_secs_f64() % interval.as_secs_f64(),
                )
            };
            (redo, fj.policy, fj.job.layout().nodes.clone())
        };
        let spent = self.steering.turnaround() + self.cfg.reinit + redo;

        // Clear the victim's standing faults before the swap so its links
        // are clean when repair eventually returns it to the pool.
        self.clear_faults_on(victim);

        let swap = self
            .steering
            .isolate_and_replace(&mut self.topo, victim, self.clock);
        let victim_links = node_links(&self.topo, victim);

        let new_nodes: Option<Vec<NodeId>> = match swap {
            Ok(plan) => {
                self.isolations += 1;
                if self.cfg.node_repair > SimDuration::ZERO {
                    self.node_repairs.push(NodeRepair {
                        at: self.clock + self.cfg.node_repair,
                        node: victim,
                        via_steering: true,
                    });
                }
                let fresh: Vec<NodeId> = if policy == RecoveryPolicy::Replace
                    && self.free_nodes.len() >= old_nodes.len()
                {
                    // Whole-job re-placement: take fresh nodes, hand the
                    // unused backup straight back to the pool and release
                    // the job's healthy survivors.
                    self.steering
                        .return_repaired(&mut self.topo, plan.replacement);
                    let taken: Vec<NodeId> = self.free_nodes.drain(..old_nodes.len()).collect();
                    for n in old_nodes.iter().filter(|&&n| n != victim) {
                        self.free_nodes.push(*n);
                    }
                    self.free_nodes.sort();
                    taken
                } else {
                    old_nodes
                        .iter()
                        .map(|&n| if n == victim { plan.replacement } else { n })
                        .collect()
                };
                self.replacements += 1;
                Some(fresh)
            }
            Err(SteeringError::BackupPoolExhausted) => {
                // Victim is cordoned but nothing replaces it: shrink the
                // job's DP width over the surviving nodes.
                self.isolations += 1;
                None
            }
            Err(SteeringError::AlreadyIsolated(_)) => None,
        };

        let fj = self.jobs.get_mut(&id).expect("job exists");
        fj.acc.downtime += spent;
        fj.acc.recoveries += 1;
        fj.productive_since_ckpt = SimDuration::ZERO;
        fj.blocked_until = self.clock + spent;
        fj.job.advance_clock(spent);

        match new_nodes {
            Some(nodes) => {
                for &n in &nodes {
                    if !old_nodes.contains(&n) {
                        fj.recent_replacements.push(n);
                    }
                }
                let spec = fj.job.spec().clone();
                match ParallelLayout::place(&self.topo, &spec, nodes) {
                    Ok(layout) => fj.job.replace_layout(&self.topo, spec, layout),
                    Err(_) => {
                        fj.failed = true;
                    }
                }
            }
            None => {
                // Graceful degradation: drop the victim, shrink DP.
                let survivors: Vec<NodeId> = fj
                    .job
                    .layout()
                    .nodes
                    .iter()
                    .copied()
                    .filter(|&n| n != victim)
                    .collect();
                let old_spec = fj.job.spec().clone();
                let old_node_count = fj.job.layout().nodes.len();
                let dp_per_node = (old_spec.dp / old_node_count.max(1)).max(1);
                let new_dp = dp_per_node * survivors.len();
                if survivors.len() < 2 || new_dp == 0 {
                    fj.failed = true;
                } else {
                    let mut spec = old_spec.clone();
                    spec.dp = new_dp;
                    spec.global_batch = (spec.global_batch / old_spec.dp.max(1)) * new_dp;
                    match ParallelLayout::place(&self.topo, &spec, survivors) {
                        Ok(layout) => {
                            fj.job.replace_layout(&self.topo, spec, layout);
                            fj.acc.dp_shrinks += 1;
                            self.dp_shrinks += 1;
                        }
                        Err(_) => fj.failed = true,
                    }
                }
            }
        }

        self.slow.clear_key(id);
        self.flaps.clear_key(node_key(victim));
        self.rebase_caches(&victim_links);
        self.audit_stale_routes(&victim_links);
    }

    /// Reverts and removes every standing fault on a node.
    fn clear_faults_on(&mut self, node: NodeId) {
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].node == Some(node) {
                let f = self.active.remove(i);
                for d in &f.degradations {
                    d.revert(&mut self.topo);
                }
            } else {
                i += 1;
            }
        }
    }

    /// Processes due node repairs and transient-fault expiries.
    fn process_repairs(&mut self, changed: &mut Vec<LinkId>) {
        // Node repairs: return to the appropriate pool.
        let mut i = 0;
        while i < self.node_repairs.len() {
            if self.node_repairs[i].at <= self.clock {
                let r = self.node_repairs.remove(i);
                self.clear_faults_on(r.node);
                if r.via_steering {
                    self.steering.return_repaired(&mut self.topo, r.node);
                } else {
                    self.topo.set_node_healthy(r.node, true);
                    self.free_nodes.push(r.node);
                    self.free_nodes.sort();
                }
                self.repairs_returned += 1;
            } else {
                i += 1;
            }
        }
        // Transient fault expiries.
        let mut i = 0;
        while i < self.active.len() {
            let due = matches!(self.active[i].repair_at, Some(t) if t <= self.clock);
            if due {
                let f = self.active.remove(i);
                for d in &f.degradations {
                    d.revert(&mut self.topo);
                }
                changed.extend(f.links.iter().copied());
            } else {
                i += 1;
            }
        }
    }

    /// Applies fault events that came due this round.
    fn apply_due_events(&mut self, changed: &mut Vec<LinkId>) {
        while matches!(self.events.front(), Some(e) if e.time <= self.clock) {
            let e = self.events.pop_front().expect("front checked");
            self.apply_event(e, changed);
        }
    }

    fn apply_event(&mut self, e: FaultEvent, changed: &mut Vec<LinkId>) {
        if e.kind == FaultKind::LinkFailure {
            let link = e.link.expect("link failures carry a link");
            if !self.topo.link(link).is_up() {
                self.faults.skipped += 1;
                return;
            }
            let deg = Degradation::link_down(link);
            deg.apply(&mut self.topo);
            changed.push(link);
            self.faults.link_failures += 1;
            // N-strike ledger: a link that keeps flapping stops being
            // repaired (stays down; ECMP routes around it permanently).
            let escalate = self.flaps.record(link_key(link), self.clock);
            let repair_at = if escalate {
                self.escalations += 1;
                None
            } else {
                Some(self.clock + self.cfg.flap_repair)
            };
            self.active.push(ActiveFault {
                node: None,
                link: Some(link),
                degradations: vec![deg],
                perturbations: Vec::new(),
                links: vec![link],
                repair_at,
            });
            return;
        }

        let node = e.node.expect("node faults carry a node");
        if !self.topo.is_node_healthy(node) || self.active.iter().any(|f| f.node == Some(node)) {
            self.faults.skipped += 1;
            return;
        }

        if e.is_crash() {
            // Fatal node fault: host links go dark, processes die.
            let degs = vec![
                Degradation::node_tx_slow(node, 0.0),
                Degradation::node_rx_slow(node, 0.0),
            ];
            for d in &degs {
                d.apply(&mut self.topo);
            }
            let links = node_links(&self.topo, node);
            changed.extend(links.iter().copied());
            self.faults.crashes += 1;
            let hosts_job = self
                .jobs
                .values()
                .any(|j| j.job.layout().nodes.contains(&node));
            self.active.push(ActiveFault {
                node: Some(node),
                link: None,
                degradations: degs,
                perturbations: Vec::new(),
                links,
                repair_at: None,
            });
            if !hosts_job {
                // Idle-node crash: pull it out of the pools directly.
                self.topo.set_node_healthy(node, false);
                self.free_nodes.retain(|&n| n != node);
                if self.cfg.node_repair > SimDuration::ZERO {
                    self.node_repairs.push(NodeRepair {
                        at: self.clock + self.cfg.node_repair,
                        node,
                        via_steering: false,
                    });
                }
            }
            return;
        }

        // Degradations.
        self.faults.degradations += 1;
        let repair_at = Some(self.clock + self.cfg.degradation_duration);
        let fault = match e.kind {
            FaultKind::SlowGpu => ActiveFault {
                node: Some(node),
                link: None,
                degradations: Vec::new(),
                perturbations: vec![ComputePerturbation::slow_gpu(
                    e.gpu.expect("slow-gpu is gpu-scoped"),
                    2.0,
                )],
                links: Vec::new(),
                repair_at,
            },
            FaultKind::GcPause => ActiveFault {
                node: Some(node),
                link: None,
                degradations: Vec::new(),
                perturbations: vec![ComputePerturbation::gc_pause(
                    self.topo.gpu_at(node, 0),
                    SimDuration::from_millis(400),
                )],
                links: Vec::new(),
                repair_at,
            },
            FaultKind::PcieDowngrade => {
                let gpu = e.gpu.expect("pcie downgrade is gpu-scoped");
                let deg = Degradation::pcie_downgrade(gpu, 0.25);
                deg.apply(&mut self.topo);
                let g = self.topo.gpu(gpu);
                let links = vec![g.pcie_tx, g.pcie_rx];
                changed.extend(links.iter().copied());
                ActiveFault {
                    node: Some(node),
                    link: None,
                    degradations: vec![deg],
                    perturbations: Vec::new(),
                    links,
                    repair_at,
                }
            }
            FaultKind::NicHalfDown => {
                // Deterministically pick one bonded port on one NIC.
                let nics = &self.topo.node(node).nics;
                let nic = nics[(e.id as usize) % nics.len()];
                let port = self.topo.nic(nic).ports[(e.id as usize >> 1) % 2];
                let deg = Degradation::nic_half_down(port);
                deg.apply(&mut self.topo);
                let p = self.topo.port(port);
                let links = vec![p.host_up, p.host_down];
                changed.extend(links.iter().copied());
                ActiveFault {
                    node: Some(node),
                    link: None,
                    degradations: vec![deg],
                    perturbations: Vec::new(),
                    links,
                    repair_at,
                }
            }
            other => unreachable!("unhandled degradation kind {other:?}"),
        };
        self.active.push(fault);
    }

    /// Surgically rebases every job's plan cache after link-state changes.
    fn rebase_caches(&mut self, affected: &[LinkId]) {
        for fj in self.jobs.values_mut() {
            self.cache_rebased_drops += fj.job.plan_cache_mut().rebase(&self.topo, affected) as u64;
        }
    }

    /// Audits the zero-stale-route invariant right after a rebase: no
    /// cache may still hold a pre-mutation plan routing through the links
    /// whose state just changed. (A plan cached *after* a link silently
    /// died can legitimately route through it — host-link state is
    /// invisible to live ECMP, and that hang is exactly what the streaming
    /// detectors exist to catch.)
    fn audit_stale_routes(&mut self, changed: &[LinkId]) {
        if changed.is_empty() {
            return;
        }
        for fj in self.jobs.values() {
            if fj.job.plan_cache().any_route_through(changed) {
                self.stale_plan_routes += 1;
            }
        }
    }

    /// Admits queued arrivals (and newly due pending ones) while capacity
    /// lasts.
    fn admit_queued(&mut self) {
        while matches!(self.pending.front(), Some((t, _)) if *t <= self.clock) {
            let (_, t) = self.pending.pop_front().expect("front checked");
            self.queue.push_back(t);
        }
        while let Some(t) = self.queue.front() {
            let gpn = self.topo.gpus().len() / self.topo.num_nodes();
            let need = t.spec.gpus() / gpn;
            if need == 0 || need > self.free_nodes.len() {
                break;
            }
            let t = self.queue.pop_front().expect("front checked");
            let nodes: Vec<NodeId> = self.free_nodes.drain(..need).collect();
            let layout = match ParallelLayout::place(&self.topo, &t.spec, nodes.clone()) {
                Ok(l) => l,
                Err(_) => {
                    // Placement raced with a fault on a drained node; put
                    // the nodes back and retry next round.
                    self.free_nodes.extend(nodes);
                    self.free_nodes.sort();
                    self.queue.push_front(t);
                    break;
                }
            };
            let id = self.next_job_id;
            self.next_job_id += 1;
            let mut job = TrainingJob::new(&self.topo, t.spec.clone(), layout, id * 1024);
            job.comm_deadline = self.cfg.comm_deadline;
            job.parallel = self.cfg.parallel;
            let salt = self.cfg.seed ^ (id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let fj = FleetJob {
                policy: t.policy,
                target_iterations: t.target_iterations,
                job,
                selector: EcmpSelector::new(salt),
                rng: DetRng::seed_from(salt ^ 0xF1EE_7000),
                health: CollHealthDetector::new(
                    self.cfg.slow_window,
                    self.cfg.comm_deadline,
                    self.cfg.slow_factor,
                    self.cfg.slow_baseline,
                ),
                acc: JobAccounting {
                    admitted: self.clock,
                    ..JobAccounting::default()
                },
                blocked_until: self.clock,
                productive_since_ckpt: SimDuration::ZERO,
                recent_replacements: Vec::new(),
                failed: false,
            };
            self.jobs.insert(id, fj);
        }
    }

    /// Removes a job, frees its nodes, records the outcome.
    fn depart(&mut self, id: u64, completed: bool, failed: bool) {
        let fj = match self.jobs.remove(&id) {
            Some(j) => j,
            None => return,
        };
        self.cache_hits += fj.job.plan_cache().hits();
        self.cache_misses += fj.job.plan_cache().misses();
        self.drain_reuses += fj.job.plan_cache().drain_reuses();
        for &n in &fj.job.layout().nodes {
            if self.topo.is_node_healthy(n) {
                self.free_nodes.push(n);
            }
        }
        self.free_nodes.sort();
        self.free_nodes.dedup();
        let mut acc = fj.acc;
        acc.finished = Some(self.clock);
        self.outcomes.push(JobOutcome {
            id,
            name: fj.job.spec().name.clone(),
            policy: fj.policy,
            completed,
            failed,
            final_dp: fj.job.spec().dp,
            accounting: acc,
        });
    }
}
