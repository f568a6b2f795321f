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
//! 6. act on what the detectors saw, through one free function (`decide`)
//!    that cannot read the fault schedule: a hang isolates C4D's critical
//!    suspect, or waits `RETRY_BACKOFF` and runs again when nothing
//!    localizes; persistent slowness isolates the slow suspect. Isolation
//!    goes through [`JobSteering`] and the job resumes per its
//!    [`RecoveryPolicy`] — backup swap, whole-job re-placement, or DP
//!    shrink when the backup pool is dry;
//! 7. depart finished jobs and advance the fleet clock.
//!
//! [`PlanCache`]: c4_collectives::PlanCache

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use c4_collectives::Communicator;
use c4_diagnosis::{
    CollHealthDetector, Diagnosis, JobSteering, SteeringError, StreamingC4dMaster, HANG_TIMEOUT,
    STEERING_TURNAROUND,
};
use c4_faults::{
    ComputePerturbation, Degradation, FaultEvent, FaultInjector, FaultKind, FaultRates,
};
use c4_netsim::EcmpSelector;
use c4_simcore::{DetRng, ParallelPolicy, SimDuration, SimTime};
use c4_telemetry::{CommRecord, TelemetryEvent, WorkerTelemetry};
use c4_topology::{ClosConfig, LinkId, NodeId, Topology};
use c4_trainsim::{JobSpec, ParallelLayout, TrainingJob};

use crate::accounting::{FleetReport, JobAccounting, JobOutcome};
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
    /// Multiplier on every December-2023 fault rate (soak acceleration).
    pub rate_multiplier: f64,
    /// Jobs admitted at time zero.
    pub initial_jobs: Vec<JobTemplate>,
    /// Later arrivals: (offset from start, template). Queued until enough
    /// free healthy nodes exist.
    pub arrivals: Vec<(SimDuration, JobTemplate)>,
    /// Time until a crashed/isolated node is repaired: an isolated node
    /// returns to the backup pool, a node that crashed idle to the pool it
    /// sat in; `ZERO` disables repair (bounded pools drain).
    pub node_repair: SimDuration,
    /// Thread budget for the network layers (bit-identical results at any
    /// setting).
    pub parallel: ParallelPolicy,
}

/// Localization latency charged on top of [`HANG_TIMEOUT`] per detection
/// (telemetry comparison on the C4D master).
pub const LOCALIZE_DELAY: SimDuration = SimDuration::from_secs(30);
/// Checkpoint cadence: work since the last checkpoint is redone after a
/// recovery.
pub const CHECKPOINT_INTERVAL: SimDuration = SimDuration::from_secs(600);
/// Re-initialization time after a restart.
pub const REINIT: SimDuration = SimDuration::from_secs(600);
/// Per-collective give-up horizon of every job (hang modelling).
const COMM_DEADLINE: SimDuration = SimDuration::from_secs(30);
/// Strike window of the fabric-link flap tracker and of the slow tracker.
const STRIKE_WINDOW: SimDuration = SimDuration::from_hours(2);
/// Failures of one fabric link within [`STRIKE_WINDOW`] after which the
/// link is no longer repaired and stays down.
const FLAP_STRIKES: usize = 3;
/// Auto-repair delay of a fabric link failure.
const FLAP_REPAIR: SimDuration = SimDuration::from_secs(300);
/// Wait before a job whose hang C4D did not localize runs again.
const RETRY_BACKOFF: SimDuration = SimDuration::from_secs(30);
/// How long degradation events (slow GPU, PCIe downgrade, GC pauses)
/// persist before self-healing.
const DEGRADATION_DURATION: SimDuration = SimDuration::from_secs(1800);
/// Slow strikes (windowed verdicts) within [`STRIKE_WINDOW`] before a job
/// that is not degraded-continue escalates persistent slowness to
/// isolation.
const SLOW_STRIKES: usize = 3;
/// Tumbling-window width of the per-job collective-health detector.
const SLOW_WINDOW: SimDuration = SimDuration::from_secs(5);
/// Mean-over-baseline ratio flagging a slow window.
const SLOW_FACTOR: f64 = 1.8;
/// Trailing window means forming the health baseline.
const SLOW_BASELINE: usize = 8;

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
            node_repair: SimDuration::from_hours(4),
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

    /// The fault rates the soak draws from: the December-2023 fleet's,
    /// scaled by `rate_multiplier`.
    pub fn fault_rates(&self) -> FaultRates {
        FaultRates::december_2023().scaled(self.rate_multiplier)
    }
}

/// Links whose state a fault (or its repair) changed — tracked by the
/// controller independently of the degradation object so cache rebasing
/// and the stale-route audit need no topology introspection at audit time.
#[derive(Debug, Clone)]
struct ActiveFault {
    node: Option<NodeId>,
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
#[derive(Debug, PartialEq)]
enum Action {
    /// Wait `RETRY_BACKOFF` and run the job again.
    Retry,
    /// Isolate `victim` and resume per policy.
    Recover { victim: NodeId },
}

/// The verdict → action rule, C4D's online path (localize, isolate,
/// restart): it reads the detectors' output and the controller's own
/// state, never the fault schedule.
///
/// A hung iteration isolates a critical suspect on the job, preferring one
/// not swapped in since the last clean iteration; with no such suspect the
/// job waits and runs again. Persistent slowness (`slow_escalates`)
/// isolates the first non-critical suspect, if it is on the job.
fn decide(
    hung: bool,
    diags: &[Diagnosis],
    slow_escalates: bool,
    job_nodes: &[NodeId],
    recent_replacements: &[NodeId],
) -> Option<Action> {
    if hung {
        let mut candidates: Vec<NodeId> = diags
            .iter()
            .filter(|d| d.critical)
            .filter_map(|d| d.suspect)
            .filter(|n| job_nodes.contains(n))
            .collect();
        candidates.dedup();
        let victim = candidates
            .iter()
            .find(|n| !recent_replacements.contains(n))
            .or_else(|| candidates.first());
        return Some(victim.map_or(Action::Retry, |&victim| Action::Recover { victim }));
    }
    if !slow_escalates {
        return None;
    }
    diags
        .iter()
        .filter(|d| !d.critical)
        .find_map(|d| d.suspect)
        .filter(|n| job_nodes.contains(n))
        .map(|victim| Action::Recover { victim })
}

/// Pending repair of a whole node.
#[derive(Debug, Clone, Copy)]
struct NodeRepair {
    at: SimTime,
    node: NodeId,
    /// True when the node goes back to the backup pool: it was isolated
    /// through the steering service or crashed idle in the backup pool.
    /// False for an idle crash in the free pool (goes back there).
    via_steering: bool,
}

/// The long-horizon fleet controller. Construct with [`FleetController::new`]
/// and drive to completion with [`FleetController::run`].
pub struct FleetController {
    cfg: FleetConfig,
    topo: Topology,
    steering: JobSteering,
    free_nodes: BTreeSet<NodeId>,
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
    /// Per-GPU telemetry stores, built on the first live iteration and
    /// reused: each live iteration clears and writes only its job's stores.
    tel: Vec<WorkerTelemetry>,
    /// The streaming C4D master, re-targeted at each communicator in turn
    /// (jobs run one after another, so one master serves them all).
    c4d: StreamingC4dMaster,
    /// The report [`run`](Self::run) returns, counted into as the soak
    /// goes: departed jobs' outcomes land in its `jobs`.
    report: FleetReport,
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

/// Takes the `n` lowest-numbered nodes out of `pool`.
fn take_lowest(pool: &mut BTreeSet<NodeId>, n: usize) -> Vec<NodeId> {
    std::iter::from_fn(|| pool.pop_first()).take(n).collect()
}

/// One communicator's telemetry as the detectors read it: the member
/// stores in `comm.devices()` order, each in its canonical per-store order.
/// That is the order `events_from_snapshots` gives the members' snapshots,
/// which the detectors' order-sensitive folds rely on.
fn comm_events<'a>(
    tel: &'a [WorkerTelemetry],
    comm: &'a Communicator,
) -> impl Iterator<Item = TelemetryEvent> + 'a {
    comm.devices()
        .iter()
        .flat_map(move |g| tel[g.index()].events())
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
        let free_nodes = (0..backup_start).map(NodeId::from_index).collect();
        let steering = JobSteering::new(backups);

        // Pre-draw the three fault schedules over the whole horizon from
        // the injector's disjoint per-class streams.
        let mut injector = FaultInjector::new(cfg.fault_rates(), cfg.seed);
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
            flaps: FlapTracker::new(STRIKE_WINDOW, FLAP_STRIKES),
            slow: FlapTracker::new(STRIKE_WINDOW, SLOW_STRIKES),
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
            tel: Vec::new(),
            c4d: StreamingC4dMaster::new(CommRecord {
                comm: 0,
                devices: Vec::new(),
                created: SimTime::ZERO,
            }),
            report: FleetReport {
                horizon: cfg.horizon,
                ..FleetReport::default()
            },
            cfg,
        };
        let initial = ctl.cfg.initial_jobs.clone();
        for t in initial {
            ctl.queue.push_back(t);
        }
        ctl.admit_queued();
        ctl
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
        let ids: Vec<u64> = self.jobs.keys().copied().collect();
        for id in ids {
            self.depart(id, false, false);
        }
        self.report.jobs.sort_by_key(|o| o.id);
        self.report.ended = self.clock;
        self.report
    }

    /// One controller tick.
    fn round(&mut self) {
        if cfg!(debug_assertions) {
            self.assert_pools_disjoint();
        }
        self.report.rounds += 1;
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
            self.act(id, action);
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

    /// Panics when a node is held twice: the free pool, the backup pool,
    /// steering's isolated set and the running jobs must be pairwise
    /// disjoint.
    fn assert_pools_disjoint(&self) {
        let job_nodes = self.jobs.values().flat_map(|j| &j.job.layout().nodes);
        let held = self
            .free_nodes
            .iter()
            .chain(self.steering.backups())
            .chain(self.steering.isolated())
            .chain(job_nodes);
        let mut seen = BTreeSet::new();
        for &n in held {
            assert!(
                seen.insert(n),
                "round {}: node {n} is held twice",
                self.report.rounds
            );
        }
    }

    /// Carries out one verdict for job `id`. A retry blocks the job for
    /// `RETRY_BACKOFF` and books the wait as downtime.
    fn act(&mut self, id: u64, action: Action) {
        match action {
            Action::Retry => {
                let fj = self.jobs.get_mut(&id).expect("job exists");
                fj.blocked_until = self.clock + RETRY_BACKOFF;
                fj.acc.retries += 1;
                fj.acc.downtime += RETRY_BACKOFF;
                fj.job.advance_clock(RETRY_BACKOFF);
            }
            Action::Recover { victim } => self.recover(id, victim),
        }
    }

    /// Runs one job's live iteration + detection; returns what to do.
    fn run_job_round(&mut self, id: u64, round_wall: &mut SimDuration) -> Option<Action> {
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

        // The iteration writes, and the detectors read, exactly the stores
        // of the job's communicator members; cleared, they hold what fresh
        // stores would.
        if self.tel.is_empty() {
            self.tel = topo
                .gpus()
                .iter()
                .map(|g| WorkerTelemetry::new(g.id))
                .collect();
        }
        let tel = &mut self.tel;
        let master = &mut self.c4d;
        for comm in fj.job.comms() {
            for &g in comm.devices() {
                tel[g.index()].clear();
            }
        }
        let round_start = fj.job.now();
        let report = fj.job.run_iteration(
            topo,
            &mut fj.selector,
            None,
            &mut fj.rng,
            &perturbs,
            Some(tel),
        );
        self.report.live_iterations += 1;

        // Stream this round's telemetry through the streaming master once
        // per communicator, re-targeted at each in turn: a half-down NIC
        // only hangs the DP groups hashed onto the dead port, so every
        // group must be watched.
        let scan_at = fj.job.now() + HANG_TIMEOUT + SimDuration::from_secs(1);
        let mut diags = Vec::new();
        let mut slow_verdict = false;
        for comm in fj.job.comms() {
            master.reset(comm.id(), comm.devices(), round_start);
            for e in comm_events(tel, comm) {
                master.feed(&e);
                slow_verdict |= !fj.health.feed(&e).is_empty();
            }
            diags.extend(master.scan(scan_at, topo));
        }

        if diags.iter().any(|d| d.critical) {
            self.report.detections += 1;
        }

        let slow_escalates = if report.hung {
            // The wasted iteration attempt plus the hang-detection latency
            // are downtime no matter how the job resumes.
            let waste = report.total + HANG_TIMEOUT + LOCALIZE_DELAY;
            fj.acc.downtime += waste;
            fj.job.advance_clock(HANG_TIMEOUT + LOCALIZE_DELAY);
            false
        } else {
            // Healthy (or merely slow) round: credit the stride.
            fj.recent_replacements.clear();
            let credited = report.total * stride as f64;
            fj.acc.iterations += stride;
            fj.acc.productive += credited;
            fj.productive_since_ckpt += credited;
            fj.job.advance_clock(report.total * (stride - 1) as f64);
            *round_wall = (*round_wall).max(credited);

            let slow = slow_verdict || diags.iter().any(|d| !d.critical);
            if !slow {
                false
            } else if fj.policy == RecoveryPolicy::DegradedContinue {
                fj.acc.degraded_iterations += stride;
                false
            } else {
                self.slow.record(id, self.clock)
            }
        };
        decide(
            report.hung,
            &diags,
            slow_escalates,
            &fj.job.layout().nodes,
            &fj.recent_replacements,
        )
    }

    /// Isolates `victim` through steering and resumes the job per policy.
    fn recover(&mut self, id: u64, victim: NodeId) {
        // Charge the recovery downtime: steering turnaround + re-init +
        // redone post-checkpoint work (detection was charged at verdict
        // time).
        let (redo, policy, old_nodes) = {
            let fj = &self.jobs[&id];
            let redo = SimDuration::from_secs_f64(
                fj.productive_since_ckpt.as_secs_f64() % CHECKPOINT_INTERVAL.as_secs_f64(),
            );
            (redo, fj.policy, fj.job.layout().nodes.clone())
        };
        let spent = STEERING_TURNAROUND + REINIT + redo;

        // Clear the victim's standing faults before the swap so its links
        // are clean when repair eventually returns it to the pool.
        self.clear_faults_on(victim);

        let swap = self
            .steering
            .isolate_and_replace(&mut self.topo, victim, self.clock);
        let victim_links = node_links(&self.topo, victim);

        let new_nodes: Option<Vec<NodeId>> = match swap {
            Ok(plan) => {
                self.report.isolations += 1;
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
                    let taken = take_lowest(&mut self.free_nodes, old_nodes.len());
                    self.free_nodes
                        .extend(old_nodes.iter().filter(|&&n| n != victim));
                    taken
                } else {
                    old_nodes
                        .iter()
                        .map(|&n| if n == victim { plan.replacement } else { n })
                        .collect()
                };
                self.report.replacements += 1;
                Some(fresh)
            }
            Err(SteeringError::BackupPoolExhausted) => {
                // Victim is cordoned but nothing replaces it: shrink the
                // job's DP width over the surviving nodes.
                self.report.isolations += 1;
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
                        }
                        Err(_) => fj.failed = true,
                    }
                }
            }
        }

        self.slow.clear_key(id);
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
        // Node repairs: return to the appropriate pool. Marking the node
        // healthy bumps the topology version, so its links join the
        // round's changed set: the rebase then re-stamps every plan that
        // avoids them instead of leaving every cache stale.
        let mut i = 0;
        while i < self.node_repairs.len() {
            if self.node_repairs[i].at <= self.clock {
                let r = self.node_repairs.remove(i);
                self.clear_faults_on(r.node);
                if r.via_steering {
                    self.steering.return_repaired(&mut self.topo, r.node);
                } else {
                    self.topo.set_node_healthy(r.node, true);
                    self.free_nodes.insert(r.node);
                }
                changed.extend(node_links(&self.topo, r.node));
                self.report.repairs_returned += 1;
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
                self.report.faults.skipped += 1;
                return;
            }
            let deg = Degradation::link_down(link);
            deg.apply(&mut self.topo);
            changed.push(link);
            self.report.faults.link_failures += 1;
            // N-strike ledger: a link that keeps flapping stops being
            // repaired (stays down; ECMP routes around it permanently).
            let escalate = self.flaps.record(link.index() as u64, self.clock);
            let repair_at = if escalate {
                self.report.escalations += 1;
                None
            } else {
                Some(self.clock + FLAP_REPAIR)
            };
            self.active.push(ActiveFault {
                node: None,
                degradations: vec![deg],
                perturbations: Vec::new(),
                links: vec![link],
                repair_at,
            });
            return;
        }

        let node = e.node.expect("node faults carry a node");
        if !self.topo.is_node_healthy(node) || self.active.iter().any(|f| f.node == Some(node)) {
            self.report.faults.skipped += 1;
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
            self.report.faults.crashes += 1;
            let hosts_job = self
                .jobs
                .values()
                .any(|j| j.job.layout().nodes.contains(&node));
            self.active.push(ActiveFault {
                node: Some(node),
                degradations: degs,
                perturbations: Vec::new(),
                links,
                repair_at: None,
            });
            if !hosts_job {
                // Idle-node crash: pull it out of the pool it sits in; its
                // repair returns it there.
                self.topo.set_node_healthy(node, false);
                let via_steering = self.steering.withdraw(node);
                self.free_nodes.remove(&node);
                if self.cfg.node_repair > SimDuration::ZERO {
                    self.node_repairs.push(NodeRepair {
                        at: self.clock + self.cfg.node_repair,
                        node,
                        via_steering,
                    });
                }
            }
            return;
        }

        // Degradations.
        self.report.faults.degradations += 1;
        let repair_at = Some(self.clock + DEGRADATION_DURATION);
        let fault = match e.kind {
            FaultKind::SlowGpu => ActiveFault {
                node: Some(node),
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
            self.report.cache_rebased_drops +=
                fj.job.plan_cache_mut().rebase(&self.topo, affected) as u64;
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
                self.report.stale_plan_routes += 1;
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
            let nodes = take_lowest(&mut self.free_nodes, need);
            let layout = match ParallelLayout::place(&self.topo, &t.spec, nodes.clone()) {
                Ok(l) => l,
                Err(_) => {
                    // Placement raced with a fault on a drained node; put
                    // the nodes back and retry next round.
                    self.free_nodes.extend(nodes);
                    self.queue.push_front(t);
                    break;
                }
            };
            let id = self.next_job_id;
            self.next_job_id += 1;
            let mut job = TrainingJob::new(&self.topo, t.spec.clone(), layout, id * 1024);
            job.comm_deadline = COMM_DEADLINE;
            job.parallel = self.cfg.parallel;
            let salt = self.cfg.seed ^ (id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let fj = FleetJob {
                policy: t.policy,
                target_iterations: t.target_iterations,
                job,
                selector: EcmpSelector::new(salt),
                rng: DetRng::seed_from(salt ^ 0xF1EE_7000),
                health: CollHealthDetector::new(SLOW_WINDOW, SLOW_FACTOR, SLOW_BASELINE),
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
        let cache = fj.job.plan_cache();
        self.report.cache_hits += cache.hits();
        self.report.cache_misses += cache.misses();
        self.report.drain_reuses += cache.drain_reuses();
        self.report.late_dropped_durations += fj.health.late_dropped();
        let topo = &self.topo;
        let nodes = fj.job.layout().nodes.iter();
        self.free_nodes
            .extend(nodes.filter(|&&n| topo.is_node_healthy(n)));
        let mut acc = fj.acc;
        acc.finished = Some(self.clock);
        self.report.jobs.push(JobOutcome {
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

#[cfg(test)]
mod tests {
    use super::*;
    use c4_diagnosis::Syndrome;
    use c4_telemetry::pipeline::events_from_snapshots;
    use c4_telemetry::{AlgoKind, CollKind, CollRecord, ConnKey, DataType, RankRecord};
    use c4_topology::{GpuId, PortId};

    fn node(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    /// A diagnosis blaming `suspect`: a hang when `critical`, else a
    /// straggler.
    fn diag(suspect: usize, critical: bool) -> Diagnosis {
        let syndrome = if critical {
            Syndrome::NonCommHang {
                comm: 1,
                seq: 0,
                missing_ranks: vec![0],
            }
        } else {
            Syndrome::NonCommSlow {
                comm: 1,
                straggler: 0,
                ratio: 3.0,
            }
        };
        Diagnosis {
            at: SimTime::ZERO,
            syndrome,
            suspect: Some(node(suspect)),
            critical,
        }
    }

    #[test]
    fn an_unlocalized_hang_waits_and_runs_again() {
        let job = [node(0), node(1)];
        // The only critical suspect is off the job; the slow one does not
        // count for a hang.
        let diags = [diag(7, true), diag(1, false)];
        assert_eq!(decide(true, &diags, false, &job, &[]), Some(Action::Retry));
        assert_eq!(decide(true, &[], false, &job, &[]), Some(Action::Retry));
    }

    #[test]
    fn a_hang_isolates_the_suspect_not_swapped_in_since_the_last_clean_iteration() {
        let job = [node(0), node(1), node(2)];
        let diags = [diag(2, true), diag(2, true), diag(0, true)];
        assert_eq!(
            decide(true, &diags, false, &job, &[node(2)]),
            Some(Action::Recover { victim: node(0) })
        );
        assert_eq!(
            decide(true, &diags, false, &job, &[]),
            Some(Action::Recover { victim: node(2) })
        );
    }

    #[test]
    fn a_hang_blamed_only_on_a_swapped_in_node_isolates_it() {
        let job = [node(0), node(1)];
        assert_eq!(
            decide(true, &[diag(1, true)], false, &job, &[node(1)]),
            Some(Action::Recover { victim: node(1) })
        );
    }

    #[test]
    fn persistent_slowness_isolates_only_a_slow_suspect_on_the_job() {
        let job = [node(0), node(1)];
        assert_eq!(
            decide(false, &[diag(1, false)], true, &job, &[]),
            Some(Action::Recover { victim: node(1) })
        );
        // Escalation with no non-critical suspect on the job: nobody.
        assert_eq!(decide(false, &[diag(0, true)], true, &job, &[]), None);
        assert_eq!(decide(false, &[diag(5, false)], true, &job, &[]), None);
        assert_eq!(decide(false, &[], true, &job, &[]), None);
    }

    #[test]
    fn a_clean_or_unescalated_iteration_does_nothing() {
        let job = [node(0), node(1)];
        assert_eq!(decide(false, &[], false, &job, &[]), None);
        assert_eq!(decide(false, &[diag(1, false)], false, &job, &[]), None);
    }

    #[test]
    fn a_retry_blocks_the_job_for_the_backoff() {
        let mut ctl = FleetController::new(FleetConfig::smoke(5));
        let job_clock = ctl.jobs[&0].job.now();
        ctl.act(0, Action::Retry);
        let fj = &ctl.jobs[&0];
        assert_eq!(fj.blocked_until, ctl.clock + RETRY_BACKOFF);
        assert_eq!(fj.acc.retries, 1);
        assert_eq!(fj.acc.downtime, RETRY_BACKOFF);
        assert_eq!(
            fj.job.now(),
            job_clock + RETRY_BACKOFF,
            "the job's clock waits too"
        );
    }

    #[test]
    fn comm_events_follow_the_member_order_not_the_gpu_order() {
        let topo = Topology::build(&ClosConfig::tiny(6));
        let devices: Vec<GpuId> = [5, 2, 9].into_iter().map(GpuId::from_index).collect();
        let comm = Communicator::new(3, devices.clone(), &topo).unwrap();
        let mut tel: Vec<WorkerTelemetry> = topo
            .gpus()
            .iter()
            .map(|g| WorkerTelemetry::new(g.id))
            .collect();
        for (rank, &g) in devices.iter().enumerate() {
            let w = &mut tel[g.index()];
            for (seq, end) in [(0, Some(SimTime::from_secs(1))), (1, None)] {
                w.record_coll(CollRecord {
                    comm: 3,
                    seq,
                    rank: rank as u32,
                    kind: CollKind::AllReduce,
                    algo: AlgoKind::Ring,
                    dtype: DataType::F32,
                    count: 8,
                    start: SimTime::from_secs(seq),
                    end,
                });
            }
            // Connections recorded out of key order, one of them twice.
            for qp in [2u16, 0, 1, 2] {
                let key = ConnKey {
                    comm: 3,
                    channel: 0,
                    qp,
                    src_gpu: g,
                    dst_gpu: devices[(rank + 1) % devices.len()],
                };
                w.record_message(
                    key,
                    PortId::from_index(g.index()),
                    64 << qp,
                    SimDuration::from_micros(10 + u64::from(qp)),
                    SimTime::from_secs(2),
                );
            }
            for step in 0..2 {
                w.record_rank(RankRecord {
                    comm: 3,
                    rank: rank as u32,
                    step,
                    compute: SimDuration::from_millis(step + 1),
                    ready_delay: SimDuration::ZERO,
                    arrived: SimTime::from_secs(step),
                });
            }
        }
        let snaps: Vec<_> = devices
            .iter()
            .map(|g| tel[g.index()].snapshot(SimTime::from_secs(3)))
            .collect();
        let streamed: Vec<TelemetryEvent> = comm_events(&tel, &comm).collect();
        assert_eq!(
            streamed.len(),
            3 * 7,
            "per store: 2 colls, 3 conns, 2 ranks"
        );
        assert_eq!(streamed, events_from_snapshots(&snaps));
    }
}
