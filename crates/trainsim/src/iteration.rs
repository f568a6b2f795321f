//! BSP iteration execution: compute phase (with perturbations) followed by
//! concurrent DP gradient synchronization through the network simulator.

use c4_collectives::{
    run_concurrent_cached, CollKind, CollectiveRequest, CommConfig, Communicator, PlanCache,
    QpWeightFn,
};
use c4_faults::ComputePerturbation;
use c4_netsim::{DrainConfig, PathSelector};
use c4_simcore::{DetRng, ParallelPolicy, SimDuration, SimTime};
use c4_telemetry::{CommRecord, WorkerTelemetry};
use c4_topology::Topology;

use crate::job::{JobSpec, ParallelLayout};

/// What one iteration produced.
#[derive(Debug, Clone)]
pub struct IterationReport {
    /// Longest per-rank compute time this iteration (GA micro-batches).
    pub compute: SimDuration,
    /// Gradient-sync duration (slowest DP group, from last-rank-ready).
    pub comm: SimDuration,
    /// Iteration wall time: compute + exposed communication.
    pub total: SimDuration,
    /// Minimum bus bandwidth across DP groups (Gbps); `None` on hang.
    pub busbw_min_gbps: Option<f64>,
    /// Mean bus bandwidth across DP groups (Gbps); `None` on hang.
    pub busbw_mean_gbps: Option<f64>,
    /// True when any DP group's collective never completed.
    pub hung: bool,
}

impl IterationReport {
    /// Samples/s this iteration sustains for the given global batch.
    pub fn samples_per_sec(&self, global_batch: usize) -> f64 {
        let t = self.total.as_secs_f64();
        if t <= 0.0 || self.hung {
            0.0
        } else {
            global_batch as f64 / t
        }
    }
}

/// A placed, running job: owns its communicators, sequence numbers and
/// virtual clock.
#[derive(Debug, Clone)]
pub struct TrainingJob {
    spec: JobSpec,
    layout: ParallelLayout,
    comms: Vec<Communicator>,
    seq: u64,
    now: SimTime,
    comm_config: CommConfig,
    /// Flow-plan cache reused across the iteration × collective loop: BSP
    /// iterations re-issue identical gradient syncs, so the per-DP-group
    /// ring plans and QP paths are built once per (incarnation, selector
    /// state, topology version) instead of per iteration.
    plan_cache: PlanCache,
    /// Give-up horizon for a single gradient sync (hang modelling).
    pub comm_deadline: SimDuration,
    /// Thread budget for this job's flow-plan route assembly. Results are
    /// bit-identical at any thread count; defaults to the `C4_THREADS`
    /// environment selection.
    pub parallel: ParallelPolicy,
}

impl TrainingJob {
    /// Creates the job's DP communicators over its layout.
    ///
    /// `comm_base` namespaces communicator ids so concurrent jobs don't
    /// collide.
    ///
    /// # Panics
    ///
    /// Panics if a DP group is invalid (empty/duplicate devices) — the
    /// layout constructor prevents this.
    pub fn new(topo: &Topology, spec: JobSpec, layout: ParallelLayout, comm_base: u64) -> Self {
        let comms: Vec<Communicator> = layout
            .dp_groups
            .iter()
            .enumerate()
            .map(|(i, g)| {
                Communicator::new(comm_base + i as u64, g.clone(), topo)
                    .expect("layout produces valid groups")
            })
            .collect();
        TrainingJob {
            spec,
            layout,
            comms,
            seq: 0,
            now: SimTime::ZERO,
            comm_config: CommConfig::default(),
            plan_cache: PlanCache::new(),
            comm_deadline: SimDuration::from_secs(120),
            parallel: ParallelPolicy::default(),
        }
    }

    /// The job spec.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// The job layout.
    pub fn layout(&self) -> &ParallelLayout {
        &self.layout
    }

    /// The DP communicators.
    pub fn comms(&self) -> &[Communicator] {
        &self.comms
    }

    /// Virtual clock (advances across iterations).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Completed iteration count.
    pub fn iterations(&self) -> u64 {
        self.seq
    }

    /// Registers the job's communicators into per-worker telemetry stores.
    pub fn register_telemetry(&self, tel: &mut [WorkerTelemetry]) {
        for comm in &self.comms {
            for &g in comm.devices() {
                tel[g.index()].record_comm(CommRecord {
                    comm: comm.id(),
                    devices: comm.devices().to_vec(),
                    created: self.now,
                });
            }
        }
    }

    /// The job's flow-plan cache (hit/miss statistics, explicit
    /// invalidation after steering events the topology cannot see).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// Mutable access to the plan cache (e.g. `clear()` after an external
    /// steering decision).
    pub fn plan_cache_mut(&mut self) -> &mut PlanCache {
        &mut self.plan_cache
    }

    /// Bumps communicator incarnations (restart after a crash) so ECMP
    /// re-hashes and C4P re-allocates; cached plans of the old incarnation
    /// are dropped.
    pub fn restart(&mut self) {
        for c in &mut self.comms {
            c.bump_incarnation();
            self.plan_cache.invalidate_comm(c.id());
        }
    }

    /// Advances the job's virtual clock without running an iteration.
    ///
    /// Fleet controllers charge recovery downtime (detection, steering
    /// turnaround, re-init, redone work) to the job's clock this way, and
    /// also fast-forward over analytically-extrapolated BSP iterations so
    /// telemetry and drain deadlines of the next live iteration carry the
    /// correct wall-clock offset.
    pub fn advance_clock(&mut self, by: SimDuration) {
        self.now += by;
    }

    /// Replaces the job's layout after a steering decision (node swapped
    /// out, whole-job re-placement, or DP shrink).
    ///
    /// The DP communicators are rebuilt over the new layout's groups with
    /// their **same ids** (rank membership changed, not job identity) and
    /// a bumped incarnation, and every old plan is dropped from the cache
    /// — so the next iteration re-plans from scratch and a cached route
    /// through the removed node can never be served. The virtual clock,
    /// iteration count and cache statistics survive.
    ///
    /// # Panics
    ///
    /// Panics if a DP group of the new layout is invalid (empty/duplicate
    /// devices) — the layout constructor prevents this.
    pub fn replace_layout(&mut self, topo: &Topology, spec: JobSpec, layout: ParallelLayout) {
        let comm_base = self.comms.first().map_or(0, |c| c.id());
        let next_inc = self
            .comms
            .iter()
            .map(|c| c.incarnation())
            .max()
            .unwrap_or(0)
            + 1;
        for c in &self.comms {
            self.plan_cache.invalidate_comm(c.id());
        }
        self.comms = layout
            .dp_groups
            .iter()
            .enumerate()
            .map(|(i, g)| {
                Communicator::new(comm_base + i as u64, g.clone(), topo)
                    .expect("layout produces valid groups")
                    .with_incarnation(next_inc)
            })
            .collect();
        self.spec = spec;
        self.layout = layout;
    }

    /// Runs one BSP iteration.
    ///
    /// Per-rank compute = GA × micro-batch time, stretched by matching
    /// `perturbations` and ±1 % jitter; then all DP groups launch their
    /// gradient allreduce (ZeRO jobs: reduce-scatter + allgather, which
    /// moves the same bytes) concurrently through the network.
    pub fn run_iteration(
        &mut self,
        topo: &Topology,
        selector: &mut dyn PathSelector,
        qp_weights: Option<&QpWeightFn<'_>>,
        rng: &mut DetRng,
        perturbations: &[ComputePerturbation],
        telemetry: Option<&mut [WorkerTelemetry]>,
    ) -> IterationReport {
        let start = self.now;
        let base = self.spec.compute_per_iteration();

        // Per-communicator rank-ready times.
        let mut ready_per_comm: Vec<Vec<SimTime>> = Vec::with_capacity(self.comms.len());
        let mut max_compute = SimDuration::ZERO;
        for comm in &self.comms {
            let mut ready = Vec::with_capacity(comm.nranks());
            for &gpu in comm.devices() {
                let mut compute = base;
                for p in perturbations.iter().filter(|p| p.gpu == gpu) {
                    compute = p.perturb(compute);
                }
                let jitter = rng.normal_with(1.0, 0.01).clamp(0.9, 1.1);
                compute = compute * jitter;
                max_compute = max_compute.max(compute);
                ready.push(start + compute);
            }
            ready_per_comm.push(ready);
        }

        let drain = DrainConfig {
            deadline: Some(start + max_compute + self.comm_deadline),
            parallel: self.parallel,
            ..DrainConfig::default()
        };
        let requests: Vec<CollectiveRequest<'_>> = self
            .comms
            .iter()
            .zip(&ready_per_comm)
            .map(|(comm, ready)| CollectiveRequest {
                comm,
                seq: self.seq,
                kind: CollKind::AllReduce,
                dtype: self.spec.grad_dtype,
                count: self.spec.grad_elems_per_rank(),
                config: self.comm_config,
                start,
                rank_ready: Some(ready),
                drain: drain.clone(),
            })
            .collect();

        let results = run_concurrent_cached(
            topo,
            &requests,
            selector,
            qp_weights,
            rng,
            telemetry,
            Some(&mut self.plan_cache),
        );

        let hung = results.iter().any(|r| r.hung());
        let comm = results
            .iter()
            .filter_map(|r| r.duration())
            .max()
            .unwrap_or(SimDuration::ZERO);
        let busbws: Vec<f64> = results.iter().filter_map(|r| r.busbw_gbps()).collect();
        let (busbw_min, busbw_mean) = if hung || busbws.is_empty() {
            (None, None)
        } else {
            (
                Some(busbws.iter().copied().fold(f64::INFINITY, f64::min)),
                Some(busbws.iter().sum::<f64>() / busbws.len() as f64),
            )
        };

        let exposed = comm * (1.0 - self.spec.overlap.clamp(0.0, 0.95));
        let total = max_compute + exposed;
        self.now = start + total;
        self.seq += 1;

        IterationReport {
            compute: max_compute,
            comm,
            total,
            busbw_min_gbps: busbw_min,
            busbw_mean_gbps: busbw_mean,
            hung,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4_netsim::{EcmpSelector, RailLocalSelector};
    use c4_topology::{ClosConfig, NodeId, PortSide};

    fn topo() -> Topology {
        Topology::build(&ClosConfig::testbed_128())
    }

    fn job(t: &Topology) -> TrainingJob {
        let spec = JobSpec::gpt22b_tp8_dp16();
        let nodes: Vec<NodeId> = (0..16).map(NodeId::from_index).collect();
        let layout = ParallelLayout::place(t, &spec, nodes).unwrap();
        TrainingJob::new(t, spec, layout, 100)
    }

    #[test]
    fn iteration_advances_clock_and_seq() {
        let t = topo();
        let mut j = job(&t);
        let mut sel = RailLocalSelector::new();
        let mut rng = DetRng::seed_from(1);
        let r = j.run_iteration(&t, &mut sel, None, &mut rng, &[], None);
        assert!(!r.hung);
        assert!(r.total > r.compute);
        assert_eq!(j.iterations(), 1);
        assert_eq!(j.now(), SimTime::ZERO + r.total);
        assert!(r.samples_per_sec(128) > 0.0);
    }

    #[test]
    fn balanced_paths_beat_ecmp() {
        let t = topo();
        let mut rng = DetRng::seed_from(2);
        let mut j1 = job(&t);
        let mut good = RailLocalSelector::new();
        let r_good = j1.run_iteration(&t, &mut good, None, &mut rng, &[], None);
        let mut j2 = job(&t);
        let mut bad = EcmpSelector::new(7);
        let r_bad = j2.run_iteration(&t, &mut bad, None, &mut rng, &[], None);
        assert!(
            r_bad.total > r_good.total,
            "ECMP {} should be slower than balanced {}",
            r_bad.total,
            r_good.total
        );
        assert!(r_good.busbw_min_gbps.unwrap() > r_bad.busbw_min_gbps.unwrap());
    }

    #[test]
    fn slow_gpu_stretches_compute() {
        let t = topo();
        let mut rng = DetRng::seed_from(3);
        let mut j = job(&t);
        let victim = t.gpu_at(NodeId::from_index(4), 2);
        let perturb = [ComputePerturbation::slow_gpu(victim, 2.0)];
        let mut sel = RailLocalSelector::new();
        let r = j.run_iteration(&t, &mut sel, None, &mut rng, &perturb, None);
        let base = j.spec().compute_per_iteration();
        assert!(
            r.compute > base * 1.8,
            "straggler must dominate compute: {} vs base {base}",
            r.compute
        );
    }

    #[test]
    fn dead_port_hangs_iteration() {
        let mut t = topo();
        let g = t.gpu_at(NodeId::from_index(0), 0);
        let p = t.port_of_gpu(g, PortSide::Left);
        let up = t.port(p).host_up;
        t.link_mut(up).set_up(false);
        let mut j = job(&t);
        j.comm_deadline = SimDuration::from_secs(10);
        let mut sel = RailLocalSelector::new();
        let mut rng = DetRng::seed_from(4);
        let r = j.run_iteration(&t, &mut sel, None, &mut rng, &[], None);
        assert!(r.hung);
        assert_eq!(r.busbw_min_gbps, None);
        assert_eq!(r.samples_per_sec(128), 0.0);
    }

    #[test]
    fn telemetry_flows_through_iterations() {
        let t = topo();
        let mut j = job(&t);
        let mut tel: Vec<WorkerTelemetry> = t
            .gpus()
            .iter()
            .map(|g| WorkerTelemetry::new(g.id))
            .collect();
        j.register_telemetry(&mut tel);
        let mut sel = RailLocalSelector::new();
        let mut rng = DetRng::seed_from(5);
        j.run_iteration(&t, &mut sel, None, &mut rng, &[], Some(&mut tel));
        j.run_iteration(&t, &mut sel, None, &mut rng, &[], Some(&mut tel));
        // Every GPU belongs to exactly one DP group → 2 coll records.
        for g in t.gpus() {
            let snap = tel[g.id.index()].snapshot(j.now());
            assert_eq!(snap.colls.len(), 2);
            assert_eq!(snap.comms.len(), 1);
            assert_eq!(snap.ranks.len(), 2);
        }
    }

    #[test]
    fn restart_bumps_incarnations() {
        let t = topo();
        let mut j = job(&t);
        assert!(j.comms().iter().all(|c| c.incarnation() == 0));
        j.restart();
        assert!(j.comms().iter().all(|c| c.incarnation() == 1));
    }

    #[test]
    fn plan_cache_reused_across_iterations_and_dropped_on_restart() {
        let t = topo();
        let mut j = job(&t);
        let groups = j.comms().len() as u64;
        let mut sel = EcmpSelector::new(5);
        let mut rng = DetRng::seed_from(6);
        j.run_iteration(&t, &mut sel, None, &mut rng, &[], None);
        assert_eq!(j.plan_cache().misses(), groups, "first iteration builds");
        assert_eq!(j.plan_cache().hits(), 0);
        j.run_iteration(&t, &mut sel, None, &mut rng, &[], None);
        j.run_iteration(&t, &mut sel, None, &mut rng, &[], None);
        assert_eq!(j.plan_cache().misses(), groups, "plans reused");
        assert_eq!(j.plan_cache().hits(), 2 * groups);
        // A restart bumps incarnations: old plans are gone and the next
        // iteration re-plans.
        j.restart();
        assert!(j.plan_cache().is_empty());
        j.run_iteration(&t, &mut sel, None, &mut rng, &[], None);
        assert_eq!(j.plan_cache().misses(), 2 * groups);
    }
}
