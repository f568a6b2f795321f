//! The hybrid workload: the TP8/PP8/EP8 MoE job of
//! `c4::scenarios::hybrid` on a `pod_grouped_railed` fabric, ECMP vs C4P,
//! 10 % DCQCN rate noise, paper CNP accounting and a rotating 4× hot
//! expert, every drain on the default exact solver.
//!
//! A run is a closed loop of *steps*. Each step is one ECMP iteration
//! followed by one C4P iteration, each on its own job (own plan cache)
//! but drawing from one shared random stream, in the scenario's order: each
//! selector draws its hot-expert rotation offset right before its first
//! iteration. Step 0 is therefore exactly the scenario's one-iteration
//! cell (cold plan caches); later steps are warm.

use std::time::{Duration, Instant};

use c4::prelude::{
    mix64, C4pConfig, C4pMaster, ClosConfig, CnpModel, CollKind, DetRng, DrainConfig,
    DrainSolverStats, EcmpSelector, EpSkew, HybridIterationReport, HybridJob, HybridSpec, NodeId,
    ParallelPolicy, PathSelector, Topology,
};

use crate::layers::Layers;
use crate::report::{median, Digest, RunResult};
use crate::trace::{same_iteration, PhaseRunner, PhaseTrace, TimedSelector};

/// Set-ups per run; `setup_s` reports their median. A 2048-GPU set-up
/// takes milliseconds, so many repeats cost nothing and steady the median.
const SETUP_REPEATS: usize = 15;

/// Hot-expert byte skew of every EP all-to-all.
const HOT_FACTOR: f64 = 4.0;

/// One hybrid workload shape.
#[derive(Debug, Clone)]
pub struct HybridCell {
    /// Fabric size in nodes (8 GPUs each).
    pub nodes: usize,
    /// Job shape and message sizes.
    pub spec: HybridSpec,
}

/// The untimed state a step loop needs, built during set-up.
struct Setup {
    topo: Topology,
    ecmp: EcmpSelector,
    c4p: C4pMaster,
    jobs: [HybridJob; 2],
}

/// Set-up host time, whole and per timed layer.
struct SetupTimes {
    total: Duration,
    topology: Duration,
    master: Duration,
}

/// Stage-major node order (`c4::scenarios::hybrid` places the job the
/// same way): stage `s` owns nodes `s, s+pp, s+2·pp, …`.
fn stage_major_nodes(nodes: usize, pp: usize) -> Vec<NodeId> {
    let per_stage = nodes / pp;
    (0..pp)
        .flat_map(|s| (0..per_stage).map(move |k| NodeId::from_index(s + pp * k)))
        .collect()
}

/// The hot expert of `step`, drawing the selector's rotation offset from
/// `rng` on its first use.
fn skew(rng: &mut DetRng, offset: &mut Option<usize>, ep: usize, step: usize) -> EpSkew {
    let o = *offset.get_or_insert_with(|| rng.index(ep));
    EpSkew::hot(((o + step) % ep) as u32, HOT_FACTOR)
}

/// Seconds of a duration.
fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

impl HybridCell {
    /// `hybrid-exact-2k`: 2048 GPUs.
    pub fn exact_2k() -> Self {
        HybridCell {
            nodes: 256,
            spec: HybridSpec::moe(8, 8, 8),
        }
    }

    /// The 512-GPU cell with 16×-shrunken messages: the same flow graph
    /// shape at a fraction of the drain cost (tests).
    pub fn small_512() -> Self {
        let mut spec = HybridSpec::moe(8, 8, 8);
        spec.tp_elems /= 16;
        spec.pp_elems /= 16;
        spec.dp_elems /= 16;
        spec.ep_elems /= 16;
        HybridCell { nodes: 64, spec }
    }

    fn salt(&self, seed: u64) -> u64 {
        seed ^ 0xEC3F ^ self.nodes as u64
    }

    fn rng(&self, seed: u64) -> DetRng {
        DetRng::seed_from(seed ^ mix64(0x4D ^ self.nodes as u64))
    }

    fn master(&self, topo: &Topology, threads: usize) -> C4pMaster {
        C4pMaster::new(topo, C4pConfig::default())
            .with_parallel(ParallelPolicy::with_threads(threads))
    }

    fn job(&self, topo: &Topology, threads: usize) -> HybridJob {
        let nodes = stage_major_nodes(topo.num_nodes(), self.spec.pp);
        let mut job = HybridJob::new(topo, self.spec.clone(), nodes, 1).expect("cell shape places");
        job.drain = DrainConfig {
            rate_noise: 0.10,
            cnp: Some(CnpModel::paper_default()),
            parallel: ParallelPolicy::with_threads(threads),
            ..DrainConfig::default()
        };
        job
    }

    /// Everything before the first simulated step: the fabric, job
    /// placement (one job per selector) and both selectors.
    fn setup(&self, seed: u64) -> (Setup, SetupTimes) {
        let start = Instant::now();
        let topo = Topology::build(&ClosConfig::pod_grouped_railed(self.nodes, 8));
        let topology = start.elapsed();
        let jobs = [self.job(&topo, 1), self.job(&topo, 1)];
        let ecmp = EcmpSelector::new(self.salt(seed));
        let t = Instant::now();
        let c4p = self.master(&topo, 1);
        let master = t.elapsed();
        let times = SetupTimes {
            total: start.elapsed(),
            topology,
            master,
        };
        (
            Setup {
                topo,
                ecmp,
                c4p,
                jobs,
            },
            times,
        )
    }

    /// Sets up [`SETUP_REPEATS`] times, keeping the last set-up.
    fn setups(&self, seed: u64) -> (Setup, Vec<SetupTimes>) {
        let mut times = Vec::with_capacity(SETUP_REPEATS);
        let mut kept = None;
        for _ in 0..SETUP_REPEATS {
            drop(kept.take());
            let (s, t) = self.setup(seed);
            times.push(t);
            kept = Some(s);
        }
        (kept.expect("at least one set-up"), times)
    }

    /// The untraced run: set up, run the cold step, then warm steps for
    /// `seconds` (at least one). Reports the end-to-end metrics.
    pub fn run_untraced(&self, workload: &str, seed: u64, seconds: f64) -> RunResult {
        let mut res = RunResult {
            workload: workload.into(),
            seed,
            threads: 1,
            ..RunResult::default()
        };
        let (setup, times) = self.setups(seed);
        let Setup {
            topo,
            mut ecmp,
            mut c4p,
            mut jobs,
        } = setup;
        let ep = self.spec.ep;
        let mut rng = self.rng(seed);
        let mut offsets = [None, None];
        let mut digest = Digest::default();
        let (mut ecmp_s, mut c4p_s, mut step_s) = (Vec::new(), Vec::new(), Vec::new());
        let mut window = Instant::now();
        for step in 0.. {
            let [job_e, job_c] = &mut jobs;
            let runs: [(&mut HybridJob, &mut dyn PathSelector); 2] =
                [(job_e, &mut ecmp), (job_c, &mut c4p)];
            let mut host = [0.0; 2];
            let mut reports = Vec::with_capacity(2);
            for (i, (job, sel)) in runs.into_iter().enumerate() {
                job.set_ep_skew(skew(&mut rng, &mut offsets[i], ep, step));
                let t = Instant::now();
                let r = job.run_iteration(&topo, sel, None, &mut rng);
                host[i] = secs(t.elapsed());
                reports.push(r);
            }
            check_step(&mut res, step, &reports[0], &reports[1]);
            if step == 0 {
                print_simulated(&mut res, &reports[0], &reports[1]);
            }
            if step < 2 {
                digest_iteration(&mut digest, &reports[0]);
                digest_iteration(&mut digest, &reports[1]);
            }
            if step == 0 {
                window = Instant::now();
                continue;
            }
            ecmp_s.push(host[0]);
            c4p_s.push(host[1]);
            step_s.push(host[0] + host[1]);
            if window.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        res.digest = digest.value();
        res.median_of(
            "setup_s",
            times.iter().map(|t| secs(t.total)).collect(),
            "s",
        );
        res.median_of("step_s", step_s, "s");
        res.median_of("ecmp_iter_s", ecmp_s, "s");
        res.median_of("c4p_iter_s", c4p_s, "s");
        res.finish();
        res
    }

    /// The traced run: the per-layer metrics, from a cold and a warm step
    /// re-driven phase by phase ([`PhaseRunner`]) with timed selectors
    /// ([`TimedSelector`]), each checked bit for bit against the same
    /// step run through `HybridJob::run_iteration`; then the cold step
    /// again at 2 threads. Emits no per-layer metric when a check fails.
    pub fn run_traced(&self, workload: &str, seed: u64) -> RunResult {
        let mut res = RunResult {
            workload: workload.into(),
            seed,
            trace: true,
            threads: 1,
            ..RunResult::default()
        };
        let mut layers = Layers::default();
        let (setup, times) = self.setups(seed);
        let ms = |f: fn(&SetupTimes) -> Duration| {
            median(&times.iter().map(|t| secs(f(t)) * 1e3).collect::<Vec<_>>())
        };
        layers.set("topology.build_ms", ms(|t| t.topology));
        layers.set("c4p.master_new_ms", ms(|t| t.master));

        // Path A: the library's own iteration loop (the reference, and the
        // untraced wall for the overhead). Path B: the traced re-drive.
        let Setup {
            topo,
            ecmp: mut ecmp_a,
            c4p: mut c4p_a,
            jobs: mut jobs_a,
        } = setup;
        let mut ecmp_b = EcmpSelector::new(self.salt(seed));
        let mut c4p_b = self.master(&topo, 1);
        let mut runners = jobs_a.each_ref().map(PhaseRunner::from_job);
        let ep = self.spec.ep;
        let (mut rng_a, mut rng_b) = (self.rng(seed), self.rng(seed));
        let (mut off_a, mut off_b) = ([None, None], [None, None]);
        let mut cold: Vec<HybridIterationReport> = Vec::with_capacity(2);
        let (mut cold_drain_ms, mut cold_select_ms) = (0.0, 0.0);
        let (mut wall_a, mut wall_b) = (0.0, 0.0);
        let mut digest = Digest::default();
        for step in 0..2 {
            let mut reports = Vec::with_capacity(2);
            for i in 0..2 {
                let sel_a: &mut dyn PathSelector = if i == 0 { &mut ecmp_a } else { &mut c4p_a };
                let job = &mut jobs_a[i];
                job.set_ep_skew(skew(&mut rng_a, &mut off_a[i], ep, step));
                let t = Instant::now();
                let ra = job.run_iteration(&topo, sel_a, None, &mut rng_a);
                let host_a = secs(t.elapsed());

                let sel_b: &mut dyn PathSelector = if i == 0 { &mut ecmp_b } else { &mut c4p_b };
                let drv = &mut runners[i];
                drv.set_ep_skew(skew(&mut rng_b, &mut off_b[i], ep, step));
                let mut timed = TimedSelector::new(sel_b);
                let t = Instant::now();
                let (rb, phases) = drv.run_iteration(&topo, &mut timed, &mut rng_b);
                let host_b = secs(t.elapsed());
                let select_ms = secs(timed.wall) * 1e3;
                let choices = std::mem::take(&mut timed.choices);

                // Differential: the re-drive reproduces the library loop,
                // and the wrapper changes no choice and no cache token.
                if let Err(e) = same_iteration(&ra, &rb) {
                    res.fail(format!("differential, step {step} selector {i}: {e}"));
                }
                let (ca, cb) = (jobs_a[i].plan_cache(), drv.plan_cache());
                if (ca.hits(), ca.misses()) != (cb.hits(), cb.misses()) {
                    res.fail(format!(
                        "differential, step {step} selector {i}: plan hits/misses differ"
                    ));
                }
                let unchanged = if i == 0 {
                    let mut fresh = EcmpSelector::new(self.salt(seed));
                    ecmp_a.cache_token() == ecmp_b.cache_token()
                        && choices.iter().all(|(k, c)| fresh.select(&topo, k) == *c)
                } else {
                    c4p_a.cache_token() == c4p_b.cache_token()
                        && choices.iter().all(|(k, c)| c4p_a.allocation(k) == Some(*c))
                };
                if !unchanged {
                    res.fail(format!(
                        "differential, step {step} selector {i}: the timing wrapper changed a choice or token"
                    ));
                }

                let plan_ms: f64 = phases.iter().map(|p| p.plan_ms).sum();
                let sum = |f: fn(&PhaseTrace) -> u64| phases.iter().map(f).sum::<u64>() as f64;
                layers.add("collectives.plan_hits", sum(|p| p.hits));
                layers.add("collectives.plan_misses", sum(|p| p.misses));
                if step == 0 {
                    let layer = if i == 0 {
                        "netsim.ecmp_select"
                    } else {
                        "c4p.select"
                    };
                    layers.set(&format!("{layer}_ms"), select_ms);
                    layers.set(&format!("{layer}_keys"), choices.len() as f64);
                    layers.add("collectives.plan_build_ms", plan_ms);
                    cold_drain_ms += phase_ms(&phases) - plan_ms;
                    if i == 1 {
                        cold_select_ms = select_ms;
                    }
                    cold.push(ra);
                } else {
                    add_warm_phases(&mut layers, &phases);
                    wall_a += host_a;
                    wall_b += host_b;
                }
                digest_iteration(&mut digest, &rb);
                reports.push(rb);
            }
            check_step(&mut res, step, &reports[0], &reports[1]);
            if step == 0 {
                print_simulated(&mut res, &reports[0], &reports[1]);
            }
        }
        // A warm step builds no plan, so its phase time is all drain.
        let warm_ms: f64 = ["tp", "pp", "ep", "dp"]
            .iter()
            .map(|f| layers.get(&format!("collectives.{f}_phase_ms")))
            .sum();
        let warm_events: f64 = ["tp", "pp", "ep", "dp"]
            .iter()
            .map(|f| layers.get(&format!("netsim.{f}_events")))
            .sum();
        layers.set("netsim.us_per_event", warm_ms * 1e3 / warm_events);
        layers.set("trace.overhead_frac", wall_b / wall_a - 1.0);
        drop((jobs_a, runners, ecmp_a, c4p_a, ecmp_b, c4p_b));

        // The cold step again with every fan-out at 2 threads: the same
        // results (checked), a different host time.
        let mut ecmp2 = EcmpSelector::new(self.salt(seed));
        let mut c4p2 = self.master(&topo, 2);
        let mut rng2 = self.rng(seed);
        let mut off2 = [None, None];
        let (mut drain2_ms, mut select2_ms) = (0.0, 0.0);
        for i in 0..2 {
            let mut drv = PhaseRunner::from_job(&self.job(&topo, 2));
            drv.set_ep_skew(skew(&mut rng2, &mut off2[i], ep, 0));
            let sel: &mut dyn PathSelector = if i == 0 { &mut ecmp2 } else { &mut c4p2 };
            let mut timed = TimedSelector::new(sel);
            let (r, phases) = drv.run_iteration(&topo, &mut timed, &mut rng2);
            // The solver's scratch arena is per worker thread, so its
            // high-water mark is the one counter the thread count moves.
            let strip = |r: &HybridIterationReport| {
                let mut r = r.clone();
                r.solver.arena_hwm_bytes = 0;
                r
            };
            if let Err(e) = same_iteration(&strip(&cold[i]), &strip(&r)) {
                res.fail(format!("2-thread cold step differs (selector {i}): {e}"));
            }
            let plan_ms: f64 = phases.iter().map(|p| p.plan_ms).sum();
            drain2_ms += phase_ms(&phases) - plan_ms;
            if i == 1 {
                select2_ms = secs(timed.wall) * 1e3;
            }
        }
        layers.set("netsim.drain_speedup_2t", cold_drain_ms / drain2_ms);
        layers.set("c4p.select_speedup_2t", cold_select_ms / select2_ms);

        res.digest = digest.value();
        if res.correct() {
            layers.emit(&mut res);
        }
        res.finish();
        res
    }
}

/// Host milliseconds of a traced iteration's phase calls.
fn phase_ms(phases: &[PhaseTrace]) -> f64 {
    phases.iter().map(|p| secs(p.wall) * 1e3).sum()
}

/// Folds one warm traced iteration into the per-phase and solver layers.
fn add_warm_phases(layers: &mut Layers, phases: &[PhaseTrace]) {
    let mut solver = DrainSolverStats::default();
    for p in phases {
        let family = match p.kind {
            CollKind::AllGather => "tp",
            CollKind::SendRecv => "pp",
            CollKind::AllToAll => "ep",
            _ => "dp",
        };
        layers.add(
            &format!("collectives.{family}_phase_ms"),
            secs(p.wall) * 1e3,
        );
        layers.add(&format!("netsim.{family}_events"), p.solver.events as f64);
        layers.add("netsim.congested_flows", p.congested_flows as f64);
        layers.add("netsim.cnp_total", p.cnp_total);
        solver.merge(&p.solver);
    }
    for (name, v) in [
        ("netsim.flows", solver.flows),
        ("netsim.full_solves", solver.full_solves),
        ("netsim.component_solves", solver.component_solves),
        ("netsim.sparse_solves", solver.sparse_solves),
        ("netsim.spine_rounds", solver.spine_rounds),
        ("netsim.spine_link_updates", solver.spine_link_updates),
        ("netsim.fallback_solves", solver.fallback_solves),
        ("netsim.batched_instants", solver.batched_instants),
        ("netsim.batched_completions", solver.batched_completions),
    ] {
        layers.add(name, v as f64);
    }
    layers.max("netsim.arena_hwm_bytes", solver.arena_hwm_bytes as f64);
}

/// Output checks of one step: no phase hangs on the healthy fabric, and
/// C4P's simulated iteration beats ECMP's (a miss fails the C4P
/// iteration's last phase).
fn check_step(
    res: &mut RunResult,
    step: usize,
    ecmp: &HybridIterationReport,
    c4p: &HybridIterationReport,
) {
    for (sel, r) in [("ECMP", ecmp), ("C4P", c4p)] {
        res.attempted += r.phases.len() as u64;
        for p in r.phases.iter().filter(|p| p.hung) {
            res.failed += 1;
            res.fail(format!(
                "step {step}: {sel} {} phase hung on a healthy fabric",
                p.kind
            ));
        }
    }
    if !c4p.hung && c4p.total >= ecmp.total {
        res.failed += 1;
        res.fail(format!(
            "step {step}: C4P iteration {:?} not shorter than ECMP {:?}",
            c4p.total, ecmp.total
        ));
    }
}

/// Mixes an iteration's simulated results into the digest.
fn digest_iteration(digest: &mut Digest, r: &HybridIterationReport) {
    digest.add(r.total.as_secs_f64());
    for p in &r.phases {
        digest.add(p.duration.as_secs_f64());
        digest.add(p.busbw_mean_gbps.unwrap_or(-1.0));
    }
}

/// Records the cold step's simulated results (printed, not gated).
fn print_simulated(res: &mut RunResult, ecmp: &HybridIterationReport, c4p: &HybridIterationReport) {
    let busbw = |r: &HybridIterationReport, kind| {
        r.phase(kind).and_then(|p| p.busbw_mean_gbps).unwrap_or(0.0)
    };
    let ms = |r: &HybridIterationReport| r.total.as_secs_f64() * 1e3;
    res.simulated.extend([
        ("sim.ecmp_iter_ms", ms(ecmp)),
        ("sim.c4p_iter_ms", ms(c4p)),
        ("sim.c4p_speedup", ms(ecmp) / ms(c4p)),
        ("sim.ecmp_ep_gbps", busbw(ecmp, CollKind::AllToAll)),
        ("sim.c4p_ep_gbps", busbw(c4p, CollKind::AllToAll)),
        ("sim.ecmp_dp_gbps", busbw(ecmp, CollKind::AllReduce)),
        ("sim.c4p_dp_gbps", busbw(c4p, CollKind::AllReduce)),
    ]);
}
