//! Fig 10 (and Fig 11): eight concurrent two-node allreduce jobs contending
//! for the spine fabric, with and without C4P's global traffic engineering,
//! at 1:1 and 2:1 oversubscription.
//!
//! Paper results:
//! * 1:1 — baseline tasks range 171.93–263.27 Gbps; C4P 353.86–360.57 Gbps;
//!   +70.3 % mean throughput.
//! * 2:1 — C4P tasks within an 11.27 Gbps spread around ≈180 Gbps (CNP rate
//!   control), +65.55 % over baseline.
//! * Fig 11 — each bonded port receives ≈15 k CNPs/s (12.5–17.5 k band).
//!
//! This module also scales the concurrent-jobs comparison far past the
//! paper's 128-GPU testbed: [`C4pScaleConfig::scale_4096`] runs the same
//! eight-tenant contention pattern on [`ClosConfig::pod_grouped_railed`]
//! fabrics of 512…4096 GPUs at 1:1, 2:1 and 4:1 oversubscription, with
//! every job interleaved across all leaf groups so each ring boundary
//! crosses the spine layer — the regime where ECMP collisions compound and
//! C4P's engineered allocation pays. Every cell runs the paper's DCQCN
//! rate-noise and CNP models (the event-driven drain engine keeps the
//! noisy event loops tractable at this scale). Each point records the
//! **plan-build wall clock** of both selectors (from
//! [`PlanCache::build_wall_ms`]) — the metric `bench_c4p` emits into
//! `BENCH_c4p.json` — and the **drain wall clock**, which the
//! `bench_drain` binary emits into `BENCH_drain.json`; CI gates both.

use std::time::Instant;

use c4_collectives::{
    run_concurrent, run_concurrent_cached, CollectiveRequest, Communicator, PlanCache,
};
use c4_netsim::{mix64, CnpModel, DrainConfig, EcmpSelector, PathSelector};
use c4_simcore::{DetRng, JsonValue, ParallelPolicy};
use c4_topology::{ClosConfig, GpuId, NodeId, Topology};
use c4_traffic::{C4pConfig, C4pMaster};

use crate::scenarios::benchmark_request;

/// One task's mean bus bandwidth under both selectors.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Task {
    /// Task index (1-based in the paper).
    pub task: usize,
    /// Baseline (uncoordinated ECMP) mean busbw, Gbps.
    pub baseline_gbps: f64,
    /// C4P global-traffic-engineering mean busbw, Gbps.
    pub c4p_gbps: f64,
}

/// The full Fig 10 (+ Fig 11) result.
#[derive(Debug, Clone)]
pub struct Fig10Report {
    /// True for the 2:1 oversubscription variant (spines halved).
    pub two_to_one: bool,
    /// Per-task means.
    pub tasks: Vec<Fig10Task>,
    /// Mean over tasks, baseline.
    pub baseline_mean: f64,
    /// Mean over tasks, C4P.
    pub c4p_mean: f64,
    /// Relative improvement (C4P/baseline − 1).
    pub improvement: f64,
    /// Fig 11: per-iteration CNP rates of every active sender port (kp/s)
    /// during the C4P run, as `(time_s, rates)` samples.
    pub cnp_series: Vec<(f64, Vec<f64>)>,
}

fn build_jobs(topo: &Topology) -> Vec<Communicator> {
    (0..8)
        .map(|i| {
            let devices: Vec<GpuId> = [i, 8 + i]
                .iter()
                .flat_map(|&n| topo.node(NodeId::from_index(n)).gpus.clone())
                .collect();
            Communicator::new(1 + i as u64, devices, topo).expect("valid job comm")
        })
        .collect()
}

/// Which selector drives an iteration loop.
enum Mode<'a> {
    /// ECMP with per-iteration re-salting: benchmark runs re-establish their
    /// QPs, so the hash placement varies run to run (what nccl-test
    /// averages over).
    Baseline {
        /// Base hash salt.
        salt: u64,
    },
    /// One C4P master serving all jobs. The engine reads byte-split
    /// weights off the master's rate EMA through
    /// [`PathSelector::byte_split_weight`] — no observer clone, no
    /// per-iteration weight-table snapshot.
    C4p {
        /// The selecting (and observing) master.
        master: &'a mut C4pMaster,
    },
}

fn run_mode(
    topo: &Topology,
    jobs: &[Communicator],
    mut mode: Mode<'_>,
    drain: &DrainConfig,
    iters: usize,
    rng: &mut DetRng,
) -> (Vec<f64>, Vec<(f64, Vec<f64>)>) {
    let mut sums = vec![0.0_f64; jobs.len()];
    let mut cnp = Vec::new();
    let mut clock = 0.0_f64;
    for it in 0..iters {
        let requests: Vec<CollectiveRequest<'_>> = jobs
            .iter()
            .map(|c| benchmark_request(c, it as u64, drain.clone()))
            .collect();
        let mut fresh_ecmp;
        let selector: &mut dyn PathSelector = match &mut mode {
            Mode::Baseline { salt } => {
                fresh_ecmp = EcmpSelector::new(*salt ^ (it as u64).wrapping_mul(0x9E37_79B9));
                &mut fresh_ecmp
            }
            Mode::C4p { master } => *master,
        };
        let results = run_concurrent(topo, &requests, selector, None, rng, None);
        let mut iter_secs = 0.0_f64;
        for (i, res) in results.iter().enumerate() {
            sums[i] += res.busbw_gbps().unwrap_or(0.0);
            iter_secs = iter_secs.max(res.duration().map(|d| d.as_secs_f64()).unwrap_or(0.0));
            if let Mode::C4p { master } = &mut mode {
                master.observe(&res.qp_outcomes);
            }
        }
        clock += iter_secs;
        let ports: Vec<f64> = results[0]
            .report
            .cnp_per_port
            .iter()
            .copied()
            .filter(|&c| c > 0.0)
            .collect();
        if !ports.is_empty() {
            cnp.push((clock, ports));
        }
    }
    (sums.iter().map(|s| s / iters as f64).collect(), cnp)
}

/// Runs Fig 10a (`two_to_one = false`) or Fig 10b + Fig 11 (`true`).
pub fn run(two_to_one: bool, seed: u64, iters: usize) -> Fig10Report {
    let mut topo = Topology::build(&ClosConfig::testbed_128_grouped(2).trunked());
    if two_to_one {
        for s in 4..8 {
            let spine = topo.spines()[s];
            topo.set_spine_up(spine, false);
        }
    }
    let jobs = build_jobs(&topo);
    let drain = DrainConfig {
        rate_noise: if two_to_one { 0.10 } else { 0.04 },
        cnp: Some(CnpModel::paper_default()),
        ..DrainConfig::default()
    };
    let mut rng = DetRng::seed_from(seed);

    let (baseline, _) = run_mode(
        &topo,
        &jobs,
        Mode::Baseline {
            salt: seed ^ 0xEC3F,
        },
        &drain,
        iters,
        &mut rng,
    );

    let mut master = C4pMaster::new(&topo, C4pConfig::default());
    let (c4p, cnp_series) = run_mode(
        &topo,
        &jobs,
        Mode::C4p {
            master: &mut master,
        },
        &drain,
        iters,
        &mut rng,
    );

    let baseline_mean = baseline.iter().sum::<f64>() / baseline.len() as f64;
    let c4p_mean = c4p.iter().sum::<f64>() / c4p.len() as f64;
    Fig10Report {
        two_to_one,
        tasks: (0..jobs.len())
            .map(|i| Fig10Task {
                task: i + 1,
                baseline_gbps: baseline[i],
                c4p_gbps: c4p[i],
            })
            .collect(),
        baseline_mean,
        c4p_mean,
        improvement: c4p_mean / baseline_mean - 1.0,
        cnp_series,
    }
}

/// Configuration of the C4P-vs-ECMP scale sweep (the Fig 10 contention
/// pattern on production-scale `pod_grouped` fabrics).
#[derive(Debug, Clone)]
pub struct C4pScaleConfig {
    /// Root random seed.
    pub seed: u64,
    /// BSP iterations per (scale, oversubscription, selector) cell.
    pub iters: usize,
    /// Cluster sizes to sweep, in nodes (GPUs = 8 × nodes, 8 jobs of
    /// `nodes / 8` nodes each). Every entry must be ≥ 32 (the smallest
    /// valid 8-group fabric) and `nodes / 8` must be ≤ 8 or divisible
    /// by 8 (the group-interleaving stripe).
    pub node_scales: Vec<usize>,
    /// Oversubscription ratios to sweep (`1.0` = non-blocking, `2.0` =
    /// the `pod_grouped` default).
    pub oversub: Vec<f64>,
    /// Thread budget for the plan and batch-selection layers.
    /// Simulated throughput is bit-identical at any value; only wall
    /// clocks move.
    pub parallel: ParallelPolicy,
}

impl C4pScaleConfig {
    /// The CI-gated sweep: 512…4096 GPUs at 1:1, 2:1 and 4:1
    /// oversubscription, with the paper's DCQCN rate noise and CNP
    /// accounting live in every cell.
    pub fn scale_4096(seed: u64, iters: usize) -> Self {
        C4pScaleConfig {
            seed,
            iters,
            node_scales: vec![64, 128, 256, 512],
            oversub: vec![1.0, 2.0, 4.0],
            parallel: ParallelPolicy::default(),
        }
    }

    /// The 16k extension: 8192- and 16384-GPU cells at the `pod_grouped`
    /// 2:1 default, DCQCN noise and CNP live — the regime where the SoA
    /// waterfill kernel and the pod-level split path earn their keep.
    /// (Gated separately from the 4k sweep so that baseline stays
    /// comparable across PRs.)
    pub fn scale_16384(seed: u64, iters: usize) -> Self {
        C4pScaleConfig {
            seed,
            iters,
            node_scales: vec![1024, 2048],
            oversub: vec![2.0],
            parallel: ParallelPolicy::default(),
        }
    }

    /// The 32k extension: the 32768-GPU cell at 2:1.
    pub fn scale_32768(seed: u64, iters: usize) -> Self {
        C4pScaleConfig {
            seed,
            iters,
            node_scales: vec![4096],
            oversub: vec![2.0],
            parallel: ParallelPolicy::default(),
        }
    }

    /// The drain-focused sweep behind `BENCH_drain.json`: the full
    /// 4096-GPU fabric at every oversubscription ratio (the noisy
    /// worst-case cells the event-driven drain engine exists for).
    pub fn drain_4096(seed: u64, iters: usize) -> Self {
        C4pScaleConfig {
            seed,
            iters,
            node_scales: vec![512],
            oversub: vec![1.0, 2.0, 4.0],
            parallel: ParallelPolicy::default(),
        }
    }
}

/// The DCQCN rate-noise level of one scale cell — the classic Fig 10
/// calibration: 4 % jitter on the non-blocking fabric, 10 % once the
/// fabric oversubscribes (§IV-B2's congested regime).
fn scale_rate_noise(oversub: f64) -> f64 {
    if oversub >= 2.0 {
        0.10
    } else {
        0.04
    }
}

/// One cell of the scale sweep: a cluster size × oversubscription ratio
/// with both selectors measured on identical workloads.
#[derive(Debug, Clone)]
pub struct C4pScaleRow {
    /// Total GPUs in the fabric (8 jobs share them).
    pub gpus: usize,
    /// Leaf downlink:uplink capacity ratio (1.0 or 2.0).
    pub oversub: f64,
    /// Mean per-job bus bandwidth under uncoordinated ECMP, Gbps.
    pub ecmp_gbps: f64,
    /// Mean per-job bus bandwidth under C4P dynamic load balance, Gbps.
    pub c4p_gbps: f64,
    /// `c4p / ecmp − 1`.
    pub improvement: f64,
    /// ECMP plan-build wall clock (ring planning + path selection + route
    /// assembly across all cache misses), milliseconds.
    pub ecmp_plan_ms: f64,
    /// C4P plan-build wall clock, milliseconds — the number the dense
    /// ledger + catalog indexes and batched selection exist to shrink.
    pub c4p_plan_ms: f64,
    /// Wall clock of the ECMP iterations minus plan building — the shared
    /// network drains (noisy DCQCN/CNP event loops), milliseconds. The
    /// workload the event-driven drain engine exists to shrink.
    pub ecmp_drain_ms: f64,
    /// Drain wall clock of the C4P iterations, milliseconds.
    pub c4p_drain_ms: f64,
    /// Whole-cell wall clock (topology build + both selectors), ms.
    pub wall_ms: f64,
}

/// The full scale sweep plus the timing metadata `BENCH_c4p.json` records.
#[derive(Debug, Clone)]
pub struct C4pScaleSweep {
    /// Per-cell results, in (scale, oversubscription) order.
    pub rows: Vec<C4pScaleRow>,
    /// Whole-sweep wall clock, milliseconds.
    pub total_wall_ms: f64,
    /// Thread budget the sweep ran under.
    pub threads: usize,
    /// The root seed.
    pub seed: u64,
    /// Iterations per cell.
    pub iters: usize,
}

/// Eight equal jobs interleaved across the fabric's leaf groups: job `i`
/// takes nodes `i, i+8, i+16, …`, ordered so consecutive ring nodes sit in
/// different groups — every boundary stream crosses the spine layer.
/// (Shared with the Fig 12-style fault-at-scale scenario.)
pub(crate) fn build_scale_jobs(topo: &Topology, nodes: usize) -> Vec<Communicator> {
    let per_job = nodes / 8;
    let order: Vec<usize> = if per_job <= 8 {
        // Stride-8 node ids already hop one group per step.
        (0..per_job).collect()
    } else {
        assert!(
            per_job.is_multiple_of(8),
            "group stripe needs nodes/8 ≤ 8 or divisible by 8, got {per_job}"
        );
        (0..per_job)
            .map(|k| (k % 8) * (per_job / 8) + k / 8)
            .collect()
    };
    (0..8u64)
        .map(|i| {
            let devices: Vec<GpuId> = order
                .iter()
                .map(|&s| NodeId::from_index(i as usize + 8 * s))
                .flat_map(|n| topo.node(n).gpus.clone())
                .collect();
            Communicator::new(1 + i, devices, topo).expect("valid scale job comm")
        })
        .collect()
}

/// The selector driving one scale cell. C4P observes its own QP outcomes
/// between iterations (the engine reads its byte-split weights by borrow).
enum ScaleMode<'a> {
    /// Uncoordinated ECMP with a fixed salt (plans cache across iters).
    Ecmp(EcmpSelector),
    /// The C4P master, batch-selecting under the sweep's thread budget.
    C4p(&'a mut C4pMaster),
}

/// Runs one selector over `iters` BSP iterations of the 8-job workload,
/// returning (mean per-job busbw Gbps, plan-build wall ms, drain wall ms).
/// The drain wall is the iteration loop's residual after plan building —
/// dominated by the shared noisy network drains.
fn run_scale_mode(
    topo: &Topology,
    jobs: &[Communicator],
    mut mode: ScaleMode<'_>,
    drain: &DrainConfig,
    iters: usize,
    rng: &mut DetRng,
) -> (f64, f64, f64) {
    let mode_start = Instant::now();
    let mut cache = PlanCache::new();
    let mut sum = 0.0_f64;
    let mut n = 0usize;
    for it in 0..iters {
        let requests: Vec<CollectiveRequest<'_>> = jobs
            .iter()
            .map(|c| benchmark_request(c, it as u64, drain.clone()))
            .collect();
        let selector: &mut dyn PathSelector = match &mut mode {
            ScaleMode::Ecmp(s) => s,
            ScaleMode::C4p(m) => *m,
        };
        let results =
            run_concurrent_cached(topo, &requests, selector, None, rng, None, Some(&mut cache));
        for res in &results {
            sum += res.busbw_gbps().unwrap_or(0.0);
            n += 1;
            if let ScaleMode::C4p(master) = &mut mode {
                master.observe(&res.qp_outcomes);
            }
        }
    }
    let plan_ms = cache.build_wall_ms();
    let mode_ms = mode_start.elapsed().as_secs_f64() * 1e3;
    (sum / n.max(1) as f64, plan_ms, (mode_ms - plan_ms).max(0.0))
}

/// Runs the C4P-vs-ECMP scale sweep.
///
/// # Panics
///
/// Panics if a scale point does not form a valid 8-group fabric (see
/// [`C4pScaleConfig::node_scales`]).
pub fn run_scale(cfg: &C4pScaleConfig) -> C4pScaleSweep {
    assert!(
        !cfg.node_scales.is_empty(),
        "sweep needs at least one scale"
    );
    let sweep_start = Instant::now();
    let mut rows = Vec::new();
    for &nodes in &cfg.node_scales {
        for &ratio in &cfg.oversub {
            let row_start = Instant::now();
            // Rail-dense leaves: past 256 nodes the leaf tier pins to the
            // 8 NIC rails and the trunks widen, so the per-flow fair share
            // stops halving at 4096 GPUs.
            let mut clos = ClosConfig::pod_grouped_railed(nodes, 8);
            // The railed pod wires 2:1; scale the trunk capacity for the
            // 1:1 (non-blocking) and 4:1 (congested) variants.
            clos.fabric_gbps *= 2.0 / ratio;
            let topo = Topology::build(&clos);
            let jobs = build_scale_jobs(&topo, nodes);
            // The paper's congestion dynamics run at full scale: DCQCN
            // rate jitter on congested flows plus CNP accounting, exactly
            // as in the classic 128-GPU cells. (The event-driven drain
            // keeps noisy cells tractable — noise used to stagger
            // thousands of same-size completions into individual
            // giant-component re-solves.)
            let drain = DrainConfig {
                rate_noise: scale_rate_noise(ratio),
                cnp: Some(CnpModel::paper_default()),
                parallel: cfg.parallel,
                ..DrainConfig::default()
            };
            let mut rng =
                DetRng::seed_from(cfg.seed ^ mix64(nodes as u64 ^ ((ratio as u64) << 32)));

            let ecmp = EcmpSelector::new(cfg.seed ^ 0xEC3F ^ nodes as u64);
            let (ecmp_gbps, ecmp_plan_ms, ecmp_drain_ms) = run_scale_mode(
                &topo,
                &jobs,
                ScaleMode::Ecmp(ecmp),
                &drain,
                cfg.iters,
                &mut rng,
            );

            let mut master =
                C4pMaster::new(&topo, C4pConfig::default()).with_parallel(cfg.parallel);
            let (c4p_gbps, c4p_plan_ms, c4p_drain_ms) = run_scale_mode(
                &topo,
                &jobs,
                ScaleMode::C4p(&mut master),
                &drain,
                cfg.iters,
                &mut rng,
            );

            rows.push(C4pScaleRow {
                gpus: nodes * clos.gpus_per_node,
                oversub: ratio,
                ecmp_gbps,
                c4p_gbps,
                improvement: c4p_gbps / ecmp_gbps.max(1e-9) - 1.0,
                ecmp_plan_ms,
                c4p_plan_ms,
                ecmp_drain_ms,
                c4p_drain_ms,
                wall_ms: row_start.elapsed().as_secs_f64() * 1e3,
            });
        }
    }
    C4pScaleSweep {
        rows,
        total_wall_ms: sweep_start.elapsed().as_secs_f64() * 1e3,
        threads: cfg.parallel.threads(),
        seed: cfg.seed,
        iters: cfg.iters,
    }
}

impl C4pScaleSweep {
    /// The sweep as a `BENCH_c4p.json`-schema document (`c4-bench-v1`).
    pub fn to_json(&self) -> JsonValue {
        let mut config = JsonValue::object();
        config
            .push("seed", self.seed)
            .push("iters", self.iters)
            .push("threads", self.threads);
        let rows: Vec<JsonValue> = self
            .rows
            .iter()
            .map(|r| {
                let mut row = JsonValue::object();
                row.push("gpus", r.gpus)
                    .push("oversub", r.oversub)
                    .push("ecmp_gbps", r.ecmp_gbps)
                    .push("c4p_gbps", r.c4p_gbps)
                    .push("improvement", r.improvement)
                    .push("ecmp_plan_ms", r.ecmp_plan_ms)
                    .push("c4p_plan_ms", r.c4p_plan_ms)
                    .push("ecmp_drain_ms", r.ecmp_drain_ms)
                    .push("c4p_drain_ms", r.c4p_drain_ms)
                    .push("wall_ms", r.wall_ms);
                row
            })
            .collect();
        let mut doc = JsonValue::object();
        doc.push("schema", "c4-bench-v1")
            .push("bench", "c4p_scale_sweep")
            .push("config", config)
            .push("rows", JsonValue::Array(rows))
            .push("total_wall_ms", self.total_wall_ms);
        doc
    }

    /// The sweep as a **drain-focused** `c4-bench-v1` document — the
    /// `BENCH_drain.json` schema: per-cell drain wall clocks of the noisy
    /// DCQCN/CNP event loops under both selectors, plus the simulated
    /// throughputs for context.
    pub fn to_drain_json(&self) -> JsonValue {
        let mut config = JsonValue::object();
        config
            .push("seed", self.seed)
            .push("iters", self.iters)
            .push("threads", self.threads);
        let rows: Vec<JsonValue> = self
            .rows
            .iter()
            .map(|r| {
                let mut row = JsonValue::object();
                row.push("gpus", r.gpus)
                    .push("oversub", r.oversub)
                    .push("ecmp_drain_ms", r.ecmp_drain_ms)
                    .push("c4p_drain_ms", r.c4p_drain_ms)
                    .push("ecmp_gbps", r.ecmp_gbps)
                    .push("c4p_gbps", r.c4p_gbps)
                    .push("wall_ms", r.wall_ms);
                row
            })
            .collect();
        let mut doc = JsonValue::object();
        doc.push("schema", "c4-bench-v1")
            .push("bench", "drain_noise_scale")
            .push("config", config)
            .push("rows", JsonValue::Array(rows))
            .push("total_wall_ms", self.total_wall_ms);
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_to_one_matches_paper_shape() {
        let r = run(false, 42, 4);
        assert_eq!(r.tasks.len(), 8);
        for t in &r.tasks {
            assert!(
                t.c4p_gbps > 330.0,
                "task {}: C4P {:.1} should approach 360",
                t.task,
                t.c4p_gbps
            );
            assert!(
                t.baseline_gbps < 300.0,
                "task {}: baseline {:.1} should be degraded",
                t.task,
                t.baseline_gbps
            );
        }
        assert!(
            r.improvement > 0.40,
            "mean improvement {:.2} (paper: 0.703)",
            r.improvement
        );
    }

    #[test]
    fn scale_sweep_shows_c4p_gain_and_times_plan_builds() {
        // A shrunken scale point (32 nodes = 256 GPUs, the smallest valid
        // 8-group fabric) exercises the full cell end to end.
        let cfg = C4pScaleConfig {
            seed: 7,
            iters: 2,
            node_scales: vec![32],
            oversub: vec![1.0, 2.0],
            parallel: ParallelPolicy::default(),
        };
        let sweep = run_scale(&cfg);
        assert_eq!(sweep.rows.len(), 2);
        for r in &sweep.rows {
            assert_eq!(r.gpus, 256);
            assert!(
                r.c4p_gbps > r.ecmp_gbps,
                "C4P {:.1} must beat ECMP {:.1} at {}:1",
                r.c4p_gbps,
                r.ecmp_gbps,
                r.oversub
            );
            assert!(r.ecmp_plan_ms > 0.0 && r.c4p_plan_ms > 0.0);
            assert!(r.ecmp_drain_ms > 0.0 && r.c4p_drain_ms > 0.0);
            assert!(r.wall_ms > 0.0);
        }
        // The blocking fabric carries less than the non-blocking one.
        assert!(sweep.rows[1].c4p_gbps < sweep.rows[0].c4p_gbps * 1.02);
        assert!(sweep.total_wall_ms >= sweep.rows.iter().map(|r| r.wall_ms).sum::<f64>());
    }

    #[test]
    fn scale_sweep_json_matches_schema() {
        let cfg = C4pScaleConfig {
            seed: 3,
            iters: 2,
            node_scales: vec![32],
            oversub: vec![2.0],
            parallel: ParallelPolicy::default(),
        };
        let doc = run_scale(&cfg).to_json();
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("c4-bench-v1")
        );
        assert_eq!(
            doc.get("bench").and_then(|v| v.as_str()),
            Some("c4p_scale_sweep")
        );
        assert!(doc.get("total_wall_ms").and_then(|v| v.as_f64()).unwrap() > 0.0);
        let back = JsonValue::parse(&doc.pretty()).expect("round-trip");
        let rows = back.get("rows").and_then(|r| r.as_array()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("gpus").and_then(|v| v.as_f64()), Some(256.0));
        assert!(rows[0].get("c4p_plan_ms").and_then(|v| v.as_f64()).unwrap() > 0.0);
        assert!(
            rows[0]
                .get("c4p_drain_ms")
                .and_then(|v| v.as_f64())
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn scale_cells_run_the_noise_model() {
        // The scale sweep's cells carry the paper's congestion dynamics:
        // under contention the drains must mark congested flows (DCQCN
        // caps drawn, CNPs emitted) rather than run noise-free.
        let cfg = C4pScaleConfig {
            seed: 5,
            iters: 1,
            node_scales: vec![32],
            oversub: vec![2.0],
            parallel: ParallelPolicy::default(),
        };
        let sweep = run_scale(&cfg);
        let r = &sweep.rows[0];
        // A noisy congested cell cannot sit exactly on the noise-free
        // plateau; the fair share is jittered a few percent below it.
        assert!(
            r.c4p_gbps < 362.0,
            "noisy 2:1 cell should sit below the NVLink cap: {}",
            r.c4p_gbps
        );
        assert!(r.c4p_gbps > 100.0, "but not collapse: {}", r.c4p_gbps);
    }

    #[test]
    fn scale_sweep_is_thread_count_invariant() {
        // Simulated throughput must not depend on the thread budget —
        // batch selection and route assembly both promise bit-identical
        // results.
        let mk = |threads: usize| {
            let cfg = C4pScaleConfig {
                seed: 11,
                iters: 2,
                node_scales: vec![32],
                oversub: vec![2.0],
                parallel: ParallelPolicy::with_threads(threads),
            };
            run_scale(&cfg)
        };
        let serial = mk(1);
        for threads in [2, 4] {
            let par = mk(threads);
            for (a, b) in par.rows.iter().zip(&serial.rows) {
                assert_eq!(
                    a.ecmp_gbps.to_bits(),
                    b.ecmp_gbps.to_bits(),
                    "ECMP diverged at {threads} threads"
                );
                assert_eq!(
                    a.c4p_gbps.to_bits(),
                    b.c4p_gbps.to_bits(),
                    "C4P diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn two_to_one_keeps_small_spread_under_c4p() {
        let r = run(true, 42, 4);
        let min = r
            .tasks
            .iter()
            .map(|t| t.c4p_gbps)
            .fold(f64::INFINITY, f64::min);
        let max = r.tasks.iter().map(|t| t.c4p_gbps).fold(0.0_f64, f64::max);
        assert!(
            max - min < 40.0,
            "C4P spread {:.1} should be small (paper: 11.27)",
            max - min
        );
        // Congested regime: C4P lands near 180, not near the 362 cap.
        assert!(
            (140.0..230.0).contains(&r.c4p_mean),
            "c4p mean {}",
            r.c4p_mean
        );
        assert!(r.improvement > 0.30, "improvement {:.2}", r.improvement);
        // Fig 11: CNP band 12.5–17.5 kp/s.
        assert!(!r.cnp_series.is_empty());
        for (_, rates) in &r.cnp_series {
            for &c in rates {
                assert!(
                    (8_000.0..25_000.0).contains(&c),
                    "CNP rate {c} outside plausible band"
                );
            }
        }
    }
}
