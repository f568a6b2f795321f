//! Fig 3: actual vs ideal training throughput of a GPT-22B job as the
//! system scales under baseline (ECMP) networking in a shared pod.
//!
//! Paper result (16…512 GPUs): the gap between actual and linearly-scaled
//! ideal throughput widens with scale — ≈30 % below ideal at 512 GPUs —
//! because the extent of traffic collision grows with the number of flows.
//!
//! This module also carries the sweep **beyond** the paper's largest
//! measured point: [`Fig3Config::scale_4096`] runs the same job family up
//! to 4096 GPUs on a [`ClosConfig::pod_grouped`] fabric (leaf tier scaling
//! with the cluster, grouped wiring, 2:1 oversubscription). Scale points run
//! one after another; each is wall-clock timed so the bench binary can emit
//! `BENCH_scale.json` and CI can gate on simulator-performance regressions.

use std::time::Instant;

use c4_netsim::{mix64, EcmpSelector};
use c4_simcore::{DetRng, JsonValue, ParallelPolicy};
use c4_topology::{ClosConfig, NodeId, Topology};
use c4_trainsim::{JobSpec, ParallelLayout, TrainingJob};

/// One scale point of Fig 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Row {
    /// GPU count.
    pub gpus: usize,
    /// Measured throughput, samples/s.
    pub actual_sps: f64,
    /// Linear scaling of the smallest measured point.
    pub ideal_sps: f64,
    /// `1 − actual/ideal`.
    pub loss: f64,
    /// Simulator wall-clock spent on this point, milliseconds (all
    /// iterations, including the warm-up one).
    pub wall_ms: f64,
}

/// Everything one sweep produced (rows plus the timing metadata the
/// `BENCH_scale.json` schema records).
#[derive(Debug, Clone)]
pub struct Fig3Sweep {
    /// Per-scale results, smallest first.
    pub rows: Vec<Fig3Row>,
    /// Whole-sweep wall clock, milliseconds (topology build included).
    pub total_wall_ms: f64,
    /// Thread budget the sweep ran under.
    pub threads: usize,
    /// The seed the sweep ran with.
    pub seed: u64,
    /// Iterations per scale point.
    pub iters: usize,
}

/// Configuration of one Fig 3 scaling sweep.
#[derive(Debug, Clone)]
pub struct Fig3Config {
    /// Root random seed.
    pub seed: u64,
    /// Iterations per scale point (the first is warm-up and unmeasured;
    /// values below 2 are raised to 2).
    pub iters: usize,
    /// Data-parallel widths to sweep (nodes per point; GPUs = 8 × dp),
    /// smallest first — the first point defines the linear-scaling ideal.
    pub scales: Vec<usize>,
    /// The shared fabric every point runs on (jobs occupy the first `dp`
    /// nodes).
    pub clos: ClosConfig,
    /// Thread budget for each job's route assembly. Throughput numbers are
    /// bit-identical at any value; only `wall_ms` moves.
    pub parallel: ParallelPolicy,
}

impl Fig3Config {
    /// The paper's sweep: 16…512 GPUs in the 64-node shared pod.
    pub fn paper(seed: u64, iters: usize) -> Self {
        Fig3Config {
            seed,
            iters,
            scales: vec![2, 4, 8, 16, 32, 64],
            clos: ClosConfig::pod_shared(64),
            parallel: ParallelPolicy::default(),
        }
    }

    /// The extended sweep: 16…4096 GPUs on a 512-node grouped fabric at
    /// 2:1 oversubscription ([`ClosConfig::pod_grouped`]). Jobs wider than
    /// one 64-node leaf group span groups and contend on the spine layer.
    pub fn scale_4096(seed: u64, iters: usize) -> Self {
        Fig3Config {
            seed,
            iters,
            scales: vec![2, 4, 8, 16, 32, 64, 128, 256, 512],
            clos: ClosConfig::pod_grouped(512, 8),
            parallel: ParallelPolicy::default(),
        }
    }

    /// The 16k extension: 512…16384 GPUs on a rail-dense 2048-node fabric
    /// ([`ClosConfig::pod_grouped_railed`], 2:1 oversubscription). The
    /// 64-node anchor point defines the linear-scaling ideal so the loss
    /// column stays comparable with the 4k sweep.
    pub fn scale_16384(seed: u64, iters: usize) -> Self {
        Fig3Config {
            seed,
            iters,
            scales: vec![64, 512, 1024, 2048],
            clos: ClosConfig::pod_grouped_railed(2048, 8),
            parallel: ParallelPolicy::default(),
        }
    }

    /// The 32k extension: up to 32768 GPUs on a rail-dense 4096-node
    /// fabric, same anchor-point convention as [`Fig3Config::scale_16384`].
    pub fn scale_32768(seed: u64, iters: usize) -> Self {
        Fig3Config {
            seed,
            iters,
            scales: vec![64, 2048, 4096],
            clos: ClosConfig::pod_grouped_railed(4096, 8),
            parallel: ParallelPolicy::default(),
        }
    }
}

/// Runs the paper's 16…512 GPU sweep (compatibility wrapper over
/// [`run_config`] with [`Fig3Config::paper`]).
pub fn run(seed: u64, iters: usize) -> Vec<Fig3Row> {
    run_config(&Fig3Config::paper(seed, iters)).rows
}

/// Runs a configured scaling sweep.
///
/// Scale points run in order. Each draws from its own [`DetRng`] stream
/// derived from the root seed and the point's width, so a point's result
/// does not depend on the others. Per-seed output (and therefore the bench
/// binary's stdout) is byte-identical at any thread count; only wall
/// clocks move.
///
/// # Panics
///
/// Panics if `cfg.scales` is empty, the topology is invalid, or a scale
/// point does not fit the fabric.
pub fn run_config(cfg: &Fig3Config) -> Fig3Sweep {
    assert!(!cfg.scales.is_empty(), "sweep needs at least one scale");
    let sweep_start = Instant::now();
    let topo = Topology::build(&cfg.clos);

    let measure = |dp: usize| {
        let point_start = Instant::now();
        let mut rng = DetRng::seed_from(mix64(
            cfg.seed ^ (dp as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ));
        let spec = JobSpec::gpt22b_scaling(dp);
        let nodes: Vec<NodeId> = (0..dp).map(NodeId::from_index).collect();
        let layout = ParallelLayout::place(&topo, &spec, nodes).expect("pod placement");
        let mut job = TrainingJob::new(&topo, spec.clone(), layout, dp as u64 * 100);
        job.parallel = cfg.parallel;
        let mut ecmp = EcmpSelector::new(cfg.seed ^ dp as u64);
        let mut sps = Vec::new();
        for it in 0..cfg.iters.max(2) {
            let report = job.run_iteration(&topo, &mut ecmp, None, &mut rng, &[], None);
            if it > 0 {
                sps.push(report.samples_per_sec(spec.global_batch));
            }
        }
        (
            sps.iter().sum::<f64>() / sps.len() as f64,
            point_start.elapsed().as_secs_f64() * 1e3,
        )
    };
    let (actuals, walls): (Vec<f64>, Vec<f64>) = cfg.scales.iter().map(|&dp| measure(dp)).unzip();

    let base_per_unit = actuals[0] / cfg.scales[0] as f64;
    let rows = cfg
        .scales
        .iter()
        .zip(actuals.iter().zip(&walls))
        .map(|(&dp, (&actual, &wall_ms))| {
            let ideal = base_per_unit * dp as f64;
            Fig3Row {
                gpus: dp * cfg.clos.gpus_per_node,
                actual_sps: actual,
                ideal_sps: ideal,
                loss: 1.0 - actual / ideal,
                wall_ms,
            }
        })
        .collect();
    Fig3Sweep {
        rows,
        total_wall_ms: sweep_start.elapsed().as_secs_f64() * 1e3,
        threads: cfg.parallel.threads(),
        seed: cfg.seed,
        iters: cfg.iters.max(2),
    }
}

impl Fig3Sweep {
    /// The sweep as a `BENCH_scale.json`-schema document (`c4-bench-v1`:
    /// top-level `schema`/`bench`/`config`/`rows`/`total_wall_ms`, numbers
    /// in base units with `_ms`/`_sps` suffixes spelling the rest out).
    pub fn to_json(&self) -> JsonValue {
        let mut config = JsonValue::object();
        config
            .push("seed", self.seed)
            .push("iters", self.iters)
            .push("threads", self.threads)
            .push(
                "scales_gpus",
                self.rows.iter().map(|r| r.gpus).collect::<Vec<_>>(),
            );
        let rows: Vec<JsonValue> = self
            .rows
            .iter()
            .map(|r| {
                let mut row = JsonValue::object();
                row.push("gpus", r.gpus)
                    .push("actual_sps", r.actual_sps)
                    .push("ideal_sps", r.ideal_sps)
                    .push("loss", r.loss)
                    .push("wall_ms", r.wall_ms);
                row
            })
            .collect();
        let mut doc = JsonValue::object();
        doc.push("schema", "c4-bench-v1")
            .push("bench", "fig3_scale_sweep")
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
    fn loss_grows_with_scale() {
        let rows = run(42, 3);
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].gpus, 16);
        assert_eq!(rows[5].gpus, 512);
        // First point defines the ideal.
        assert!(rows[0].loss.abs() < 1e-9);
        // Monotone-ish growth: the largest scale loses the most.
        let max_loss = rows.iter().map(|r| r.loss).fold(0.0_f64, f64::max);
        assert!(
            (rows[5].loss - max_loss).abs() < 0.05,
            "largest scale should be at/near the worst loss: {:?}",
            rows.iter().map(|r| r.loss).collect::<Vec<_>>()
        );
        assert!(
            rows[5].loss > 0.12,
            "512-GPU loss {:.3} should be substantial (paper: ≈0.30)",
            rows[5].loss
        );
        // Throughput still rises with scale (no collapse).
        assert!(rows[5].actual_sps > rows[0].actual_sps * 10.0);
    }

    #[test]
    fn grouped_scale_sweep_runs_and_times_points() {
        // A shrunken scale_4096 shape (same wiring family, 32 nodes / 2
        // groups) keeps this test fast while exercising the grouped
        // cross-spine path end to end.
        let cfg = Fig3Config {
            seed: 7,
            iters: 2,
            scales: vec![2, 8, 32],
            clos: ClosConfig::pod_grouped(32, 2),
            parallel: ParallelPolicy::default(),
        };
        let sweep = run_config(&cfg);
        assert_eq!(sweep.rows.len(), 3);
        assert_eq!(sweep.rows[2].gpus, 256);
        assert!(sweep.rows.iter().all(|r| r.actual_sps > 0.0));
        assert!(sweep.rows.iter().all(|r| r.wall_ms > 0.0));
        assert!(sweep.total_wall_ms >= sweep.rows.iter().map(|r| r.wall_ms).sum::<f64>());
        // Spanning both leaf groups (32 nodes) must lose more than the
        // in-group point (8 nodes): cross-spine collisions at 2:1.
        assert!(
            sweep.rows[2].loss > sweep.rows[1].loss,
            "cross-group loss {:?}",
            sweep.rows.iter().map(|r| r.loss).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sweep_json_matches_schema_and_round_trips() {
        let cfg = Fig3Config {
            seed: 3,
            iters: 2,
            scales: vec![2, 4],
            clos: ClosConfig::pod_grouped(16, 2),
            parallel: ParallelPolicy::default(),
        };
        let doc = run_config(&cfg).to_json();
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("c4-bench-v1")
        );
        assert_eq!(
            doc.get("bench").and_then(|v| v.as_str()),
            Some("fig3_scale_sweep")
        );
        assert!(doc.get("total_wall_ms").and_then(|v| v.as_f64()).unwrap() > 0.0);
        let back = JsonValue::parse(&doc.pretty()).expect("round-trip");
        let rows = back.get("rows").and_then(|r| r.as_array()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("gpus").and_then(|v| v.as_f64()), Some(16.0));
    }

    #[test]
    fn throughput_is_thread_count_invariant() {
        // The tentpole guarantee at the scenario level: simulated results
        // are identical whatever the thread budget; only wall time moves.
        let mk = |threads: usize| {
            let cfg = Fig3Config {
                seed: 11,
                iters: 2,
                scales: vec![2, 8],
                clos: ClosConfig::pod_grouped(16, 2),
                parallel: ParallelPolicy::with_threads(threads),
            };
            run_config(&cfg)
        };
        let serial = mk(1);
        for threads in [2, 4] {
            let par = mk(threads);
            for (a, b) in par.rows.iter().zip(&serial.rows) {
                assert_eq!(a.gpus, b.gpus);
                assert_eq!(
                    a.actual_sps.to_bits(),
                    b.actual_sps.to_bits(),
                    "{threads} threads diverged at {} GPUs",
                    a.gpus
                );
            }
        }
    }
}
