//! Fig 12 (and Fig 13): tolerance to a link failure during the 8-job
//! concurrent run — C4P static traffic engineering vs dynamic load balance.
//!
//! Paper results: after one of the 8 uplinks dies, static TE degrades to
//! 160–220 Gbps (mean 185.76) because hash-threshold rerouting piles the
//! orphaned flows onto a neighbour port; dynamic load balance recovers to
//! 290–335 Gbps (mean 301.46) against a 7/8 ideal of 315. Fig 13 shows the
//! same event at the leaf ports: static — a few ports overloaded, the rest
//! dragged down; dynamic — all surviving ports near-evenly loaded.

use std::time::Instant;

use c4_collectives::{run_concurrent, CollectiveRequest, Communicator};
use c4_diagnosis::{C4dMaster, Diagnosis, StreamingC4dMaster};
use c4_netsim::{CnpModel, DrainConfig};
use c4_simcore::{DetRng, JsonValue, SimTime};
use c4_telemetry::csv::{parse_csv_document, to_csv_document};
use c4_telemetry::pipeline::{events_from_snapshots, TelemetryEvent};
use c4_telemetry::{
    AlgoKind, CollKind, CollRecord, CommRecord, ConnKey, DataType, TelemetrySnapshot,
    WorkerTelemetry,
};
use c4_topology::{ClosConfig, GpuId, NodeId, PortId, Topology, WiringMode};
use c4_traffic::{C4pConfig, C4pMaster};

use crate::scenarios::benchmark_request;

/// The Fig 12 testbed: the grouped 128-GPU cluster rewired so each leaf has
/// exactly **8 uplinks** (one 800 Gbps trunk per spine), matching the
/// paper's "1 link error among the 8 uplinks" framing at 1:1
/// oversubscription.
pub fn fig12_testbed() -> ClosConfig {
    ClosConfig {
        wiring: WiringMode::NodeGrouped { groups: 2 },
        ..ClosConfig::testbed_128()
    }
    .trunked()
}

/// The full Fig 12/13 result for one mode.
#[derive(Debug, Clone)]
pub struct Fig12Report {
    /// True for dynamic load balance, false for static TE.
    pub dynamic: bool,
    /// Iteration index at which the uplink died.
    pub fail_at: usize,
    /// Per-iteration, per-task bus bandwidth (Gbps).
    pub per_iter_busbw: Vec<Vec<f64>>,
    /// Mean busbw over tasks before the failure.
    pub pre_mean: f64,
    /// Mean busbw over tasks after the failure.
    pub post_mean: f64,
    /// Capacity-proportional ideal after losing 1 of 8 uplinks (7/8 of the
    /// healthy NVLink-capped rate).
    pub ideal_post: f64,
    /// Fig 13: `(time_s, per-uplink Gbps)` for leaf 0's 8 uplinks.
    pub port_series: Vec<(f64, Vec<f64>)>,
}

/// Per-rank telemetry captured from **job 0** of a Fig 12 run, re-based
/// onto one monotone clock (each iteration's collectives start at
/// `SimTime::ZERO` inside the engine; the capture shifts them by the
/// accumulated iteration wall so the stream is a valid time series).
///
/// This is the recorded-scenario traffic the stream==batch detection
/// differential runs on: [`run_detection`] feeds the same snapshots to the
/// matrix-based [`C4dMaster`] and, as an event stream, to the incremental
/// [`StreamingC4dMaster`] — live and replayed from CSV.
#[derive(Debug, Clone)]
pub struct Fig12Telemetry {
    comm: CommRecord,
    workers: Vec<WorkerTelemetry>,
    offset_ns: u64,
}

impl Fig12Telemetry {
    fn new(comm: CommRecord) -> Self {
        let workers = comm
            .devices
            .iter()
            .map(|&g| WorkerTelemetry::new(g))
            .collect();
        Fig12Telemetry {
            comm,
            workers,
            offset_ns: 0,
        }
    }

    /// The observed communicator (job 0: 16 GPUs over two nodes).
    pub fn comm(&self) -> &CommRecord {
        &self.comm
    }

    /// End of capture on the re-based clock — the detection scan time.
    pub fn taken(&self) -> SimTime {
        SimTime::from_nanos(self.offset_ns)
    }

    /// Per-rank snapshots at end of run (`snapshots[rank]` is rank
    /// `rank`'s).
    pub fn snapshots(&self) -> Vec<TelemetrySnapshot> {
        let taken = self.taken();
        self.workers.iter().map(|w| w.snapshot(taken)).collect()
    }

    /// Folds one iteration's job-0 result into the per-rank stores.
    fn record_iteration(
        &mut self,
        it: u64,
        r0: &c4_collectives::CollectiveResult,
        iter_end: Option<SimTime>,
    ) {
        let off = self.offset_ns;
        let shift = move |t: SimTime| SimTime::from_nanos(off + t.as_nanos());
        for (rank, w) in self.workers.iter_mut().enumerate() {
            w.record_coll(CollRecord {
                comm: self.comm.comm,
                seq: it,
                rank: rank as u32,
                kind: CollKind::AllReduce,
                algo: AlgoKind::Ring,
                dtype: DataType::Bf16,
                count: 512 * 1024 * 1024,
                start: shift(r0.started),
                end: r0.finished.map(shift),
            });
        }
        for o in &r0.qp_outcomes {
            let Some(finish) = o.finish else { continue };
            let Some(rank) = self.comm.rank_of(o.key.src_gpu) else {
                continue;
            };
            self.workers[rank].record_message(
                ConnKey {
                    comm: self.comm.comm,
                    channel: o.key.channel,
                    qp: o.key.qp,
                    src_gpu: o.key.src_gpu,
                    dst_gpu: o.key.dst_gpu,
                },
                // Source ports are not re-derived from the path; the delay
                // matrix keys on (src, dst) only.
                PortId::from_index(0),
                o.bytes.as_bytes(),
                finish - o.start,
                shift(finish),
            );
        }
        self.offset_ns += iter_end.map(|t| t.as_nanos()).unwrap_or(0);
    }
}

/// Runs the failure experiment in one mode.
pub fn run(dynamic: bool, seed: u64, iters: usize, fail_at: usize) -> Fig12Report {
    run_inner(dynamic, seed, iters, fail_at, false).0
}

/// Runs the failure experiment in one mode, capturing job 0's telemetry
/// for the streaming-detection differential. The capture only *reads* the
/// per-iteration results — the report is bit-identical to [`run`]'s.
pub fn run_with_telemetry(
    dynamic: bool,
    seed: u64,
    iters: usize,
    fail_at: usize,
) -> (Fig12Report, Fig12Telemetry) {
    let (report, tele) = run_inner(dynamic, seed, iters, fail_at, true);
    (report, tele.expect("capture requested"))
}

fn run_inner(
    dynamic: bool,
    seed: u64,
    iters: usize,
    fail_at: usize,
    capture: bool,
) -> (Fig12Report, Option<Fig12Telemetry>) {
    let mut topo = Topology::build(&fig12_testbed());
    let jobs: Vec<Communicator> = (0..8)
        .map(|i| {
            let devices: Vec<GpuId> = [i, 8 + i]
                .iter()
                .flat_map(|&n| topo.node(NodeId::from_index(n)).gpus.clone())
                .collect();
            Communicator::new(1 + i as u64, devices, &topo).expect("valid job comm")
        })
        .collect();

    let drain = DrainConfig {
        rate_noise: 0.07,
        cnp: Some(CnpModel::paper_default()),
        ..DrainConfig::default()
    };
    let mut rng = DetRng::seed_from(seed);
    let mut selector = C4pMaster::new(&topo, C4pConfig { dynamic });

    // Leaf 0's eight uplinks, one per spine.
    let uplinks: Vec<_> = (0..topo.num_spines())
        .map(|s| topo.fabric_up_links(0, s)[0])
        .collect();

    let mut tele = capture.then(|| {
        Fig12Telemetry::new(CommRecord {
            comm: jobs[0].id(),
            devices: jobs[0].devices().to_vec(),
            created: SimTime::ZERO,
        })
    });

    let mut per_iter = Vec::with_capacity(iters);
    let mut port_series = Vec::with_capacity(iters);
    let mut clock = 0.0_f64;
    for it in 0..iters {
        if it == fail_at {
            let spine = topo.spines()[0];
            topo.set_spine_up(spine, false);
            if dynamic {
                // C4P notices the network change and reallocates.
                selector.rebalance(&topo);
            }
        }
        // Byte-split weights come off the master's own rate EMA through the
        // engine's selector hook — no observer clone, no table snapshot.
        let requests: Vec<CollectiveRequest<'_>> = jobs
            .iter()
            .map(|c| benchmark_request(c, it as u64, drain.clone()))
            .collect();
        let results = run_concurrent(&topo, &requests, &mut selector, None, &mut rng, None);
        let mut iter_secs = 0.0_f64;
        let busbws: Vec<f64> = results
            .iter()
            .map(|r| {
                iter_secs = iter_secs.max(r.duration().map(|d| d.as_secs_f64()).unwrap_or(0.0));
                r.busbw_gbps().unwrap_or(0.0)
            })
            .collect();
        for r in &results {
            selector.observe(&r.qp_outcomes);
        }
        if let Some(t) = tele.as_mut() {
            let iter_end = results.iter().filter_map(|r| r.finished).max();
            t.record_iteration(it as u64, &results[0], iter_end);
        }
        clock += iter_secs;
        // Fig 13: per-uplink bandwidth this iteration.
        let report = &results[0].report;
        let ports: Vec<f64> = uplinks
            .iter()
            .map(|&l| {
                if iter_secs > 0.0 {
                    report.bytes_on(l) * 8.0 / iter_secs / 1e9
                } else {
                    0.0
                }
            })
            .collect();
        port_series.push((clock, ports));
        per_iter.push(busbws);
    }

    let mean_over = |range: std::ops::Range<usize>| -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for row in &per_iter[range] {
            for &v in row {
                sum += v;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    };
    let pre_mean = mean_over(0..fail_at.min(iters));
    let post_mean = mean_over(fail_at.min(iters)..iters);

    (
        Fig12Report {
            dynamic,
            fail_at,
            per_iter_busbw: per_iter,
            pre_mean,
            post_mean,
            ideal_post: 362.0 * 7.0 / 8.0,
            port_series,
        },
        tele,
    )
}

/// The streaming-vs-batch detection differential over one telemetry
/// capture: every field triple must agree for the stream==batch invariant
/// to hold.
#[derive(Debug, Clone)]
pub struct Fig12Detection {
    /// Matrix-based (batch) diagnoses from [`C4dMaster::scan`].
    pub batch: Vec<Diagnosis>,
    /// Incremental diagnoses from the live event feed.
    pub streamed: Vec<Diagnosis>,
    /// Incremental diagnoses after a CSV round trip of the same feed.
    pub replayed: Vec<Diagnosis>,
    /// Batch master `events.csv`.
    pub batch_log_csv: String,
    /// Streaming master `events.csv` (live feed).
    pub streamed_log_csv: String,
    /// Streaming master `events.csv` (CSV replay).
    pub replayed_log_csv: String,
    /// The recorded event stream itself (lossless CSV transport).
    pub events_csv: String,
}

/// Runs C4D three ways over a Fig 12 capture: the batch (whole-matrix)
/// reference, the streaming master on the live canonical event feed, and
/// the streaming master again on a CSV round trip of that feed. All three
/// must produce identical diagnoses and event logs — the differential the
/// `streaming_differential` integration test pins.
pub fn run_detection(tele: &Fig12Telemetry) -> Fig12Detection {
    let topo = Topology::build(&fig12_testbed());
    let snaps = tele.snapshots();
    let now = tele.taken();

    let mut batch = C4dMaster::new();
    let batch_diags = batch.scan(now, &topo, tele.comm(), &snaps);

    // Live feed: the canonical event order of the snapshot set, recorded
    // to CSV.
    let events = events_from_snapshots(&snaps);
    let mut live = StreamingC4dMaster::new(tele.comm().clone());
    for e in &events {
        live.feed(e);
    }
    let streamed = live.scan(now, &topo);
    let events_csv = to_csv_document(&events);

    // Replay: parse the recorded stream and drive a fresh master.
    let replay_events: Vec<TelemetryEvent> =
        parse_csv_document(&events_csv).expect("lossless transport");
    let mut replay = StreamingC4dMaster::new(tele.comm().clone());
    for e in &replay_events {
        replay.feed(e);
    }
    let replayed = replay.scan(now, &topo);

    Fig12Detection {
        batch: batch_diags,
        streamed,
        replayed,
        batch_log_csv: batch.log().to_csv(),
        streamed_log_csv: live.log().to_csv(),
        replayed_log_csv: replay.log().to_csv(),
        events_csv,
    }
}

/// Configuration of the Fig 12-style **fault-at-scale** experiment: the
/// eight-job contention pattern on a `pod_grouped_railed` fabric with the
/// paper's DCQCN/CNP noise live, one spine killed mid-run, and C4P either
/// rebalancing (dynamic) or not (static). Noise-at-scale was the blocker
/// here — before the event-driven drain engine, a single noisy 4096-GPU
/// iteration cost ~23 s, so the scale cells ran noise-free and this
/// scenario could not exist.
#[derive(Debug, Clone)]
pub struct FaultScaleConfig {
    /// Root random seed.
    pub seed: u64,
    /// Cluster size in nodes (GPUs = 8 × nodes); same validity rules as
    /// [`crate::scenarios::fig10::C4pScaleConfig::node_scales`].
    pub nodes: usize,
    /// BSP iterations per mode.
    pub iters: usize,
    /// Iteration at which one spine's trunks die.
    pub fail_at: usize,
    /// Thread budget (bit-identical results at any value).
    pub parallel: c4_simcore::ParallelPolicy,
}

impl FaultScaleConfig {
    /// The CI-gated point: the spine kill on the full 4096-GPU fabric,
    /// mid-run.
    pub fn scale_4096(seed: u64, iters: usize) -> Self {
        FaultScaleConfig {
            seed,
            nodes: 512,
            iters,
            fail_at: iters / 2,
            parallel: c4_simcore::ParallelPolicy::default(),
        }
    }
}

/// One mode's outcome in the fault-at-scale experiment.
#[derive(Debug, Clone)]
pub struct FaultScaleReport {
    /// True for dynamic load balance (rebalance after the kill).
    pub dynamic: bool,
    /// Mean per-job busbw before the failure, Gbps.
    pub pre_mean: f64,
    /// Mean per-job busbw after the failure, Gbps.
    pub post_mean: f64,
    /// Capacity-proportional ideal after losing 1 of 8 spines.
    pub ideal_post: f64,
}

/// Runs the fault-at-scale experiment in one mode. The fabric runs at 2:1
/// oversubscription with 10 % DCQCN noise and CNP accounting — the same
/// congested regime as the classic Fig 12, three orders of magnitude
/// larger.
pub fn run_scale(cfg: &FaultScaleConfig, dynamic: bool) -> FaultScaleReport {
    let clos = ClosConfig::pod_grouped_railed(cfg.nodes, 8);
    let mut topo = Topology::build(&clos);
    let jobs = crate::scenarios::fig10::build_scale_jobs(&topo, cfg.nodes);
    let drain = DrainConfig {
        rate_noise: 0.10,
        cnp: Some(CnpModel::paper_default()),
        parallel: cfg.parallel,
        ..DrainConfig::default()
    };
    let mut rng = DetRng::seed_from(cfg.seed ^ 0xF12);
    let mut selector = C4pMaster::new(&topo, C4pConfig { dynamic }).with_parallel(cfg.parallel);
    let mut cache = c4_collectives::PlanCache::new();

    let mut pre = (0.0_f64, 0usize);
    let mut post = (0.0_f64, 0usize);
    for it in 0..cfg.iters {
        if it == cfg.fail_at {
            let spine = topo.spines()[0];
            topo.set_spine_up(spine, false);
            if dynamic {
                selector.rebalance(&topo);
            }
        }
        let requests: Vec<CollectiveRequest<'_>> = jobs
            .iter()
            .map(|c| benchmark_request(c, it as u64, drain.clone()))
            .collect();
        let results = c4_collectives::run_concurrent_cached(
            &topo,
            &requests,
            &mut selector,
            None,
            &mut rng,
            None,
            Some(&mut cache),
        );
        let acc = if it < cfg.fail_at {
            &mut pre
        } else {
            &mut post
        };
        for r in &results {
            acc.0 += r.busbw_gbps().unwrap_or(0.0);
            acc.1 += 1;
            selector.observe(&r.qp_outcomes);
        }
    }
    // The healthy 2:1 plateau (CNP-controlled fair share, ≈187 Gbps at
    // rail density) scaled by surviving spine capacity.
    let healthy = pre.0 / pre.1.max(1) as f64;
    FaultScaleReport {
        dynamic,
        pre_mean: healthy,
        post_mean: post.0 / post.1.max(1) as f64,
        ideal_post: healthy * 7.0 / 8.0,
    }
}

/// Both modes of the fault-at-scale experiment, with the timing metadata
/// the `bench_fig12` binary emits into `BENCH_fig12.json`.
#[derive(Debug, Clone)]
pub struct FaultScaleSweep {
    /// Static traffic engineering (no rebalance after the kill).
    pub static_mode: FaultScaleReport,
    /// Dynamic load balance (rebalance after the kill).
    pub dynamic_mode: FaultScaleReport,
    /// Total GPUs in the fabric.
    pub gpus: usize,
    /// Iteration at which the spine died.
    pub fail_at: usize,
    /// Whole-sweep wall clock, milliseconds.
    pub total_wall_ms: f64,
    /// Thread budget the sweep ran under.
    pub threads: usize,
    /// The root seed.
    pub seed: u64,
    /// Iterations per mode.
    pub iters: usize,
}

/// Runs the fault-at-scale experiment in **both** modes on the identical
/// seed and workload, timing the whole sweep.
pub fn run_scale_sweep(cfg: &FaultScaleConfig) -> FaultScaleSweep {
    let start = Instant::now();
    let static_mode = run_scale(cfg, false);
    let dynamic_mode = run_scale(cfg, true);
    FaultScaleSweep {
        static_mode,
        dynamic_mode,
        gpus: cfg.nodes * 8,
        fail_at: cfg.fail_at,
        total_wall_ms: start.elapsed().as_secs_f64() * 1e3,
        threads: cfg.parallel.threads(),
        seed: cfg.seed,
        iters: cfg.iters,
    }
}

impl FaultScaleSweep {
    /// The sweep as the `BENCH_fig12.json` document (`c4-bench-v1`).
    pub fn to_json(&self) -> JsonValue {
        let mut config = JsonValue::object();
        config
            .push("seed", self.seed)
            .push("iters", self.iters)
            .push("threads", self.threads)
            .push("gpus", self.gpus)
            .push("fail_at", self.fail_at);
        let mode = |r: &FaultScaleReport| {
            let mut m = JsonValue::object();
            m.push("dynamic", r.dynamic)
                .push("pre_mean_gbps", r.pre_mean)
                .push("post_mean_gbps", r.post_mean)
                .push("ideal_post_gbps", r.ideal_post);
            m
        };
        let mut doc = JsonValue::object();
        doc.push("schema", "c4-bench-v1")
            .push("bench", "fault_scale")
            .push("config", config)
            .push("static", mode(&self.static_mode))
            .push("dynamic", mode(&self.dynamic_mode))
            .push("total_wall_ms", self.total_wall_ms);
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_te_collapses_after_failure() {
        let r = run(false, 42, 12, 4);
        assert!(r.pre_mean > 330.0, "pre-failure mean {:.1}", r.pre_mean);
        assert!(
            r.post_mean < 280.0,
            "static post-failure mean {:.1} (paper: 185.76)",
            r.post_mean
        );
    }

    #[test]
    fn dynamic_lb_recovers_near_ideal() {
        let r = run(true, 42, 12, 4);
        assert!(r.pre_mean > 330.0, "pre-failure mean {:.1}", r.pre_mean);
        assert!(
            r.post_mean > 270.0,
            "dynamic post-failure mean {:.1} (paper: 301.46)",
            r.post_mean
        );
        assert!(
            r.post_mean < r.ideal_post * 1.15,
            "dynamic {:.1} cannot beat the 7/8 ideal {:.1} by much",
            r.post_mean,
            r.ideal_post
        );
    }

    #[test]
    fn dynamic_beats_static_after_failure() {
        let s = run(false, 7, 10, 3);
        let d = run(true, 7, 10, 3);
        assert!(
            d.post_mean > s.post_mean * 1.2,
            "dynamic {:.1} vs static {:.1} (paper: +62.3%)",
            d.post_mean,
            s.post_mean
        );
    }

    #[test]
    fn fault_at_scale_dynamic_rebalance_beats_static() {
        // A shrunken scale point (32 nodes = 256 GPUs) runs the noisy
        // spine-kill end to end: dynamic rebalance must recover toward the
        // 7/8 capacity ideal while static TE is dragged further down by
        // orphaned flows piling onto surviving paths.
        let cfg = FaultScaleConfig {
            seed: 42,
            nodes: 32,
            iters: 6,
            fail_at: 2,
            parallel: c4_simcore::ParallelPolicy::default(),
        };
        let st = run_scale(&cfg, false);
        let dy = run_scale(&cfg, true);
        assert!(
            st.pre_mean > 150.0 && dy.pre_mean > 150.0,
            "healthy 2:1 plateau expected: static {:.1}, dynamic {:.1}",
            st.pre_mean,
            dy.pre_mean
        );
        assert!(
            st.post_mean < st.pre_mean && dy.post_mean < dy.pre_mean,
            "losing a spine must cost bandwidth"
        );
        assert!(
            dy.post_mean > st.post_mean,
            "rebalance {:.1} must beat static {:.1} after the kill",
            dy.post_mean,
            st.post_mean
        );
        assert!(
            dy.post_mean > dy.ideal_post * 0.80,
            "dynamic {:.1} should approach the 7/8 ideal {:.1}",
            dy.post_mean,
            dy.ideal_post
        );
    }

    #[test]
    fn telemetry_capture_is_monotone_and_does_not_perturb_the_run() {
        let (r, tele) = run_with_telemetry(false, 42, 4, 2);
        let plain = run(false, 42, 4, 2);
        assert_eq!(
            r.per_iter_busbw, plain.per_iter_busbw,
            "capture must not perturb the simulation"
        );
        let snaps = tele.snapshots();
        assert_eq!(snaps.len(), 16, "one snapshot per job-0 rank");
        for s in &snaps {
            assert_eq!(s.colls.len(), 4, "one collective record per iteration");
            let starts: Vec<u64> = s.colls.iter().map(|c| c.start.as_nanos()).collect();
            assert!(
                starts.windows(2).all(|w| w[0] < w[1]),
                "re-based clock must be monotone: {starts:?}"
            );
            assert!(s.colls.iter().all(|c| c.end.is_some()), "healthy run");
        }
        assert!(
            snaps.iter().any(|s| !s.conns.is_empty()),
            "boundary flows must produce connection aggregates"
        );
        assert!(tele.taken() > SimTime::ZERO);
    }

    #[test]
    fn fault_scale_sweep_json_matches_schema() {
        let cfg = FaultScaleConfig {
            seed: 9,
            nodes: 32,
            iters: 4,
            fail_at: 2,
            parallel: c4_simcore::ParallelPolicy::default(),
        };
        let sweep = run_scale_sweep(&cfg);
        assert!(!sweep.static_mode.dynamic && sweep.dynamic_mode.dynamic);
        let doc = sweep.to_json();
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("c4-bench-v1")
        );
        assert_eq!(
            doc.get("bench").and_then(|v| v.as_str()),
            Some("fault_scale")
        );
        let back = JsonValue::parse(&doc.pretty()).expect("round-trip");
        assert!(back.get("total_wall_ms").and_then(|v| v.as_f64()).unwrap() > 0.0);
        let dynamic = back.get("dynamic").unwrap();
        assert!(
            dynamic
                .get("post_mean_gbps")
                .and_then(|v| v.as_f64())
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn port_series_shows_takeover_vs_spreading() {
        let s = run(false, 11, 10, 3);
        // After failure under static TE the dead uplink carries nothing and
        // its neighbour is the hottest port.
        let (_, last) = s.port_series.last().unwrap();
        assert!(last[0] < 1.0, "dead uplink still carrying traffic");
        let hottest = last
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(hottest, 1, "orphans should pile on the neighbour port");

        let d = run(true, 11, 10, 3);
        let (_, last) = d.port_series.last().unwrap();
        let live: Vec<f64> = last[1..].to_vec();
        let max = live.iter().copied().fold(0.0_f64, f64::max);
        let min = live.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            max / min.max(1.0) < 1.8,
            "dynamic LB should even out surviving ports: {live:?}"
        );
    }
}
