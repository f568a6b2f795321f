//! Streaming C4D: incremental detectors fed by the telemetry pipeline.
//!
//! The reference detectors in [`crate::detectors`] / [`crate::matrix`]
//! re-scan whole snapshot sets; everything here consumes one
//! [`TelemetryEvent`] at a time and keeps only bounded per-rank /
//! per-connection state, so detection memory is proportional to the
//! communicator size, not to stream length — the restart-safe shape a fleet
//! service needs (checkpoint the small state, replay the CSV tail).
//!
//! **Stream == batch, exactly.** Each incremental structure replicates its
//! batch counterpart's arithmetic in the same fold order when fed the
//! canonical event order
//! ([`events_from_snapshots`](c4_telemetry::pipeline::events_from_snapshots)):
//!
//! * [`StreamingDelayMatrix`] keeps connection aggregates in first-arrival
//!   order and refills its matrix with the same `sum/count` fold as
//!   [`DelayMatrix::from_conn_records`] — bit-identical cells, analyzed by
//!   the same [`DelayMatrix::analyze`] arithmetic in reused buffers;
//! * [`StreamingStragglerDetector`] keeps per-rank `(sum, count)` compute
//!   accumulators — per-rank sums are folded in per-rank arrival order, so
//!   the means equal [`detect_noncomm_slow`](crate::detectors::detect_noncomm_slow)'s
//!   bit for bit;
//! * the hang state keeps each rank's latest-by-arrival record at its
//!   highest sequence — exactly the `rfind` anchor scan of
//!   [`detect_hang`](crate::detectors::detect_hang);
//! * verdict emission goes through the same
//!   [`emit_diagnoses`](crate::master) path as the batch master, so
//!   diagnoses and event-log entries are structurally identical.
//!
//! Feed each record **once**: worker telemetry aggregates are cumulative,
//! so a replayer streaming successive snapshots must stream deltas (the
//! scenario wiring streams one final snapshot set).
//!
//! [`CollHealthDetector`] and [`StreamSmoother`] are the *windowed*
//! detectors: CCL-D-style per-collective slow verdicts over tumbling
//! event-time windows, and the EP straggler test over sliding step windows
//! (the streaming twin of [`LoadSmoother`](crate::smoothing::LoadSmoother)).

use std::collections::{BTreeMap, VecDeque};

use c4_simcore::{FastMap, SimDuration, SimTime};
use c4_telemetry::pipeline::{TelemetryEvent, WindowSpec, WindowedAggregate};
use c4_telemetry::{CollRecord, CommRecord, ConnKey, ConnRecord, EventLog, RankRecord};
use c4_topology::{GpuId, Topology};

use crate::detectors::{Syndrome, HANG_TIMEOUT, STRAGGLER_FACTOR};
use crate::master::{
    emit_diagnoses, stalled_rank_from_conns, Diagnosis, ROW_COL_FRACTION, SLOW_FACTOR,
};
use crate::matrix::{DelayMatrix, MatrixFinding, MatrixScratch};
use crate::smoothing::raw_straggler;

/// Incremental delay-matrix state: connection aggregates upserted in
/// first-arrival order, plus the matrix and the analysis buffers that each
/// scan refills in place.
///
/// Re-reports of the same [`ConnKey`] replace in place (worker aggregates
/// are cumulative), keeping the fold order of the refill equal to the
/// batch path's snapshot iteration — which makes the cells bit-identical
/// to [`DelayMatrix::from_conn_records`] over the same records.
#[derive(Debug, Clone, Default)]
pub struct StreamingDelayMatrix {
    order: Vec<ConnRecord>,
    index: FastMap<ConnKey, usize>,
    matrix: DelayMatrix,
    scratch: MatrixScratch,
}

impl StreamingDelayMatrix {
    /// Forgets every tracked connection and keeps the buffers.
    pub(crate) fn clear(&mut self) {
        self.order.clear();
        self.index.clear();
    }

    /// Folds one connection aggregate in (records for other communicators
    /// than `comm` or for GPUs outside it are ignored).
    pub fn feed(&mut self, comm: &CommRecord, rec: &ConnRecord) {
        if rec.key.comm != comm.comm
            || comm.rank_of(rec.key.src_gpu).is_none()
            || comm.rank_of(rec.key.dst_gpu).is_none()
        {
            return;
        }
        match self.index.get(&rec.key) {
            Some(&i) => self.order[i] = *rec,
            None => {
                self.index.insert(rec.key, self.order.len());
                self.order.push(*rec);
            }
        }
    }

    /// Connections currently tracked.
    pub fn connections(&self) -> impl Iterator<Item = &ConnRecord> {
        self.order.iter()
    }

    /// Refills the delay matrix of `devices` from the tracked connections,
    /// with the exact fold of [`DelayMatrix::from_conn_records`], and runs
    /// [`DelayMatrix::analyze`] on it.
    pub(crate) fn analyze(
        &mut self,
        devices: &[GpuId],
        slow_factor: f64,
        row_col_fraction: f64,
    ) -> Vec<MatrixFinding> {
        self.matrix
            .refill(devices, self.order.iter(), &mut self.scratch);
        self.matrix
            .analyze_with(slow_factor, row_col_fraction, &mut self.scratch)
    }
}

/// Per-rank latest collective report, for the streaming hang scan.
#[derive(Debug, Clone, Copy)]
struct LatestColl {
    seq: u64,
    start: SimTime,
    end: Option<SimTime>,
}

/// Incremental hang state: each rank's latest-by-arrival record at its
/// highest sequence, plus the communicator-wide anchor (max sequence).
#[derive(Debug, Clone)]
struct HangState {
    latest: Vec<Option<LatestColl>>,
}

impl HangState {
    fn new(nranks: usize) -> Self {
        HangState {
            latest: vec![None; nranks],
        }
    }

    fn reset(&mut self, nranks: usize) {
        self.latest.clear();
        self.latest.resize(nranks, None);
    }

    fn feed(&mut self, rec: &CollRecord) {
        let Some(slot) = self.latest.get_mut(rec.rank as usize) else {
            return;
        };
        // Keep the highest sequence; on a re-report of the same sequence the
        // later arrival wins — the same record `rfind` would select in the
        // batch scan.
        let replace = slot.is_none_or(|prev| rec.seq >= prev.seq);
        if replace {
            *slot = Some(LatestColl {
                seq: rec.seq,
                start: rec.start,
                end: rec.end,
            });
        }
    }

    /// The batch [`detect_hang`](crate::detectors::detect_hang) verdict,
    /// replicated from incremental state.
    fn syndrome(&self, now: SimTime, comm: u64) -> Option<Syndrome> {
        let seq = self.latest.iter().flatten().map(|l| l.seq).max()?;
        let mut stuck = Vec::new();
        let mut missing = Vec::new();
        let mut oldest_start: Option<SimTime> = None;
        for (rank, slot) in self.latest.iter().enumerate() {
            match slot {
                Some(l) if l.seq == seq => {
                    if l.end.is_none() {
                        stuck.push(rank as u32);
                        oldest_start = Some(match oldest_start {
                            Some(t) => t.min(l.start),
                            None => l.start,
                        });
                    }
                }
                _ => missing.push(rank as u32),
            }
        }
        let timed_out = oldest_start
            .map(|t| now - t >= HANG_TIMEOUT)
            .unwrap_or(false);
        if !timed_out {
            return None;
        }
        if !missing.is_empty() {
            return Some(Syndrome::NonCommHang {
                comm,
                seq,
                missing_ranks: missing,
            });
        }
        if !stuck.is_empty() {
            return Some(Syndrome::CommHang {
                comm,
                seq,
                stuck_ranks: stuck,
            });
        }
        None
    }
}

/// Incremental non-communication-slow state: per-rank `(sum, count)` of
/// compute seconds. Because the accumulators are per rank, any interleaving
/// of ranks in the stream folds each rank's samples in its own arrival
/// order — the same left fold as the batch mean, hence bit-identical.
#[derive(Debug, Clone)]
pub struct StreamingStragglerDetector {
    comm: u64,
    sums: Vec<f64>,
    counts: Vec<u64>,
}

impl StreamingStragglerDetector {
    /// Creates empty state for one communicator.
    pub fn new(comm: u64, nranks: usize) -> Self {
        StreamingStragglerDetector {
            comm,
            sums: vec![0.0; nranks],
            counts: vec![0; nranks],
        }
    }

    /// Re-targets the detector at another communicator: the state
    /// [`new`](Self::new) would build, in the same buffers.
    pub(crate) fn reset(&mut self, comm: u64, nranks: usize) {
        self.comm = comm;
        self.sums.clear();
        self.sums.resize(nranks, 0.0);
        self.counts.clear();
        self.counts.resize(nranks, 0);
    }

    /// Folds one rank report in.
    pub fn feed(&mut self, rec: &RankRecord) {
        if rec.comm != self.comm {
            return;
        }
        if let Some(sum) = self.sums.get_mut(rec.rank as usize) {
            *sum += rec.compute.as_secs_f64();
            self.counts[rec.rank as usize] += 1;
        }
    }

    /// The batch
    /// [`detect_noncomm_slow`](crate::detectors::detect_noncomm_slow)
    /// verdict from incremental state: `None` until every rank has reported
    /// at least once.
    pub fn syndrome(&self, straggler_factor: f64) -> Option<Syndrome> {
        if self.counts.contains(&0) {
            return None; // not enough data yet
        }
        let means: Vec<f64> = self
            .sums
            .iter()
            .zip(&self.counts)
            .map(|(&s, &c)| s / c as f64)
            .collect();
        let (straggler, ratio) = raw_straggler(&means, straggler_factor)?;
        Some(Syndrome::NonCommSlow {
            comm: self.comm,
            straggler: straggler as u32,
            ratio,
        })
    }
}

/// The streaming C4D master for one communicator: [`feed`] it the event
/// stream, then [`scan`] at any point for diagnoses.
///
/// Fed the canonical event order of a snapshot set, `scan` returns exactly
/// the diagnoses (and logs exactly the events) of
/// [`C4dMaster::scan`](crate::master::C4dMaster::scan) over those
/// snapshots — both paths share [`emit_diagnoses`](crate::master) — while
/// holding only per-rank and per-connection state.
///
/// [`feed`]: StreamingC4dMaster::feed
/// [`scan`]: StreamingC4dMaster::scan
#[derive(Debug)]
pub struct StreamingC4dMaster {
    comm: CommRecord,
    log: EventLog,
    hang: HangState,
    conns: StreamingDelayMatrix,
    ranks: StreamingStragglerDetector,
}

impl StreamingC4dMaster {
    /// Creates a streaming master for one communicator.
    pub fn new(comm: CommRecord) -> Self {
        let nranks = comm.nranks();
        let id = comm.comm;
        StreamingC4dMaster {
            hang: HangState::new(nranks),
            conns: StreamingDelayMatrix::default(),
            ranks: StreamingStragglerDetector::new(id, nranks),
            comm,
            log: EventLog::new(),
        }
    }

    /// Re-targets the master at communicator `comm` over `devices` (rank
    /// order), created at `created`: afterwards it holds exactly the state
    /// [`new`](Self::new) would build for that communicator — no hang,
    /// connection or straggler state and an empty log — in the buffers it
    /// already has. A fleet that scans many communicators one after another
    /// keeps one master this way.
    pub fn reset(&mut self, comm: u64, devices: &[GpuId], created: SimTime) {
        self.comm.comm = comm;
        self.comm.devices.clear();
        self.comm.devices.extend_from_slice(devices);
        self.comm.created = created;
        self.hang.reset(devices.len());
        self.conns.clear();
        self.ranks.reset(comm, devices.len());
        self.log = EventLog::new();
    }

    /// The accumulated event log (`events.csv`).
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Folds one telemetry event into the detector state.
    pub fn feed(&mut self, event: &TelemetryEvent) {
        match event {
            TelemetryEvent::Coll(c) if c.comm == self.comm.comm => self.hang.feed(c),
            TelemetryEvent::Conn(c) => self.conns.feed(&self.comm, c),
            TelemetryEvent::Rank(r) => self.ranks.feed(r),
            _ => {}
        }
    }

    /// Runs all detectors on the current state; returns diagnoses (may be
    /// empty). The batch-equivalent of
    /// [`C4dMaster::scan`](crate::master::C4dMaster::scan).
    pub fn scan(&mut self, now: SimTime, topo: &Topology) -> Vec<Diagnosis> {
        let hang = self.hang.syndrome(now, self.comm.comm).map(|syndrome| {
            let stalled = matches!(syndrome, Syndrome::CommHang { .. })
                .then(|| stalled_rank_from_conns(&self.comm, self.conns.connections()))
                .flatten();
            (syndrome, stalled)
        });
        let findings = self
            .conns
            .analyze(&self.comm.devices, SLOW_FACTOR, ROW_COL_FRACTION);
        let noncomm = self.ranks.syndrome(STRAGGLER_FACTOR);
        emit_diagnoses(
            now,
            topo,
            &self.comm,
            hang,
            findings,
            noncomm,
            &mut self.log,
        )
    }
}

/// A verdict from the windowed stream detectors.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamVerdict {
    /// A window of completed collectives ran slow versus the trailing
    /// baseline (CCL-D-style relative slow detection).
    CollSlow {
        /// Communicator id.
        comm: u64,
        /// Window start (event-time nanoseconds).
        window_start: u64,
        /// Window end (event-time nanoseconds).
        window_end: u64,
        /// Mean completed-collective duration in the window, milliseconds.
        mean_ms: f64,
        /// Trailing baseline (median of recent window means), milliseconds.
        baseline_ms: f64,
        /// `mean_ms / baseline_ms`.
        ratio: f64,
    },
}

/// CCL-D-style streaming collective health: per-communicator tumbling
/// event-time windows of completed-collective durations compared against a
/// trailing baseline. Hangs are [`StreamingC4dMaster`]'s to find.
///
/// This detector has no batch counterpart — it is the first detector that
/// exists only on the streaming path.
pub struct CollHealthDetector {
    window: WindowedAggregate<u64>,
    slow_factor: f64,
    baseline_window: usize,
    /// Trailing window means per communicator (bounded).
    history: BTreeMap<u64, VecDeque<f64>>,
}

impl CollHealthDetector {
    /// Creates a detector: `window` is the tumbling event-time pane width,
    /// `slow_factor` the mean-over-baseline ratio that flags a slow window,
    /// `baseline_window` how many previous window means form the baseline
    /// median.
    pub fn new(window: SimDuration, slow_factor: f64, baseline_window: usize) -> Self {
        CollHealthDetector {
            window: WindowedAggregate::new(
                WindowSpec::tumbling_time(window),
                |e| match e {
                    TelemetryEvent::Coll(c) if c.end.is_some() => Some(c.comm),
                    _ => None,
                },
                |e| match e {
                    TelemetryEvent::Coll(c) => c.duration().map(|d| d.as_millis_f64()),
                    _ => None,
                },
            ),
            slow_factor,
            baseline_window: baseline_window.max(1),
            history: BTreeMap::new(),
        }
    }

    /// Feeds one event; every event advances the watermark, completed
    /// collectives also land in the duration windows.
    pub fn feed(&mut self, event: &TelemetryEvent) -> Vec<StreamVerdict> {
        let panes = self.window.push(event);
        self.judge_panes(panes)
    }

    /// Closes remaining windows at end of stream.
    pub fn flush(&mut self) -> Vec<StreamVerdict> {
        let panes = self.window.flush();
        self.judge_panes(panes)
    }

    /// Completed-collective durations dropped because their window had
    /// already closed when they arrived: they never reach a verdict. The
    /// windows allow no lateness, so a duration that ends in a pane another
    /// communicator's later events have closed counts here.
    pub fn late_dropped(&self) -> u64 {
        self.window.late_dropped()
    }

    fn judge_panes(
        &mut self,
        panes: Vec<c4_telemetry::pipeline::WindowPane<u64>>,
    ) -> Vec<StreamVerdict> {
        let mut out = Vec::new();
        for pane in panes {
            let Some(mean) = pane.aggregate.mean() else {
                continue;
            };
            let history = self.history.entry(pane.key).or_default();
            if let Some(baseline) = median(history) {
                if baseline > 0.0 && mean > baseline * self.slow_factor {
                    out.push(StreamVerdict::CollSlow {
                        comm: pane.key,
                        window_start: pane.start,
                        window_end: pane.end,
                        mean_ms: mean,
                        baseline_ms: baseline,
                        ratio: mean / baseline,
                    });
                }
            }
            if history.len() == self.baseline_window {
                history.pop_front();
            }
            history.push_back(mean);
        }
        out
    }
}

fn median(values: &VecDeque<f64>) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.iter().copied().collect();
    sorted.sort_unstable_by(f64::total_cmp);
    Some(sorted[(sorted.len() - 1) / 2])
}

/// A per-step straggler verdict from the streaming smoother: `verdict` is
/// exactly what the batch test returns for that step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepVerdict {
    /// The step the verdict describes (the last step of its window).
    pub step: u64,
    /// `(rank, ratio_over_median)` when a straggler was flagged.
    pub verdict: Option<(usize, f64)>,
}

/// The streaming twin of [`LoadSmoother`](crate::smoothing::LoadSmoother):
/// a sliding step-window (width `window`, slide 1) of per-rank
/// [`LoadSample`](c4_telemetry::pipeline::LoadSample) means feeding
/// [`raw_straggler`].
///
/// A pane `[s, s+W)` folds each rank's samples in step order — the same
/// front-to-back fold as `LoadSmoother`'s deque — so the windowed means and
/// hence the verdicts are **bit-identical** to pushing the same loads into
/// a `LoadSmoother` and testing after step `s+W-1`. With `window == 1` it
/// degenerates to the raw (unsmoothed) per-step test.
///
/// Verdicts for a step are emitted once the *next* step's samples arrive
/// (the pane closes at the watermark); call
/// [`flush`](StreamSmoother::flush) at end of stream for the final step.
pub struct StreamSmoother {
    nranks: usize,
    window: u64,
    factor: f64,
    agg: WindowedAggregate<u32>,
    /// Closed panes awaiting their sibling ranks: pane start → per-rank
    /// `(mean, count)`.
    pending: BTreeMap<u64, Vec<Option<(f64, u64)>>>,
}

impl StreamSmoother {
    /// Creates a smoother for `nranks` ranks: `window` steps wide (≥ 1),
    /// straggler threshold `factor`.
    pub fn new(nranks: usize, window: usize, factor: f64) -> Self {
        let window = window.max(1) as u64;
        StreamSmoother {
            nranks,
            window,
            factor,
            agg: WindowedAggregate::new(
                WindowSpec::sliding_steps(window, 1),
                |e| match e {
                    TelemetryEvent::Load(l) => Some(l.rank),
                    _ => None,
                },
                |e| match e {
                    TelemetryEvent::Load(l) => Some(l.value),
                    _ => None,
                },
            ),
            pending: BTreeMap::new(),
        }
    }

    /// Feeds one event; returns verdicts for any steps whose windows closed.
    pub fn feed(&mut self, event: &TelemetryEvent) -> Vec<StepVerdict> {
        let panes = self.agg.push(event);
        self.collect(panes)
    }

    /// Closes remaining full windows at end of stream.
    pub fn flush(&mut self) -> Vec<StepVerdict> {
        let panes = self.agg.flush();
        let mut verdicts = self.collect(panes);
        // Trailing partial panes can never complete; drop their state.
        self.pending.clear();
        verdicts.sort_by_key(|v| v.step);
        verdicts
    }

    fn collect(&mut self, panes: Vec<c4_telemetry::pipeline::WindowPane<u32>>) -> Vec<StepVerdict> {
        let mut verdicts = Vec::new();
        for pane in panes {
            let Some(mean) = pane.aggregate.mean() else {
                continue;
            };
            let slot = self
                .pending
                .entry(pane.start)
                .or_insert_with(|| vec![None; self.nranks]);
            if let Some(rank_slot) = slot.get_mut(pane.key as usize) {
                *rank_slot = Some((mean, pane.aggregate.count()));
            }
            // A verdict fires only from a *full* window: every rank present
            // with exactly `window` samples — the batch smoother's
            // "None until the window is full" rule.
            let full = slot
                .iter()
                .all(|s| s.is_some_and(|(_, count)| count == self.window));
            if full {
                let means: Vec<f64> = slot.iter().map(|s| s.unwrap().0).collect();
                self.pending.remove(&pane.start);
                verdicts.push(StepVerdict {
                    step: pane.start + self.window - 1,
                    verdict: raw_straggler(&means, self.factor),
                });
            }
        }
        verdicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::C4dMaster;
    use crate::smoothing::LoadSmoother;
    use c4_telemetry::pipeline::{events_from_snapshots, LoadSample};
    use c4_telemetry::{AlgoKind, CollKind, DataType, TelemetrySnapshot, WorkerTelemetry};
    use c4_topology::{ClosConfig, PortId};

    fn topo() -> Topology {
        Topology::build(&ClosConfig::testbed_128())
    }

    fn comm_of(t: &Topology, n: usize) -> CommRecord {
        CommRecord {
            comm: 1,
            devices: (0..n).map(|i| t.gpus()[i].id).collect(),
            created: SimTime::ZERO,
        }
    }

    /// The comm-hang scenario of the master tests: every rank parked in
    /// seq 9, rank 11's transport quiet in both directions.
    fn hang_snapshots(comm: &CommRecord, quiet_rank: u32) -> Vec<TelemetrySnapshot> {
        comm.devices
            .iter()
            .enumerate()
            .map(|(rank, &gpu)| {
                let mut w = WorkerTelemetry::new(gpu);
                w.record_coll(CollRecord {
                    comm: comm.comm,
                    seq: 9,
                    rank: rank as u32,
                    kind: CollKind::AllReduce,
                    algo: AlgoKind::Ring,
                    dtype: DataType::F16,
                    count: 1,
                    start: SimTime::from_secs(10),
                    end: None,
                });
                let next = (rank + 1) % comm.devices.len();
                let last = if rank as u32 == quiet_rank || next as u32 == quiet_rank {
                    11
                } else {
                    30
                };
                w.record_message(
                    ConnKey {
                        comm: comm.comm,
                        channel: 0,
                        qp: 0,
                        src_gpu: gpu,
                        dst_gpu: comm.devices[next],
                    },
                    PortId::from_index(0),
                    1000,
                    SimDuration::from_millis(1),
                    SimTime::from_secs(last),
                );
                w.snapshot(SimTime::from_secs(60))
            })
            .collect()
    }

    #[test]
    fn streaming_master_matches_batch_on_hang_traffic() {
        let t = topo();
        let comm = comm_of(&t, 16);
        let snaps = hang_snapshots(&comm, 11);
        let now = SimTime::from_secs(60);

        let mut batch = C4dMaster::new();
        let batch_diags = batch.scan(now, &t, &comm, &snaps);

        let mut stream = StreamingC4dMaster::new(comm.clone());
        for event in events_from_snapshots(&snaps) {
            stream.feed(&event);
        }
        let stream_diags = stream.scan(now, &t);

        assert_eq!(stream_diags, batch_diags);
        assert!(!stream_diags.is_empty(), "the hang must be diagnosed");
        assert_eq!(stream.log().to_csv(), batch.log().to_csv());
    }

    /// A healthy ring on `comm` (each rank sends to the next over two QPs,
    /// so absent cells outnumber present ones) in which rank `slow`'s sends
    /// take 10× longer; every collective completed.
    fn slow_sender_snapshots(comm: &CommRecord, slow: usize) -> Vec<TelemetrySnapshot> {
        comm.devices
            .iter()
            .enumerate()
            .map(|(rank, &gpu)| {
                let mut w = WorkerTelemetry::new(gpu);
                w.record_coll(CollRecord {
                    comm: comm.comm,
                    seq: 3,
                    rank: rank as u32,
                    kind: CollKind::AllReduce,
                    algo: AlgoKind::Ring,
                    dtype: DataType::F16,
                    count: 1,
                    start: SimTime::from_secs(100),
                    end: Some(SimTime::from_secs(101)),
                });
                let next = (rank + 1) % comm.devices.len();
                for (qp, micros) in [(0, 1_100), (1, 1_300)] {
                    let micros = if rank == slow { micros * 10 } else { micros };
                    w.record_message(
                        ConnKey {
                            comm: comm.comm,
                            channel: 0,
                            qp,
                            src_gpu: gpu,
                            dst_gpu: comm.devices[next],
                        },
                        PortId::from_index(0),
                        1000,
                        SimDuration::from_micros(micros),
                        SimTime::from_secs(101),
                    );
                }
                w.snapshot(SimTime::from_secs(120))
            })
            .collect()
    }

    #[test]
    fn a_reset_master_scans_like_a_fresh_one() {
        let t = topo();
        let big = comm_of(&t, 16);
        let mut master = StreamingC4dMaster::new(big.clone());
        for event in events_from_snapshots(&hang_snapshots(&big, 11)) {
            master.feed(&event);
        }
        assert!(!master.scan(SimTime::from_secs(60), &t).is_empty());

        // Same id, half the ranks, GPUs shared with the first communicator.
        let small = CommRecord {
            comm: big.comm,
            devices: big.devices[4..12].to_vec(),
            created: SimTime::from_secs(90),
        };
        let snaps = slow_sender_snapshots(&small, 3);
        master.reset(small.comm, &small.devices, small.created);
        let mut fresh = StreamingC4dMaster::new(small.clone());
        for event in events_from_snapshots(&snaps) {
            master.feed(&event);
            fresh.feed(&event);
        }
        let now = SimTime::from_secs(120);
        let diags = master.scan(now, &t);
        assert_eq!(diags, fresh.scan(now, &t));
        assert_eq!(master.log().to_csv(), fresh.log().to_csv());
        match &diags[..] {
            [Diagnosis {
                syndrome: Syndrome::CommSlow { findings, .. },
                suspect,
                critical: false,
                ..
            }] => {
                assert!(matches!(findings[0], MatrixFinding::TxSlow { rank: 3, .. }));
                assert_eq!(*suspect, Some(t.gpu(small.devices[3]).node));
            }
            other => panic!("expected one slow-sender diagnosis, got {other:?}"),
        }

        // The matrix the scan refilled is the batch matrix, cell for cell.
        let batch =
            DelayMatrix::from_conn_records(&small.devices, snaps.iter().flat_map(|s| &s.conns));
        let reused = &master.conns.matrix;
        assert_eq!(reused.to_display_ms().len(), small.nranks());
        for i in 0..small.nranks() {
            for j in 0..small.nranks() {
                assert_eq!(reused.get(i, j).to_bits(), batch.get(i, j).to_bits());
            }
        }
        assert!(reused.get(0, 2).is_nan(), "a ring leaves (0, 2) absent");
    }

    #[test]
    fn streaming_straggler_matches_batch_means_bitwise() {
        let t = topo();
        let comm = comm_of(&t, 4);
        // Non-associative compute times: fold order shows up in the mean.
        let steps_ms: [&[u64]; 4] = [
            &[100, 101, 99],
            &[100, 100, 100],
            &[301, 299, 300],
            &[98, 103, 99],
        ];
        let snaps: Vec<TelemetrySnapshot> = comm
            .devices
            .iter()
            .enumerate()
            .map(|(rank, &gpu)| {
                let mut w = WorkerTelemetry::new(gpu);
                for (step, &ms) in steps_ms[rank].iter().enumerate() {
                    w.record_rank(RankRecord {
                        comm: comm.comm,
                        rank: rank as u32,
                        step: step as u64,
                        compute: SimDuration::from_millis(ms),
                        ready_delay: SimDuration::ZERO,
                        arrived: SimTime::from_secs(step as u64),
                    });
                }
                w.snapshot(SimTime::from_secs(60))
            })
            .collect();

        let batch = crate::detectors::detect_noncomm_slow(&comm, &snaps);
        let mut stream = StreamingStragglerDetector::new(comm.comm, comm.nranks());
        for event in events_from_snapshots(&snaps) {
            if let TelemetryEvent::Rank(r) = event {
                stream.feed(&r);
            }
        }
        let streamed = stream.syndrome(STRAGGLER_FACTOR);
        assert_eq!(streamed, batch);
        match streamed.expect("rank 2 is 3× slower") {
            Syndrome::NonCommSlow { straggler, .. } => assert_eq!(straggler, 2),
            s => panic!("unexpected {s:?}"),
        }
    }

    fn coll_event(
        comm: u64,
        seq: u64,
        rank: u32,
        start: SimTime,
        end: Option<SimTime>,
    ) -> TelemetryEvent {
        TelemetryEvent::Coll(CollRecord {
            comm,
            seq,
            rank,
            kind: CollKind::AllReduce,
            algo: AlgoKind::Ring,
            dtype: DataType::F16,
            count: 1,
            start,
            end,
        })
    }

    #[test]
    fn coll_health_flags_a_slow_window_against_the_trailing_baseline() {
        let mut det = CollHealthDetector::new(SimDuration::from_secs(1), 2.0, 4);
        let mut verdicts = Vec::new();
        // Four healthy windows: one 10 ms collective completing per second.
        for s in 0..4u64 {
            let end = SimTime::from_secs(s) + SimDuration::from_millis(500);
            let start = end - SimDuration::from_millis(10);
            verdicts.extend(det.feed(&coll_event(1, s, 0, start, Some(end))));
        }
        // Then a 30 ms window: 3× the trailing baseline.
        let end = SimTime::from_secs(4) + SimDuration::from_millis(500);
        verdicts.extend(det.feed(&coll_event(
            1,
            4,
            0,
            end - SimDuration::from_millis(30),
            Some(end),
        )));
        verdicts.extend(det.flush());
        assert_eq!(
            verdicts.len(),
            1,
            "exactly the degraded window: {verdicts:?}"
        );
        let StreamVerdict::CollSlow { comm, ratio, .. } = verdicts[0];
        assert_eq!(comm, 1);
        assert!(ratio > 2.5 && ratio < 3.5, "ratio {ratio}");
    }

    fn load_event(rank: u32, step: u64, value: f64) -> TelemetryEvent {
        TelemetryEvent::Load(LoadSample {
            comm: 1,
            rank,
            step,
            at: SimTime::from_secs(step),
            value,
        })
    }

    #[test]
    fn stream_smoother_matches_load_smoother_bitwise() {
        // Non-associative load values so any fold-order difference between
        // the deque mean and the pane mean would change the ratio bits.
        let loads: Vec<Vec<f64>> = vec![
            vec![0.1, 0.2, 0.3],
            vec![0.1 + 0.2, 0.2, 5.1],
            vec![0.3, 0.1, 5.3],
            vec![7.7, 0.2, 0.1],
            vec![0.2, 0.3, 0.1],
        ];
        let window = 2;
        let factor = 1.5;

        let mut batch = LoadSmoother::new(3, window);
        let mut batch_verdicts = Vec::new();
        for (step, row) in loads.iter().enumerate() {
            batch.push_step(row);
            if step + 1 >= window {
                batch_verdicts.push((step as u64, batch.detect_straggler(factor)));
            }
        }

        let mut stream = StreamSmoother::new(3, window, factor);
        let mut stream_verdicts = Vec::new();
        for (step, row) in loads.iter().enumerate() {
            for (rank, &v) in row.iter().enumerate() {
                stream_verdicts.extend(stream.feed(&load_event(rank as u32, step as u64, v)));
            }
        }
        stream_verdicts.extend(stream.flush());

        let stream_pairs: Vec<(u64, Option<(usize, f64)>)> = stream_verdicts
            .into_iter()
            .map(|v| (v.step, v.verdict))
            .collect();
        assert_eq!(stream_pairs.len(), batch_verdicts.len());
        for (s, b) in stream_pairs.iter().zip(&batch_verdicts) {
            assert_eq!(s.0, b.0, "verdict step");
            match (s.1, b.1) {
                (None, None) => {}
                (Some((sr, sx)), Some((br, bx))) => {
                    assert_eq!(sr, br, "straggler rank at step {}", s.0);
                    assert_eq!(sx.to_bits(), bx.to_bits(), "ratio bits at step {}", s.0);
                }
                (a, b) => panic!("verdict mismatch at step {}: {a:?} vs {b:?}", s.0),
            }
        }
    }

    #[test]
    fn window_one_stream_smoother_is_the_raw_detector() {
        let loads = [vec![1.0, 1.0, 4.0], vec![1.0, 1.0, 1.0]];
        let mut stream = StreamSmoother::new(3, 1, 2.0);
        let mut verdicts = Vec::new();
        for (step, row) in loads.iter().enumerate() {
            for (rank, &v) in row.iter().enumerate() {
                verdicts.extend(stream.feed(&load_event(rank as u32, step as u64, v)));
            }
        }
        verdicts.extend(stream.flush());
        assert_eq!(verdicts.len(), 2);
        assert_eq!(verdicts[0].verdict, raw_straggler(&loads[0], 2.0));
        assert_eq!(verdicts[1].verdict, raw_straggler(&loads[1], 2.0));
        assert!(verdicts[0].verdict.is_some() && verdicts[1].verdict.is_none());
    }
}
