//! Streaming telemetry → detection dataflow.
//!
//! C4D's reference detectors consume whole in-memory snapshot sets; this
//! module provides the streaming alternative: telemetry flows as a single
//! ordered stream of [`TelemetryEvent`]s, event by event, into the streaming
//! detectors of `c4_diagnosis`. The stream is either a snapshot set
//! flattened by [`events_from_snapshots`] (or read store by store through
//! [`WorkerTelemetry::events`](crate::WorkerTelemetry::events)), or the same
//! stream replayed from its CSV document
//! ([`to_csv_document`](crate::csv::to_csv_document) /
//! [`parse_csv_document`](crate::csv::parse_csv_document)). The windowed
//! detectors fold it through a keyed windowed mean ([`window`]).
//!
//! Design rules that make the streaming path *provably* equal to the batch
//! path (pinned by `tests/streaming_differential.rs`):
//!
//! * **Canonical order** — [`events_from_snapshots`] flattens a snapshot set
//!   into one deterministic event order; batch and stream consume the same
//!   order, so order-sensitive f64 folds agree bit-for-bit.
//! * **Lossless transport** — the event-stream CSV encodes times as integer
//!   nanoseconds and loads via `f64` shortest-round-trip `Display`, so a
//!   replayed file drives detectors to bit-identical verdicts.
//! * **Bounded state** — windows close at the watermark and panes are
//!   dropped after emission; memory is proportional to open windows, not to
//!   stream length.

pub mod combine;
pub mod window;

pub use combine::Aggregate;
pub use window::{TimeAxis, WindowPane, WindowSpec, WindowedAggregate};

use c4_simcore::SimTime;

use crate::csv::{parse_field, split_fields, CsvError, FromCsv, ToCsv};
use crate::record::{CollRecord, CommRecord, ConnRecord, RankRecord};
use crate::worker::TelemetrySnapshot;

/// A generic numeric detector-feed sample: one per-rank load observation
/// per step (EP receive bytes, compute milliseconds, …). The `f64` value
/// round-trips exactly through CSV (`Display` prints the shortest exact
/// representation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSample {
    /// Communicator the load belongs to.
    pub comm: u64,
    /// Reporting rank.
    pub rank: u32,
    /// Training step the sample describes.
    pub step: u64,
    /// When the sample was taken.
    pub at: SimTime,
    /// The observed load value (unit depends on the producer).
    pub value: f64,
}

impl ToCsv for LoadSample {
    fn csv_header() -> &'static str {
        "comm,rank,step,at_s,value"
    }

    fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{}",
            self.comm,
            self.rank,
            self.step,
            crate::csv::format_secs(self.at),
            self.value
        )
    }
}

impl FromCsv for LoadSample {
    fn from_csv_row(row: &str) -> Result<Self, CsvError> {
        let fields = split_fields(row)?;
        if fields.len() != 5 {
            return Err(CsvError::new(format!(
                "load rows carry 5 columns, got {}",
                fields.len()
            )));
        }
        Ok(LoadSample {
            comm: parse_field(&fields, 0, "comm")?,
            rank: parse_field(&fields, 1, "rank")?,
            step: parse_field(&fields, 2, "step")?,
            at: crate::csv::parse_secs(&fields[3])?,
            value: parse_field(&fields, 4, "value")?,
        })
    }
}

/// One element of the unified telemetry stream: any of the four ACCL record
/// kinds, or a generic [`LoadSample`].
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// Communicator creation.
    Comm(CommRecord),
    /// A collective operation report (start, or start+completion).
    Coll(CollRecord),
    /// A transport-connection aggregate report.
    Conn(ConnRecord),
    /// A per-rank execution-rhythm report.
    Rank(RankRecord),
    /// A generic numeric load sample.
    Load(LoadSample),
}

impl TelemetryEvent {
    /// The event's position on the simulated-time axis: completion time for
    /// collectives and connections (falling back to start / zero while in
    /// flight), arrival for rank reports, sample time for loads.
    pub fn time(&self) -> SimTime {
        match self {
            TelemetryEvent::Comm(c) => c.created,
            TelemetryEvent::Coll(c) => c.end.unwrap_or(c.start),
            TelemetryEvent::Conn(c) => c.last_completion.unwrap_or(SimTime::ZERO),
            TelemetryEvent::Rank(r) => r.arrived,
            TelemetryEvent::Load(l) => l.at,
        }
    }

    /// The communicator this event belongs to.
    pub fn comm(&self) -> u64 {
        match self {
            TelemetryEvent::Comm(c) => c.comm,
            TelemetryEvent::Coll(c) => c.comm,
            TelemetryEvent::Conn(c) => c.key.comm,
            TelemetryEvent::Rank(r) => r.comm,
            TelemetryEvent::Load(l) => l.comm,
        }
    }

    fn tag(&self) -> &'static str {
        match self {
            TelemetryEvent::Comm(_) => "comm",
            TelemetryEvent::Coll(_) => "coll",
            TelemetryEvent::Conn(_) => "conn",
            TelemetryEvent::Rank(_) => "rank",
            TelemetryEvent::Load(_) => "load",
        }
    }
}

impl ToCsv for TelemetryEvent {
    fn csv_header() -> &'static str {
        "kind,record_fields"
    }

    fn to_csv_row(&self) -> String {
        let payload = match self {
            TelemetryEvent::Comm(c) => c.to_csv_row(),
            TelemetryEvent::Coll(c) => c.to_csv_row(),
            TelemetryEvent::Conn(c) => c.to_csv_row(),
            TelemetryEvent::Rank(r) => r.to_csv_row(),
            TelemetryEvent::Load(l) => l.to_csv_row(),
        };
        format!("{},{}", self.tag(), payload)
    }
}

impl FromCsv for TelemetryEvent {
    fn from_csv_row(row: &str) -> Result<Self, CsvError> {
        let (tag, payload) = row
            .split_once(',')
            .ok_or_else(|| CsvError::new("event rows carry a kind tag plus record fields"))?;
        Ok(match tag {
            "comm" => TelemetryEvent::Comm(CommRecord::from_csv_row(payload)?),
            "coll" => TelemetryEvent::Coll(CollRecord::from_csv_row(payload)?),
            "conn" => TelemetryEvent::Conn(ConnRecord::from_csv_row(payload)?),
            "rank" => TelemetryEvent::Rank(RankRecord::from_csv_row(payload)?),
            "load" => TelemetryEvent::Load(LoadSample::from_csv_row(payload)?),
            other => return Err(CsvError::new(format!("unknown event kind {other:?}"))),
        })
    }
}

/// One worker's records in the **canonical per-store order**: communicator
/// records, then collective records, then connection aggregates, then rank
/// reports, each in stored order. The single definition of that order,
/// shared by [`WorkerTelemetry::events`](crate::WorkerTelemetry::events)
/// and [`events_from_snapshots`].
pub(crate) fn store_events<'a>(
    comms: &'a [CommRecord],
    colls: &'a [CollRecord],
    conns: &'a [ConnRecord],
    ranks: &'a [RankRecord],
) -> impl Iterator<Item = TelemetryEvent> + 'a {
    comms
        .iter()
        .cloned()
        .map(TelemetryEvent::Comm)
        .chain(colls.iter().copied().map(TelemetryEvent::Coll))
        .chain(conns.iter().copied().map(TelemetryEvent::Conn))
        .chain(ranks.iter().copied().map(TelemetryEvent::Rank))
}

/// Flattens a snapshot set into the **canonical event order**: snapshots in
/// slice order, each in the canonical per-store order (communicator
/// records, then collective records, then connection aggregates, then rank
/// reports, each in stored order). Both the batch detectors and the
/// streaming feed consume this order, which is what makes their f64 folds
/// bit-identical.
pub fn events_from_snapshots(snapshots: &[TelemetrySnapshot]) -> Vec<TelemetryEvent> {
    snapshots
        .iter()
        .flat_map(|s| store_events(&s.comms, &s.colls, &s.conns, &s.ranks))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{AlgoKind, CollKind, DataType};
    use crate::worker::WorkerTelemetry;
    use c4_simcore::SimDuration;
    use c4_topology::{GpuId, PortId};

    fn load(rank: u32, step: u64, value: f64) -> TelemetryEvent {
        TelemetryEvent::Load(LoadSample {
            comm: 1,
            rank,
            step,
            at: SimTime::from_secs(step),
            value,
        })
    }

    #[test]
    fn event_stream_csv_round_trips() {
        let mut w = WorkerTelemetry::new(GpuId::from_index(0));
        w.record_comm(CommRecord {
            comm: 1,
            devices: vec![GpuId::from_index(0), GpuId::from_index(1)],
            created: SimTime::ZERO,
        });
        w.record_coll(CollRecord {
            comm: 1,
            seq: 0,
            rank: 0,
            kind: CollKind::AllToAll,
            algo: AlgoKind::Ring,
            dtype: DataType::Bf16,
            count: 4096,
            start: SimTime::from_nanos(17),
            end: None,
        });
        w.record_message(
            crate::record::ConnKey {
                comm: 1,
                channel: 0,
                qp: 1,
                src_gpu: GpuId::from_index(0),
                dst_gpu: GpuId::from_index(1),
            },
            PortId::from_index(3),
            1 << 20,
            SimDuration::from_nanos(123_456_789),
            SimTime::from_nanos(987_654_321),
        );
        w.record_rank(RankRecord {
            comm: 1,
            rank: 0,
            step: 2,
            compute: SimDuration::from_nanos(1),
            ready_delay: SimDuration::ZERO,
            arrived: SimTime::from_secs(4),
        });
        let mut events = events_from_snapshots(&[w.snapshot(SimTime::from_secs(5))]);
        events.push(load(0, 2, 0.1 + 0.2)); // awkward binary fraction
        let doc = crate::csv::to_csv_document(&events);
        let back: Vec<TelemetryEvent> = crate::csv::parse_csv_document(&doc).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn canonical_order_is_snapshot_major() {
        let mk = |gpu: usize| {
            let mut w = WorkerTelemetry::new(GpuId::from_index(gpu));
            w.record_rank(RankRecord {
                comm: 9,
                rank: gpu as u32,
                step: 0,
                compute: SimDuration::ZERO,
                ready_delay: SimDuration::ZERO,
                arrived: SimTime::ZERO,
            });
            w.snapshot(SimTime::ZERO)
        };
        let events = events_from_snapshots(&[mk(0), mk(1)]);
        let ranks: Vec<u32> = events
            .iter()
            .map(|e| match e {
                TelemetryEvent::Rank(r) => r.rank,
                _ => panic!("only rank events expected"),
            })
            .collect();
        assert_eq!(ranks, vec![0, 1]);
    }

    #[test]
    fn stores_in_device_order_yield_the_snapshot_order() {
        let coll = |seq: u64, end: Option<SimTime>| CollRecord {
            comm: 1,
            seq,
            rank: 0,
            kind: CollKind::AllReduce,
            algo: AlgoKind::Ring,
            dtype: DataType::F32,
            count: 8,
            start: SimTime::from_secs(seq),
            end,
        };
        let stores: Vec<WorkerTelemetry> = (0..2)
            .map(|gpu| {
                let mut w = WorkerTelemetry::new(GpuId::from_index(gpu));
                w.record_comm(CommRecord {
                    comm: 1,
                    devices: vec![GpuId::from_index(0), GpuId::from_index(1)],
                    created: SimTime::ZERO,
                });
                w.record_coll(coll(0, Some(SimTime::from_secs(1))));
                w.record_coll(coll(1, None));
                // Connections recorded out of key order, one of them twice.
                for qp in [2u16, 0, 1, 2] {
                    let key = crate::record::ConnKey {
                        comm: 1,
                        channel: qp,
                        qp,
                        src_gpu: GpuId::from_index(gpu),
                        dst_gpu: GpuId::from_index(1 - gpu),
                    };
                    w.record_message(
                        key,
                        PortId::from_index(gpu),
                        64 << qp,
                        SimDuration::from_micros(10 + u64::from(qp)),
                        SimTime::from_secs(2),
                    );
                }
                for step in 0..2 {
                    w.record_rank(RankRecord {
                        comm: 1,
                        rank: gpu as u32,
                        step,
                        compute: SimDuration::from_millis(step + 1),
                        ready_delay: SimDuration::ZERO,
                        arrived: SimTime::from_secs(step),
                    });
                }
                w
            })
            .collect();
        let snaps: Vec<TelemetrySnapshot> = stores
            .iter()
            .map(|w| w.snapshot(SimTime::from_secs(3)))
            .collect();
        // Per store: comms, colls, conns (first-record order), ranks.
        let kinds: String = stores[0]
            .events()
            .map(|e| match e {
                TelemetryEvent::Comm(_) => 'm',
                TelemetryEvent::Coll(_) => 'c',
                TelemetryEvent::Conn(c) => char::from(b'0' + c.key.qp as u8),
                TelemetryEvent::Rank(_) => 'r',
                TelemetryEvent::Load(_) => 'l',
            })
            .collect();
        assert_eq!(kinds, "mcc201rr");
        let streamed: Vec<TelemetryEvent> = stores.iter().flat_map(|w| w.events()).collect();
        assert_eq!(streamed, events_from_snapshots(&snaps));
    }

    #[test]
    fn event_time_and_comm_accessors() {
        let e = load(3, 7, 1.5);
        assert_eq!(e.time(), SimTime::from_secs(7));
        assert_eq!(e.comm(), 1);
    }
}
