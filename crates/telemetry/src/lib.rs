//! # c4-telemetry
//!
//! The enhanced-ACCL runtime statistics of the paper's Fig 5/6, reproduced at
//! schema level.
//!
//! C4D's whole premise is that the communication library can observe enough,
//! cheaply enough, to diagnose hardware in real time. The paper extends
//! ACCL's bottom three layers and emits four time-series files per worker:
//!
//! * `comm-stats.csv` — communicators: id, involved devices, ranks
//!   ([`CommRecord`]);
//! * `coll-stats.csv` — collective operations: type, algorithm, data type,
//!   element count, sequence number, start/completion ([`CollRecord`]);
//! * `rank-stats.csv` — per-rank execution rhythm: compute time and
//!   receiver-driven wait time per step ([`RankRecord`]);
//! * `conn-stats.csv` — transport connections: peers, QP, source port,
//!   message counts/sizes/durations ([`ConnRecord`]).
//!
//! Workers accumulate records in a [`WorkerTelemetry`] store (the paper's
//! per-worker CSV set); the C4a agent ships them to the C4D master as a
//! [`TelemetrySnapshot`]. CSV export **and parsing** are provided for each
//! record type — emit→parse is lossless (nanosecond-exact times, RFC 4180
//! quoting) so the on-disk artifacts of Fig 5 can be regenerated verbatim
//! and replayed.
//!
//! The [`pipeline`] module turns these records into one ordered event
//! stream (live, or replayed from its CSV document) that the streaming
//! detectors fold event by event, through keyed windowed means where they
//! need windows. See its docs for the stream==batch equality rules.

#![warn(missing_docs)]

pub mod csv;
pub mod event;
pub mod pipeline;
pub mod record;
pub mod worker;

pub use csv::{FromCsv, ToCsv};
pub use event::{C4Event, EventKind, EventLog, Severity};
pub use pipeline::{LoadSample, TelemetryEvent};
pub use record::{
    AlgoKind, CollKind, CollRecord, CommRecord, ConnKey, ConnRecord, DataType, RankRecord,
};
pub use worker::{TelemetrySnapshot, WorkerTelemetry};
