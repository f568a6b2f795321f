//! # c4-diagnosis (C4D)
//!
//! Real-time anomaly detection for distributed training — the paper's first
//! contribution (§III-A).
//!
//! C4D exploits two properties of BSP training: workers run in a homogeneous
//! rhythm, and collective operations give natural synchronization anchors.
//! A central master compares per-worker telemetry and classifies the four
//! error syndromes the paper names:
//!
//! * **communication hang** — a collective in flight everywhere for too long
//!   ([`detectors::detect_hang`]);
//! * **non-communication hang** — some ranks never launched the collective
//!   their peers are waiting in;
//! * **communication slow** — localized with the delay matrix of Fig 7: one
//!   hot cell = a bad connection, a hot row = sender Tx problem, a hot
//!   column = receiver Rx problem ([`matrix::DelayMatrix`]);
//! * **non-communication slow** — a straggler rank arriving late at the
//!   sync point, exposed by the receiver-driven wait chain
//!   ([`detectors::detect_noncomm_slow`]).
//!
//! On a critical finding the master notifies the job-steering service
//! ([`steering::JobSteering`]), which isolates the suspect node, swaps in a
//! backup (the paper reserves 8 backup nodes per 128), and restarts the job
//! from the last checkpoint — cutting diagnosis from hours to seconds
//! (Table III).
//!
//! [`smoothing`] implements the paper's stated future-work extension:
//! windowed averaging of per-rank load so Expert-Parallel imbalance is not
//! misdiagnosed as a slow node (§V).
//!
//! [`streaming`] re-plumbs the detectors as incremental consumers of the
//! telemetry pipeline (`c4_telemetry::pipeline`): bounded per-rank /
//! per-connection state fed one event at a time, with verdicts pinned
//! bit-identical to the batch reference implementations above.

#![warn(missing_docs)]

pub mod detectors;
pub mod master;
pub mod matrix;
pub mod smoothing;
pub mod steering;
pub mod streaming;

pub use detectors::{detect_hang, detect_noncomm_slow, Syndrome, HANG_TIMEOUT};
pub use master::{C4dMaster, Diagnosis};
pub use matrix::{DelayMatrix, MatrixFinding};
pub use smoothing::{raw_straggler, LoadSmoother};
pub use steering::{JobSteering, ReplacementPlan, SteeringError, STEERING_TURNAROUND};
pub use streaming::{
    CollHealthDetector, StepVerdict, StreamSmoother, StreamVerdict, StreamingC4dMaster,
};
