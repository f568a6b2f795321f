//! Fault-churn fleet controller: a long-horizon soak harness that runs many
//! concurrent training jobs through the **live** network stack while faults
//! arrive, and closes the full detect → isolate → replace → restart loop.
//!
//! The pieces:
//!
//! - [`FleetController`] — the round loop. Each round applies due fault
//!   events ([`c4_faults::FaultInjector`] schedules, disjoint per class) to
//!   the live [`c4_topology::Topology`], runs one network-simulated BSP
//!   iteration per job, streams its telemetry through the streaming
//!   detectors ([`c4_diagnosis::StreamingC4dMaster`] for hangs,
//!   [`c4_diagnosis::CollHealthDetector`] for windowed slowness), and acts
//!   on what they report alone through [`c4_diagnosis::JobSteering`]: a
//!   localized hang or persistent slowness isolates the suspect node, an
//!   unlocalized hang waits and runs again. The injected fault schedule is
//!   read only to apply faults.
//! - [`RecoveryPolicy`] — the Chameleon-style per-job adaptation axis:
//!   checkpoint-restart with a backup swap, degraded-continue, or whole-job
//!   re-placement; when the backup pool is dry the controller shrinks the
//!   job's DP width instead of crashing it.
//! - [`FlapTracker`] — N-strikes-within-a-window counting: a fabric link
//!   that keeps flapping stays down, and a job that keeps running slow
//!   escalates to isolation.
//! - [`FleetReport`] / [`Reconciliation`] — goodput, ETTR, and downtime
//!   accounting, reconciled against the closed-form
//!   [`c4_trainsim::simulate_operation`] model on a matched configuration.
//!
//! Every recovery path re-plans through `run_concurrent_cached`'s plan
//! cache with surgical invalidation ([`c4_collectives::PlanCache::rebase`]),
//! and the controller audits after every topology mutation that **no cached
//! plan routes through a down link** ([`FleetReport::stale_plan_routes`]
//! must end at zero).

#![warn(missing_docs)]

pub mod accounting;
pub mod controller;
pub mod policy;

pub use accounting::{FaultCounts, FleetReport, JobAccounting, JobOutcome, Reconciliation};
pub use controller::{
    FleetConfig, FleetController, JobTemplate, CHECKPOINT_INTERVAL, LOCALIZE_DELAY, REINIT,
};
pub use policy::{FlapTracker, RecoveryPolicy};
