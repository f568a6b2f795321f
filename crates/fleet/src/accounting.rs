//! Per-job and fleet-wide goodput/downtime accounting, and the
//! reconciliation bridge to the closed-form operation model.

use c4_simcore::{SimDuration, SimTime};
use c4_trainsim::OperationReport;

use crate::policy::RecoveryPolicy;

/// Running time ledger of one job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobAccounting {
    /// When the job was admitted (fleet clock).
    pub admitted: SimTime,
    /// When it departed (completed, failed, or end of horizon).
    pub finished: Option<SimTime>,
    /// BSP iterations credited (live + extrapolated).
    pub iterations: u64,
    /// Iterations run while a slow component was being absorbed
    /// (degraded-continue accounting).
    pub degraded_iterations: u64,
    /// Productive training time.
    pub productive: SimDuration,
    /// Total unproductive time: detection + steering + re-init + redone
    /// post-checkpoint work + retry stalls.
    pub downtime: SimDuration,
    /// Completed recovery events (isolate/replace/shrink).
    pub recoveries: u64,
    /// Transient-fault retries (backoff waits that did not isolate).
    pub retries: u64,
    /// Times the job shrank its DP width because no backup remained.
    pub dp_shrinks: u64,
}

impl JobAccounting {
    /// Wall time from admission to departure (or `now` if still running).
    pub fn wall(&self, now: SimTime) -> SimDuration {
        self.finished.unwrap_or(now).saturating_since(self.admitted)
    }

    /// Fraction of wall time lost to faults.
    pub fn downtime_fraction(&self, now: SimTime) -> f64 {
        let w = self.wall(now).as_secs_f64();
        if w <= 0.0 {
            0.0
        } else {
            self.downtime.as_secs_f64() / w
        }
    }

    /// Fraction of wall time spent training (`1 - downtime_fraction` up to
    /// admission/round rounding).
    pub fn goodput_fraction(&self, now: SimTime) -> f64 {
        let w = self.wall(now).as_secs_f64();
        if w <= 0.0 {
            0.0
        } else {
            self.productive.as_secs_f64() / w
        }
    }

    /// Estimated time to recovery: mean downtime per recovery event.
    pub fn ettr(&self) -> Option<SimDuration> {
        if self.recoveries == 0 {
            None
        } else {
            Some(SimDuration::from_secs_f64(
                self.downtime.as_secs_f64() / self.recoveries as f64,
            ))
        }
    }
}

/// Final record of one job's life in the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Fleet-assigned job id (admission order).
    pub id: u64,
    /// Job name from its spec.
    pub name: String,
    /// The job's recovery policy.
    pub policy: RecoveryPolicy,
    /// True when the job reached its iteration target.
    pub completed: bool,
    /// True when the job could no longer run (shrunk below minimum size).
    pub failed: bool,
    /// DP width at departure (tracks shrinks).
    pub final_dp: usize,
    /// The time ledger.
    pub accounting: JobAccounting,
}

/// Counters of fault events actually applied to the live topology.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Crash events (node-fatal) applied.
    pub crashes: u64,
    /// Degradation events (slow GPU, PCIe, NIC, GC) applied.
    pub degradations: u64,
    /// Fabric link failures applied.
    pub link_failures: u64,
    /// Events skipped because their victim was already out of service.
    pub skipped: u64,
}

impl FaultCounts {
    /// Total events applied.
    pub fn total(&self) -> u64 {
        self.crashes + self.degradations + self.link_failures
    }
}

/// What a fleet soak produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Configured horizon.
    pub horizon: SimDuration,
    /// Fleet clock at the end of the run.
    pub ended: SimTime,
    /// Controller rounds executed.
    pub rounds: u64,
    /// Live (network-simulated) iterations executed.
    pub live_iterations: u64,
    /// Per-job outcomes, admission order.
    pub jobs: Vec<JobOutcome>,
    /// Fault events applied per class.
    pub faults: FaultCounts,
    /// Critical diagnoses produced by the streaming detectors.
    pub detections: u64,
    /// Node isolations executed through the steering service.
    pub isolations: u64,
    /// Successful backup swaps / re-placements.
    pub replacements: u64,
    /// DP shrinks after backup-pool exhaustion.
    pub dp_shrinks: u64,
    /// Transient retries (backoff without isolation).
    pub retries: u64,
    /// Transient faults escalated to permanent after N strikes.
    pub escalations: u64,
    /// Repaired nodes returned to the pools.
    pub repairs_returned: u64,
    /// Plan-cache hits summed over all jobs.
    pub cache_hits: u64,
    /// Plan-cache misses summed over all jobs.
    pub cache_misses: u64,
    /// Noise-free drains the jobs' plan caches replayed instead of drained
    /// (`c4_collectives::PlanCache::drain_reuses`), summed over all jobs.
    pub drain_reuses: u64,
    /// Cache entries surgically dropped by rebase (routes through changed
    /// links).
    pub cache_rebased_drops: u64,
    /// Audit counter: cached plans found routing through a link that was
    /// down at audit time. The controller's invariant is that this is
    /// **zero** — every topology mutation is followed by a rebase before
    /// any plan is served.
    pub stale_plan_routes: u64,
}

impl FleetReport {
    /// Aggregate downtime fraction: total job downtime over total job wall
    /// time.
    pub fn aggregate_downtime_fraction(&self) -> f64 {
        let (mut down, mut wall) = (0.0, 0.0);
        for j in &self.jobs {
            down += j.accounting.downtime.as_secs_f64();
            wall += j.accounting.wall(self.ended).as_secs_f64();
        }
        if wall <= 0.0 {
            0.0
        } else {
            down / wall
        }
    }

    /// Aggregate goodput fraction across jobs.
    pub fn aggregate_goodput_fraction(&self) -> f64 {
        let (mut prod, mut wall) = (0.0, 0.0);
        for j in &self.jobs {
            prod += j.accounting.productive.as_secs_f64();
            wall += j.accounting.wall(self.ended).as_secs_f64();
        }
        if wall <= 0.0 {
            0.0
        } else {
            prod / wall
        }
    }

    /// Mean downtime per recovery event across the fleet.
    pub fn mean_ettr(&self) -> Option<SimDuration> {
        let (mut down, mut n) = (SimDuration::ZERO, 0u64);
        for j in &self.jobs {
            if j.accounting.recoveries > 0 {
                down += j.accounting.downtime;
                n += j.accounting.recoveries;
            }
        }
        if n == 0 {
            None
        } else {
            Some(SimDuration::from_secs_f64(down.as_secs_f64() / n as f64))
        }
    }

    /// Total recovery events across the fleet.
    pub fn total_recoveries(&self) -> u64 {
        self.jobs.iter().map(|j| j.accounting.recoveries).sum()
    }

    /// Compares this soak against a matched closed-form
    /// [`simulate_operation`](c4_trainsim::simulate_operation) run.
    pub fn reconcile(&self, model: &OperationReport) -> Reconciliation {
        let fleet_per_recovery = self.mean_ettr().map_or(0.0, |d| d.as_secs_f64());
        let model_per_crash = if model.crashes.is_empty() {
            0.0
        } else {
            model
                .crashes
                .iter()
                .map(|c| c.downtime().as_secs_f64())
                .sum::<f64>()
                / model.crashes.len() as f64
        };
        Reconciliation {
            fleet_downtime_per_recovery_s: fleet_per_recovery,
            model_downtime_per_crash_s: model_per_crash,
            fleet_downtime_fraction: self.aggregate_downtime_fraction(),
            model_downtime_fraction: model.downtime_fraction(),
            fleet_recoveries: self.total_recoveries(),
            model_crashes: model.crashes.len() as u64,
        }
    }
}

/// Side-by-side comparison of the live fleet soak and the closed-form
/// operation model on a matched configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reconciliation {
    /// Mean downtime charged per fleet recovery event (seconds).
    pub fleet_downtime_per_recovery_s: f64,
    /// Mean downtime sampled per model crash (seconds).
    pub model_downtime_per_crash_s: f64,
    /// Fleet aggregate downtime fraction.
    pub fleet_downtime_fraction: f64,
    /// Model downtime fraction.
    pub model_downtime_fraction: f64,
    /// Fleet recovery-event count.
    pub fleet_recoveries: u64,
    /// Model crash count.
    pub model_crashes: u64,
}

impl Reconciliation {
    /// Ratio of mean per-event downtimes (fleet / model); `1.0` when the
    /// two agree exactly, `None` when either side saw no events.
    pub fn per_event_ratio(&self) -> Option<f64> {
        if self.fleet_downtime_per_recovery_s <= 0.0 || self.model_downtime_per_crash_s <= 0.0 {
            None
        } else {
            Some(self.fleet_downtime_per_recovery_s / self.model_downtime_per_crash_s)
        }
    }

    /// True when the per-event downtime means agree within `tolerance`
    /// (relative, e.g. `0.5` = within 50 %). Vacuously true when either
    /// side saw no events (nothing to reconcile).
    pub fn per_event_within(&self, tolerance: f64) -> bool {
        match self.per_event_ratio() {
            None => true,
            Some(r) => (r - 1.0).abs() <= tolerance,
        }
    }
}
