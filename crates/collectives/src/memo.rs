//! The drain memo: a BSP request set's last noise-free drain, kept with
//! every input that drain read, so an iteration that presents the same
//! inputs replays the report instead of draining again.
//!
//! With `rate_noise == 0` and no CNP model, [`drain`] never steps onto the
//! noise grid: it draws nothing from the RNG and never reads `epoch`. Its
//! report is then a pure function of the flow specs (key, bytes, route),
//! the capacity of every route link, the link and port counts that size
//! `link_bytes` and `cnp_per_port`, and `start` and `deadline`. `start`
//! only shifts the integer-nanosecond times: the loop works in seconds
//! since the start. The deadline is read at every event but binds only on
//! a step that would cross it. A drain that completed every flow 1 ns or
//! more before its deadline was never clamped, since a binding clamp lands
//! the clock on the deadline itself; only such a drain is recorded. Its
//! replay, shifted to a new start, is not clamped either when it ends
//! 1 ns or more before the new deadline: each step advances the clock by
//! its length rounded to the nearest nanosecond, so no step was as long as
//! the distance to that deadline. Any other difference runs [`drain`] as
//! usual.
//!
//! [`drain`]: c4_netsim::drain

use std::iter;
use std::sync::Arc;

use c4_netsim::{DrainConfig, DrainReport, DrainSolverStats, FlowOutcome, FlowSpec};
use c4_simcore::{SimDuration, SimTime};
use c4_topology::Topology;

/// Slack a recorded or replayed drain must leave before its deadline.
const DEADLINE_SLACK: SimDuration = SimDuration::from_nanos(1);

/// One recorded noise-free drain and the inputs it read.
#[derive(Debug, Clone)]
pub(crate) struct DrainMemo {
    /// The drained flows, in drain order.
    specs: Vec<FlowSpec>,
    /// Capacity bits of every route link, in spec and route order.
    capacity_bits: Vec<u64>,
    /// `Topology::num_links` (the length of `link_bytes`).
    num_links: usize,
    /// The port count (the length of `cnp_per_port`).
    num_ports: usize,
    /// The recorded report's start; its times are shifted from here.
    start: SimTime,
    outcomes: Vec<FlowOutcome>,
    end: SimTime,
    /// The non-zero entries of `link_bytes`, by link index: O(flows)
    /// rather than O(fabric).
    link_bytes: Vec<(u32, f64)>,
    congested_flows: usize,
    solver: DrainSolverStats,
}

/// True when `cfg` makes [`drain`](c4_netsim::drain) a pure function of
/// its non-RNG inputs.
pub(crate) fn replayable(cfg: &DrainConfig) -> bool {
    cfg.rate_noise == 0.0 && cfg.cnp.is_none()
}

/// The drain inputs the topology supplies: capacity bits of every route
/// link, in spec and route order (a down link reads 0).
fn capacity_bits<'a>(topo: &'a Topology, specs: &'a [FlowSpec]) -> impl Iterator<Item = u64> + 'a {
    specs.iter().flat_map(move |s| {
        s.route
            .iter()
            .map(move |&l| topo.link(l).capacity().as_bytes_per_sec().to_bits())
    })
}

/// True when a drain that ends at `end` was never clamped by `deadline`.
fn clear_of(end: SimTime, deadline: Option<SimTime>) -> bool {
    deadline.is_none_or(|d| end + DEADLINE_SLACK <= d)
}

impl DrainMemo {
    /// Records `report`, the [`drain`](c4_netsim::drain) of `specs` under
    /// `cfg`, or returns `None` when the drain hung or may have been cut by
    /// its deadline. `cfg` must be [`replayable`].
    pub(crate) fn record(
        topo: &Topology,
        specs: Vec<FlowSpec>,
        cfg: &DrainConfig,
        report: &DrainReport,
    ) -> Option<DrainMemo> {
        debug_assert!(replayable(cfg), "only noise-free drains are recorded");
        if !report.all_completed() || !clear_of(report.end, cfg.deadline) {
            return None;
        }
        let link_bytes = report
            .link_bytes
            .iter()
            .enumerate()
            .filter(|(_, b)| b.to_bits() != 0)
            .map(|(l, &b)| (l as u32, b))
            .collect();
        Some(DrainMemo {
            capacity_bits: capacity_bits(topo, &specs).collect(),
            specs,
            num_links: topo.num_links(),
            num_ports: topo.ports().len(),
            start: cfg.start,
            outcomes: report.outcomes.clone(),
            end: report.end,
            link_bytes,
            congested_flows: report.congested_flows,
            solver: report.solver,
        })
    }

    /// The recorded report shifted to `cfg.start`, when `specs` under
    /// `cfg` present exactly the recorded inputs and the shifted drain
    /// ends clear of `cfg.deadline`; `None` otherwise. `cfg` must be
    /// [`replayable`].
    pub(crate) fn replay(
        &self,
        topo: &Topology,
        specs: &[FlowSpec],
        cfg: &DrainConfig,
    ) -> Option<DrainReport> {
        let shift = |t: SimTime| cfg.start + (t - self.start);
        let end = shift(self.end);
        let replays = clear_of(end, cfg.deadline)
            && self.num_links == topo.num_links()
            && self.num_ports == topo.ports().len()
            && self.specs == specs
            && capacity_bits(topo, specs).eq(self.capacity_bits.iter().copied());
        if !replays {
            return None;
        }
        // Filled in place: collecting straight into the `Arc` saves the
        // copy a `Vec` conversion would make of the whole table.
        let mut link_bytes: Arc<[f64]> = iter::repeat_n(0.0, self.num_links).collect();
        let dense = Arc::get_mut(&mut link_bytes).expect("a fresh Arc is unique");
        for &(l, b) in &self.link_bytes {
            dense[l as usize] = b;
        }
        Some(DrainReport {
            outcomes: self
                .outcomes
                .iter()
                .map(|o| FlowOutcome {
                    start: cfg.start,
                    finish: o.finish.map(shift),
                    ..o.clone()
                })
                .collect(),
            end,
            link_bytes,
            cnp_per_port: iter::repeat_n(0.0, self.num_ports).collect(),
            congested_flows: self.congested_flows,
            solver: self.solver,
        })
    }
}
