//! The drain memo: per BSP request set, the last noise-free drain, kept
//! with every input that drain read so an iteration that presents the same
//! inputs replays the report instead of draining again, and the last noisy
//! drain's seed solve.
//!
//! With `rate_noise == 0` and no CNP model, [`drain`] never steps onto the
//! noise grid: it draws nothing from the RNG and never reads `epoch`. Its
//! report is then a pure function of the flow specs (key, bytes, route),
//! the capacity of every route link, the port count that sizes
//! `cnp_per_port`, and `start` and `deadline`. `start` only shifts the
//! integer-nanosecond times: the loop works in seconds since the start.
//! The deadline is read at every event but binds only on a step that would
//! cross it. A drain that completed every flow 1 ns or more before its
//! deadline was never clamped, since a binding clamp lands the clock on
//! the deadline itself; only such a drain is recorded. Its replay, shifted
//! to a new start, is not clamped either when it ends 1 ns or more before
//! the new deadline: each step advances the clock by its length rounded to
//! the nearest nanosecond, so no step was as long as the distance to that
//! deadline. Any other difference runs [`drain`] as usual.
//!
//! Every link change moves `Topology::version`, so the route capacities are
//! still the recorded ones while the version is the one at which they were
//! last found equal: a replay compares their bits only after the version
//! has moved, and re-stamps the version when they match. The seed stamp
//! relies on the same rule, and like it, this does not rest on
//! `PlanCache::rebase` receiving a complete set of changed links. A replay
//! shares the recorded report's `link_bytes` table rather than copying it.
//!
//! A request set's slot also keeps its last noisy drain's seed solve with a
//! [`SeedStamp`] of what it was solved over; `PlanCache`'s docs give the
//! rule that hands it to the next noisy drain.
//!
//! [`drain`]: c4_netsim::drain

use std::iter;
use std::sync::Arc;

use c4_netsim::{DrainConfig, DrainReport, DrainSolverStats, FlowOutcome, FlowSpec, SeedSolve};
use c4_simcore::{SimDuration, SimTime};
use c4_topology::{LinkId, Topology};

/// Slack a recorded or replayed drain must leave before its deadline.
const DEADLINE_SLACK: SimDuration = SimDuration::from_nanos(1);

/// One request set's slot: its last recorded noise-free drain and its
/// last noisy drain's seed solve, with what that was solved over.
#[derive(Debug, Clone, Default)]
pub(crate) struct DrainSlot {
    pub(crate) memo: Option<DrainMemo>,
    pub(crate) seed: Option<(SeedStamp, SeedSolve)>,
}

/// What a drain's seed solve was solved over, in terms the plan cache
/// compares exactly: equal stamps mean the same routes in the same spec
/// order, over the same link capacities, with the same flows removed up
/// front.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SeedStamp {
    /// The build stamp of each request's plan, in request order.
    plans: Vec<u64>,
    /// `Topology::version` at the drain.
    topo_version: u64,
    /// The zero-byte flows, which the drain removes before it seeds.
    zero_byte: Vec<u32>,
}

impl SeedStamp {
    /// The stamp of a drain of `specs` on `topo`, built from plans with
    /// build stamps `plans` (in request order).
    pub(crate) fn new(plans: Vec<u64>, topo: &Topology, specs: &[FlowSpec]) -> SeedStamp {
        SeedStamp {
            plans,
            topo_version: topo.version(),
            zero_byte: (0..specs.len() as u32)
                .filter(|&f| specs[f as usize].bytes.as_bytes() == 0)
                .collect(),
        }
    }
}

/// One recorded noise-free drain and the inputs it read.
#[derive(Debug, Clone)]
pub(crate) struct DrainMemo {
    /// The drained flows, in drain order. Their routes are the cached
    /// plans' shared routes, so checking an unchanged plan's specs
    /// compares each route by pointer, not link by link.
    specs: Vec<FlowSpec>,
    /// Capacity bits of every route link, in spec and route order.
    capacity_bits: Vec<u64>,
    /// `Topology::version` at which the route capacities were last found
    /// equal to `capacity_bits`.
    checked_version: u64,
    /// The port count (the length of `cnp_per_port`).
    num_ports: usize,
    /// The recorded report's start; its times are shifted from here.
    start: SimTime,
    outcomes: Vec<FlowOutcome>,
    end: SimTime,
    /// The recorded report's table, shared with every replay.
    link_bytes: Arc<[(LinkId, f64)]>,
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
    /// `cfg`, with a copy of `specs` that shares their routes, or returns
    /// `None` when the drain hung or may have been cut by its deadline.
    /// `cfg` must be [`replayable`].
    pub(crate) fn record(
        topo: &Topology,
        specs: &[FlowSpec],
        cfg: &DrainConfig,
        report: &DrainReport,
    ) -> Option<DrainMemo> {
        debug_assert!(replayable(cfg), "only noise-free drains are recorded");
        if !report.all_completed() || !clear_of(report.end, cfg.deadline) {
            return None;
        }
        Some(DrainMemo {
            capacity_bits: capacity_bits(topo, specs).collect(),
            checked_version: topo.version(),
            specs: specs.to_vec(),
            num_ports: topo.ports().len(),
            start: cfg.start,
            outcomes: report.outcomes.clone(),
            end: report.end,
            link_bytes: Arc::clone(&report.link_bytes),
            congested_flows: report.congested_flows,
            solver: report.solver,
        })
    }

    /// The recorded report shifted to `cfg.start`, when `specs` under
    /// `cfg` present exactly the recorded inputs and the shifted drain
    /// ends clear of `cfg.deadline`; `None` otherwise. `cfg` must be
    /// [`replayable`].
    pub(crate) fn replay(
        &mut self,
        topo: &Topology,
        specs: &[FlowSpec],
        cfg: &DrainConfig,
    ) -> Option<DrainReport> {
        let end = cfg.start + (self.end - self.start);
        let replays = clear_of(end, cfg.deadline)
            && self.num_ports == topo.ports().len()
            && self.specs == specs
            && self.capacities_hold(topo, specs);
        if !replays {
            return None;
        }
        let shift = |t: SimTime| cfg.start + (t - self.start);
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
            link_bytes: Arc::clone(&self.link_bytes),
            cnp_per_port: iter::repeat_n(0.0, self.num_ports).collect(),
            congested_flows: self.congested_flows,
            solver: self.solver,
        })
    }

    /// True when the capacities of `specs`' route links equal the recorded
    /// ones: at once while the topology version is the one they were last
    /// found equal at, otherwise by comparing their bits, which re-stamps
    /// the version on a match. `specs` must equal the recorded specs.
    fn capacities_hold(&mut self, topo: &Topology, specs: &[FlowSpec]) -> bool {
        if topo.version() == self.checked_version {
            return true;
        }
        let equal = capacity_bits(topo, specs).eq(self.capacity_bits.iter().copied());
        if equal {
            self.checked_version = topo.version();
        }
        equal
    }
}
