//! The drain loop: advances virtual time until a set of flows completes.
//!
//! Between events the rate allocation is constant, so the loop only needs
//! events at flow completions, noise-grid instants (when congestion noise or
//! CNP accounting is enabled) and the optional deadline. Flows whose route
//! crosses a dead link receive rate 0 and are reported as *stalled* —
//! exactly the syndrome C4D's hang detector consumes.
//!
//! ## The DCQCN noise model
//!
//! DCQCN updates sender rates on timers, so noise lives on a fixed grid:
//! the instants `start + k·epoch` (k = 0, 1, …). At each grid instant every
//! active flow, in ascending flow order, draws its throttle factor
//! `φ = 1 − rate_noise·u` (when `rate_noise > 0`) and then its CNP jitter
//! `j = u` (when `cnp` is set). Nothing is drawn between grid instants, so
//! RNG use depends on the grid and the active set, never on how many
//! unrelated completions happen nearby. A congested flow — score > 0: it
//! crosses a saturated link shared with a competitor — runs at `base·φ`;
//! every other flow runs at its max-min base rate. When a base rate moves
//! between grid instants the flow is re-rated with its current `φ`. Every
//! flow accrues `cnp_rate(score, j)` CNPs per second.
//!
//! Two implementations share the model and the
//! [`DrainConfig`]/[`DrainReport`] surface:
//!
//! * [`drain`] — the production path, an event-driven engine whose
//!   per-event work is proportional to *what changed*, not to what exists:
//!   * one persistent [`MaxMinState`] carries the base allocation;
//!     completions become [`MaxMinState::remove_flow`], and the solver's
//!     worklist re-rates only the flows whose bottleneck moved. Link loads
//!     apply those flows' rate deltas in place, off the solver's
//!     changed-flow feed ([`MaxMinState::refresh`],
//!     [`MaxMinState::changed_flows`]), instead of being rebuilt over every
//!     active flow each event.
//!   * CNP congestion scores come from per-link flags: each link keeps
//!     [`CnpModel::link_congested`], each flow a count of congested links
//!     on its route, and its score is `count > 0`. Only the links whose
//!     load moved are re-tested, and only a flag that flips touches its
//!     subscribers' counts. Flows whose score flips are handled after the
//!     re-rated ones, by the earliest touched link on their route and then
//!     flow id — the order a scan of the touched links' subscribers meets
//!     them — which fixes the order of CNP flushes and re-rates, and so
//!     the floating-point association of every per-port CNP sum.
//!   * noise needs no second solver: a throttle only ever lands on a flow
//!     crossing a saturated link shared with a competitor, and every
//!     subscriber of such a link is throttled, so the capped max-min
//!     allocation is exactly `min(base, base·φ)` per flow — a one-pass
//!     re-rate from the resident base allocation.
//!   * CNPs integrate per (score, jitter) episode: one multiply when a
//!     flow's score flips, at a grid redraw, at its completion and at the
//!     drain end.
//!   * the next completion comes from a binary min-heap over
//!     `(t_zero, flow)` with each flow's position indexed: a re-rated flow's
//!     entry is removed in place, so the heap holds one entry per armed flow
//!     and never a stale one. Completions landing within the one-byte
//!     tolerance of one instant batch their removals, so the solver
//!     propagates once per batch rather than once per flow.
//! * [`drain_reference`] — the retained from-scratch implementation: it
//!   re-solves the whole allocation, capped by the throttles, at every
//!   event and sums CNPs event by event. It consumes the RNG in exactly the
//!   same order as [`drain`], so for any topology, flow set, noise level
//!   and deadline the two produce the same report up to floating-point
//!   association; `tests/maxmin_differential.rs` holds them to 1e-9 — with
//!   identical RNG positions afterwards.

use std::sync::Arc;

use c4_simcore::{Bandwidth, DetRng, ParallelPolicy, SimDuration, SimTime};
use c4_topology::{LinkKind, Topology};

use crate::congestion::CnpModel;
use crate::flow::{FlowOutcome, FlowSpec};
use crate::maxmin::{self, MaxMinState, SolveScope};

/// Configuration of one drain run.
#[derive(Debug, Clone)]
pub struct DrainConfig {
    /// Virtual start time.
    pub start: SimTime,
    /// Absolute give-up time for stalled flows (`None` = stop as soon as all
    /// movable flows finished; stalled flows are reported immediately).
    pub deadline: Option<SimTime>,
    /// Spacing of the noise grid. When `rate_noise` or `cnp` is active,
    /// every active flow redraws its throttle factor and CNP jitter at the
    /// instants `start + k·epoch` (k = 0, 1, …) and at no other time; the
    /// drain steps onto every grid instant.
    pub epoch: SimDuration,
    /// DCQCN-style multiplicative rate jitter on congested flows (0 = off).
    /// A value of `a` runs each congested flow at `φ` times its max-min base
    /// rate, with `φ` uniform in `(1−a, 1]` and redrawn at every noise-grid
    /// instant (see [`DrainConfig::epoch`]). A flow whose base rate moves
    /// between grid instants keeps its `φ`.
    pub rate_noise: f64,
    /// CNP accounting model (`None` = no CNP accounting). Each flow's CNP
    /// jitter is redrawn on the same grid as `rate_noise`.
    pub cnp: Option<CnpModel>,
    /// Thread budget for the collective layer's route assembly, which
    /// reuses the drain config. The drain itself runs serially and never
    /// reads it. Defaults to the `C4_THREADS` environment selection; routes
    /// are bit-identical at any thread count.
    pub parallel: ParallelPolicy,
}

impl Default for DrainConfig {
    fn default() -> Self {
        DrainConfig {
            start: SimTime::ZERO,
            deadline: None,
            epoch: SimDuration::from_millis(10),
            rate_noise: 0.0,
            cnp: None,
            parallel: ParallelPolicy::default(),
        }
    }
}

/// Everything a drain run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainReport {
    /// Per-flow outcomes, in spec order.
    pub outcomes: Vec<FlowOutcome>,
    /// When the drain ended (last completion, or deadline).
    pub end: SimTime,
    /// Bytes carried per link (indexed by `LinkId`). Shared rather than
    /// copied when one drain's report is split across several requests.
    pub link_bytes: Arc<[f64]>,
    /// Average CNPs/s received per sender port (indexed by `PortId`) over
    /// the drain; all zeros when CNP accounting is off. Shared like
    /// `link_bytes`.
    pub cnp_per_port: Arc<[f64]>,
    /// Number of flows that crossed at least one saturated shared link.
    pub congested_flows: usize,
    /// Solver/engine counters for the run (replaces the old
    /// `C4_DRAIN_STATS=1` stderr printing): how much work the event loop
    /// actually did, observable without environment variables.
    pub solver: DrainSolverStats,
}

/// Structured solver/engine counters carried on every [`DrainReport`].
///
/// All counters are additive across drains except `arena_hwm_bytes`, which
/// is a high-water mark — [`DrainSolverStats::merge`] folds accordingly, so
/// multi-phase callers (the collective engine, the hybrid trainer) can
/// aggregate per-phase reports into one summary.
///
/// A report the collective layer's plan cache *replayed* instead of
/// drained (a noise-free BSP drain whose inputs did not change; see
/// `c4_collectives::PlanCache`) carries the counters of the drain it
/// replays: they describe the work that produced the results, not work
/// done by the replaying call. Summed over a run, they count that work
/// once per result served.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DrainSolverStats {
    /// Events the drain loop processed (completions, noise-grid instants,
    /// deadline).
    pub events: u64,
    /// Flows in the drained spec set.
    pub flows: u64,
    /// Full (seed) base-allocation solves over every live flow.
    pub full_solves: u64,
    /// Always 0. It counted the re-solves of a component-partitioned
    /// solver that no longer exists; the field keeps existing readers of
    /// the solver column compiling.
    pub component_solves: u64,
    /// Worklist propagations that settled: the solver's incremental path,
    /// one per batch of same-instant completions.
    pub sparse_solves: u64,
    /// Worklist rounds across all propagations, over every link.
    pub spine_rounds: u64,
    /// Per-link bottleneck-level commits made by the worklist, over every
    /// link.
    pub spine_link_updates: u64,
    /// Propagations that exhausted the worklist's round budget and fell
    /// back to an exact seed solve.
    pub fallback_solves: u64,
    /// Completion instants at which ≥ 2 flows finished together (their
    /// removals were batched into one re-solve).
    pub batched_instants: u64,
    /// Completions beyond the first at a batched instant — i.e. removals
    /// that did *not* cost their own re-solve.
    pub batched_completions: u64,
    /// High-water mark of the solver's reusable scratch arena, in bytes.
    pub arena_hwm_bytes: u64,
}

impl DrainSolverStats {
    /// Folds `other` into `self`: counters add, high-water marks take the
    /// max.
    pub fn merge(&mut self, other: &DrainSolverStats) {
        self.events += other.events;
        self.flows += other.flows;
        self.full_solves += other.full_solves;
        self.component_solves += other.component_solves;
        self.sparse_solves += other.sparse_solves;
        self.spine_rounds += other.spine_rounds;
        self.spine_link_updates += other.spine_link_updates;
        self.fallback_solves += other.fallback_solves;
        self.batched_instants += other.batched_instants;
        self.batched_completions += other.batched_completions;
        self.arena_hwm_bytes = self.arena_hwm_bytes.max(other.arena_hwm_bytes);
    }
}

impl DrainReport {
    /// True when every flow completed (vacuously true for zero flows).
    pub fn all_completed(&self) -> bool {
        self.outcomes.iter().all(|o| o.completed())
    }

    /// Total drain duration from the configured start.
    pub fn duration_from(&self, start: SimTime) -> SimDuration {
        self.end - start
    }

    /// Indices of stalled flows.
    pub fn stalled(&self) -> Vec<usize> {
        self.outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| !o.completed())
            .map(|(i, _)| i)
            .collect()
    }
}

/// Rates below this (bytes/s) count as stalled.
const STALL_RATE: f64 = 1.0;

/// The epoch-cadence DCQCN noise model of the module docs, shared by both
/// implementations so they agree on the grid, the draw order and the
/// throttle rule.
struct Noise {
    rate_noise: f64,
    cnp: bool,
    epoch_s: f64,
    /// The pending grid instant, in seconds since the drain start.
    next_grid_s: f64,
    /// Per flow: throttle factor `φ` (1 until drawn).
    phi: Vec<f64>,
    /// Per flow: CNP jitter draw in `[0, 1)`.
    jitter: Vec<f64>,
}

impl Noise {
    fn new(cfg: &DrainConfig, nf: usize) -> Self {
        Noise {
            rate_noise: cfg.rate_noise,
            cnp: cfg.cnp.is_some(),
            epoch_s: cfg.epoch.as_secs_f64(),
            next_grid_s: 0.0,
            phi: vec![1.0; nf],
            jitter: vec![0.5; nf],
        }
    }

    /// Whether the drain runs on the noise grid at all.
    fn enabled(&self) -> bool {
        self.rate_noise > 0.0 || self.cnp
    }

    /// True when `now_s` has reached the pending grid instant, which then
    /// moves on by one epoch: the caller redraws every active flow.
    fn redraw_due(&mut self, now_s: f64) -> bool {
        let due = self.enabled() && now_s >= self.next_grid_s;
        if due {
            self.next_grid_s += self.epoch_s;
        }
        due
    }

    /// Flow `f`'s draws at a grid instant: `φ` first, then the CNP jitter.
    fn draw(&mut self, f: usize, rng: &mut DetRng) {
        if self.rate_noise > 0.0 {
            self.phi[f] = 1.0 - self.rate_noise * rng.uniform();
        }
        if self.cnp {
            self.jitter[f] = rng.uniform();
        }
    }

    /// Flow `f`'s actual rate for base rate `base` at congestion score
    /// `score`.
    fn rate(&self, f: usize, base: f64, score: f64) -> f64 {
        if score > 0.0 {
            base * self.phi[f]
        } else {
            base
        }
    }

    /// Clamps the completion horizon `dt` to the pending grid instant and
    /// the deadline. Returns the step and the clock (seconds since the drain
    /// start) it lands on; when the grid clamp binds the clock snaps to the
    /// grid instant itself, so both implementations redraw at the same
    /// events.
    fn clamp_step(
        &self,
        mut dt: f64,
        now_s: f64,
        now: SimTime,
        deadline: Option<SimTime>,
    ) -> (f64, f64) {
        let mut grid_s = None;
        if self.enabled() && self.next_grid_s - now_s <= dt {
            dt = self.next_grid_s - now_s;
            grid_s = Some(self.next_grid_s);
        }
        if let Some(deadline) = deadline {
            let to_deadline = (deadline - now).as_secs_f64();
            if to_deadline < dt {
                dt = to_deadline;
                grid_s = None;
            }
        }
        (dt, grid_s.unwrap_or(now_s + dt))
    }
}

/// Episodic CNP integration for [`drain`]. A flow's CNP rate
/// `cnp_rate(score, jitter)` is constant between its score flips and the
/// grid redraws, so each episode is integrated in one multiply when it
/// closes — the reference sums the same series event by event.
struct CnpEpisodes {
    model: CnpModel,
    /// Per flow: when its open episode began (seconds since drain start).
    since_s: Vec<f64>,
    /// Per sender port: CNPs of the closed episodes.
    accum: Vec<f64>,
}

impl CnpEpisodes {
    /// Closes flow `f`'s open episode at `now_s`, crediting its sender port
    /// with `cnp_rate(score, jitter) × Δt`, and opens the next one.
    fn flush(&mut self, f: usize, port: Option<usize>, now_s: f64, score: f64, jitter: f64) {
        if let Some(port) = port {
            let dt = now_s - self.since_s[f];
            if dt > 0.0 {
                self.accum[port] += self.model.cnp_rate(score, jitter) * dt;
            }
        }
        self.since_s[f] = now_s;
    }
}

/// The drain's projected completions: a binary min-heap over
/// `(t_zero, flow)` — the instant (seconds since drain start) at which the
/// flow's remaining bytes reach zero at its current rate, ties broken by
/// flow id — with each flow's heap position indexed. A re-rated flow's
/// entry is removed in place, so the heap holds at most one entry per flow
/// and never a stale one.
struct CompletionHeap {
    /// `(t_zero, flow)` in heap order.
    entries: Vec<(f64, u32)>,
    /// Per flow: its index in `entries`, or [`CompletionHeap::ABSENT`].
    pos: Vec<u32>,
}

impl CompletionHeap {
    const ABSENT: u32 = u32::MAX;

    fn new(nf: usize) -> Self {
        CompletionHeap {
            entries: Vec::new(),
            pos: vec![Self::ABSENT; nf],
        }
    }

    /// The earliest projected completion as `(t_zero, flow)`.
    fn peek(&self) -> Option<(f64, usize)> {
        self.entries.first().map(|&(t, f)| (t, f as usize))
    }

    /// Arms flow `f` (which must not be armed) to complete at `t_zero`.
    fn push(&mut self, f: usize, t_zero: f64) {
        debug_assert!(!t_zero.is_nan(), "completion instants are not NaN");
        debug_assert_eq!(self.pos[f], Self::ABSENT, "flow {f} armed twice");
        self.entries.push((t_zero, f as u32));
        self.sift_up(self.entries.len() - 1);
    }

    /// Disarms flow `f`, if armed.
    fn remove(&mut self, f: usize) {
        let i = self.pos[f];
        if i == Self::ABSENT {
            return;
        }
        self.pos[f] = Self::ABSENT;
        let i = i as usize;
        let last = self.entries.pop().expect("an armed flow has an entry");
        if i < self.entries.len() {
            self.entries[i] = last;
            self.pos[last.1 as usize] = i as u32;
            self.sift_down(i);
            self.sift_up(i);
        }
    }

    /// Earliest instant first, then the lower flow id.
    fn before(a: (f64, u32), b: (f64, u32)) -> bool {
        a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
    }

    fn sift_up(&mut self, mut i: usize) {
        let e = self.entries[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::before(e, self.entries[parent]) {
                break;
            }
            self.entries[i] = self.entries[parent];
            self.pos[self.entries[i].1 as usize] = i as u32;
            i = parent;
        }
        self.entries[i] = e;
        self.pos[e.1 as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let e = self.entries[i];
        let n = self.entries.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && Self::before(self.entries[right], self.entries[left]) {
                right
            } else {
                left
            };
            if !Self::before(self.entries[child], e) {
                break;
            }
            self.entries[i] = self.entries[child];
            self.pos[self.entries[i].1 as usize] = i as u32;
            i = child;
        }
        self.entries[i] = e;
        self.pos[e.1 as usize] = i as u32;
    }
}

/// Materializes a flow's lazily-tracked remaining bytes at `now_s`.
///
/// Between rate changes a flow's remaining declines linearly, so one
/// multiply replaces the reference's per-event subtraction (the same series
/// summed in one step — the drift is pure floating-point association, far
/// inside the differential harness's 1e-9).
#[inline]
fn materialize(f: usize, now_s: f64, rate: f64, remaining: &mut [f64], touch_s: &mut [f64]) {
    let elapsed = now_s - touch_s[f];
    if elapsed > 0.0 && rate > 0.0 {
        remaining[f] = (remaining[f] - rate * elapsed).max(0.0);
    }
    touch_s[f] = now_s;
}

/// Links whose load or flow count moved since the last score update, in
/// the order they were first touched, with each link's position in that
/// order (`UNTOUCHED` otherwise). Step 2 re-tests exactly these links'
/// congestion flags, and orders score flips by the earliest touched link
/// on each flow's route.
struct Touched {
    links: Vec<u32>,
    pos: Vec<u32>,
}

impl Touched {
    const UNTOUCHED: u32 = u32::MAX;

    fn new(ndl: usize) -> Self {
        Touched {
            links: Vec::new(),
            pos: vec![Self::UNTOUCHED; ndl],
        }
    }

    fn touch(&mut self, l: usize) {
        if self.pos[l] == Self::UNTOUCHED {
            self.pos[l] = self.links.len() as u32;
            self.links.push(l as u32);
        }
    }

    fn clear(&mut self) {
        for &l in &self.links {
            self.pos[l as usize] = Self::UNTOUCHED;
        }
        self.links.clear();
    }
}

/// Releases a completed flow's contribution to the incrementally-maintained
/// link loads/counts, and marks the links so the next sparse refresh
/// re-tests their congestion flags.
fn release_completed(
    f: usize,
    route: &[u32],
    base_prev: &mut [f64],
    link_load: &mut [f64],
    link_flows: &mut [u32],
    touched: &mut Touched,
) {
    for &l in route {
        let l = l as usize;
        link_load[l] -= base_prev[f];
        link_flows[l] -= 1;
        touched.touch(l);
    }
    base_prev[f] = 0.0;
}

/// Static per-flow tables shared by both drain implementations.
struct Problem {
    /// Dense capacity table over links referenced by at least one flow.
    dense_capacity: Vec<f64>,
    /// Per-flow sorted, deduplicated dense link ids.
    dense_routes: Vec<Vec<u32>>,
    /// Per-flow sorted, deduplicated **original** link ids (byte accounting).
    orig_routes: Vec<Vec<u32>>,
    /// Sender port of each flow (first HostUp link on the route).
    src_port_of: Vec<Option<usize>>,
}

impl Problem {
    fn build(topo: &Topology, specs: &[FlowSpec]) -> Self {
        let nl = topo.num_links();
        let mut dense_of = vec![u32::MAX; nl];
        let mut dense_capacity: Vec<f64> = Vec::new();
        let mut dense_routes: Vec<Vec<u32>> = Vec::with_capacity(specs.len());
        let mut orig_routes: Vec<Vec<u32>> = Vec::with_capacity(specs.len());
        for s in specs {
            let mut orig: Vec<u32> = s.route.iter().map(|l| l.index() as u32).collect();
            orig.sort_unstable();
            orig.dedup();
            let mut dense: Vec<u32> = Vec::with_capacity(orig.len());
            for &l in &orig {
                if dense_of[l as usize] == u32::MAX {
                    dense_of[l as usize] = dense_capacity.len() as u32;
                    let link = topo.link(c4_topology::LinkId::from_index(l as usize));
                    dense_capacity.push(link.capacity().as_bytes_per_sec());
                }
                dense.push(dense_of[l as usize]);
            }
            dense.sort_unstable();
            dense_routes.push(dense);
            orig_routes.push(orig);
        }
        Problem {
            dense_capacity,
            dense_routes,
            orig_routes,
            src_port_of: sender_ports(topo, specs),
        }
    }
}

/// Sender port of each flow: the first HostUp link on its route.
fn sender_ports(topo: &Topology, specs: &[FlowSpec]) -> Vec<Option<usize>> {
    specs
        .iter()
        .map(|s| {
            s.route.iter().find_map(|&l| match topo.link(l).kind() {
                LinkKind::HostUp(p) => Some(p.index()),
                _ => None,
            })
        })
        .collect()
}

/// Drains `specs` over the topology's current link state.
///
/// Returns per-flow outcomes in spec order plus per-link byte counters and
/// CNP accounting. Deterministic for a given `rng` state, and equal (within
/// floating-point association) to [`drain_reference`] on the same inputs.
pub fn drain(
    topo: &Topology,
    specs: &[FlowSpec],
    cfg: &DrainConfig,
    rng: &mut DetRng,
) -> DrainReport {
    let nf = specs.len();
    let nl = topo.num_links();
    let p = Problem::build(topo, specs);
    let ndl = p.dense_capacity.len();

    let initial: Vec<f64> = specs.iter().map(|s| s.bytes.as_bytes() as f64).collect();
    let mut remaining = initial.clone();
    let mut finish: Vec<Option<SimTime>> = vec![None; nf];
    let mut min_rate = vec![f64::INFINITY; nf];
    let mut max_rate = vec![0.0_f64; nf];
    let mut congested_flags = vec![false; nf];

    // Flows with zero bytes complete instantly. Their min_rate keeps the
    // same "no moving rate observed" sentinel as stalled flows, so both
    // report Bandwidth::ZERO through one path.
    for f in 0..nf {
        if remaining[f] <= 0.0 {
            finish[f] = Some(cfg.start);
        }
    }

    let mut noise = Noise::new(cfg, nf);
    let mut cnp = cfg.cnp.map(|model| CnpEpisodes {
        model,
        since_s: vec![0.0; nf],
        accum: vec![0.0; topo.ports().len()],
    });
    let mut now = cfg.start;
    // Seconds since `cfg.start`, accumulated from the same raw `dt` chain
    // the byte accounting uses. (Deriving elapsed time from the quantized
    // `now` would lose up to half a nanosecond per event — enough to drift
    // completion times outside the differential tolerance.)
    let mut now_s = 0.0_f64;
    // The live flows in ascending order, plus completed entries not yet
    // compacted away (every pass skips them). Compaction waits until the
    // dead entries reach the live count, as `MaxMinState`'s dead-mass rule
    // does, so completions cost amortized O(1) here.
    let mut active: Vec<u32> = (0..nf as u32)
        .filter(|&f| finish[f as usize].is_none())
        .collect();
    let mut live = active.len();

    // The persistent base (unthrottled) allocation, perturbed only by flow
    // completions. Noise needs no second solver: a throttle only ever
    // applies to a congested flow — one crossing a saturated link it shares
    // with a competitor — and *every* flow crossing such a link is
    // congested, so the throttles cover all of a saturated link's
    // subscribers and the freed capacity has no taker. The capped max-min
    // allocation is therefore exactly `min(base, base·φ)` per flow:
    // throttled flows pin to `base·φ`, the rest stay at their private
    // bottlenecks. The differential harness holds this identity against the
    // reference's full capped re-solve at 1e-9.
    let mut base = MaxMinState::with_flows(&p.dense_capacity, &p.dense_routes);
    for (f, fin) in finish.iter().enumerate() {
        if fin.is_some() {
            base.remove_flow(f);
        }
    }

    // Incrementally-maintained derived state. `rate` is each flow's actual
    // (possibly throttled) rate; `touch_s` is when its `remaining` was last
    // materialized.
    let mut rate = vec![0.0_f64; nf];
    let mut touch_s = vec![0.0_f64; nf];
    let mut score = vec![0.0_f64; nf];
    let mut link_load = vec![0.0_f64; ndl];
    let mut link_flows = vec![0u32; ndl];
    // Congestion flags: `link_sat[l]` is `CnpModel::link_congested` for
    // link `l`, and `nsat[f]` counts the congested links on flow `f`'s
    // route, so a flow's score is `nsat > 0`.
    let mut link_sat = vec![false; ndl];
    let mut nsat = vec![0u32; nf];
    // Flows whose base rate or score moved this event, and their mask.
    let mut moved: Vec<u32> = Vec::new();
    let mut in_moved = vec![false; nf];
    // Flows whose rate was set this event (they need exact per-event
    // remaining/dt bookkeeping; everything else rides the heap).
    let mut scan: Vec<usize> = Vec::new();
    // Flows that completed this event.
    let mut done: Vec<usize> = Vec::new();
    let mut heap = CompletionHeap::new(nf);
    let cnp_model = cfg.cnp.unwrap_or_default();
    let mut events = 0u64;
    let mut batched_instants = 0u64;
    let mut batched_completions = 0u64;
    // Sparse bookkeeping: `base_prev` mirrors the base rate each active
    // flow last contributed to `link_load`, so a sparse refresh can apply
    // per-flow deltas instead of rebuilding loads; `touched` tracks the
    // links those deltas (and completion-time releases) moved, the only
    // links whose congestion flag can flip.
    let mut base_prev = vec![0.0_f64; nf];
    let mut touched = Touched::new(ndl);

    while live > 0 {
        if let Some(deadline) = cfg.deadline {
            if now >= deadline {
                break;
            }
        }
        events += 1;

        // 1. Bring the base allocation up to date: the solver propagates
        //    the last event's completions through its worklist.
        let scope = base.refresh();
        let base_rates = base.current_rates();

        // 2. Refresh link loads/counts for exactly the flows the solver
        //    re-rated, then the congestion flags of the links that moved,
        //    and collect the flows whose base rate or score moved.
        moved.clear();
        match scope {
            SolveScope::Unchanged => {}
            SolveScope::Full => {
                link_load.fill(0.0);
                link_flows.fill(0);
                for &f in &active {
                    if finish[f as usize].is_none() {
                        for &l in &p.dense_routes[f as usize] {
                            link_load[l as usize] += base_rates[f as usize];
                            link_flows[l as usize] += 1;
                        }
                        moved.push(f);
                    }
                }
                // Loads were rebuilt wholesale — the delta mirror and the
                // flags restart from the fresh base rates.
                touched.clear();
                base_prev.fill(0.0);
                for (l, sat) in link_sat.iter_mut().enumerate() {
                    *sat =
                        cnp_model.link_congested(link_load[l], p.dense_capacity[l], link_flows[l]);
                }
                for &f in &moved {
                    let f = f as usize;
                    base_prev[f] = base_rates[f];
                    nsat[f] = p.dense_routes[f]
                        .iter()
                        .filter(|&&l| link_sat[l as usize])
                        .count() as u32;
                }
            }
            SolveScope::Sparse => {
                // Only `changed_flows` moved. Apply their rate deltas to the
                // link loads in place (completed flows already released
                // theirs in step 6).
                for &f in base.changed_flows() {
                    let fu = f as usize;
                    if finish[fu].is_some() {
                        continue;
                    }
                    let delta = base_rates[fu] - base_prev[fu];
                    if delta != 0.0 {
                        for &l in &p.dense_routes[fu] {
                            link_load[l as usize] += delta;
                            touched.touch(l as usize);
                        }
                        base_prev[fu] = base_rates[fu];
                    }
                    moved.push(f);
                    in_moved[fu] = true;
                }
                // Re-test the touched links; a flipped flag moves the
                // congested-link count of every live subscriber, and a
                // count crossing zero may flip that flow's score.
                let changed = moved.len();
                for &l in &touched.links {
                    let l = l as usize;
                    let sat =
                        cnp_model.link_congested(link_load[l], p.dense_capacity[l], link_flows[l]);
                    if sat == link_sat[l] {
                        continue;
                    }
                    link_sat[l] = sat;
                    for &f in base.subscribers(l) {
                        let fu = f as usize;
                        if finish[fu].is_some() {
                            continue;
                        }
                        if sat {
                            nsat[fu] += 1;
                        } else {
                            nsat[fu] -= 1;
                        }
                        if !in_moved[fu] && (nsat[fu] > 0) != (score[fu] > 0.0) {
                            in_moved[fu] = true;
                            moved.push(f);
                        }
                    }
                }
                // Keep the flows whose score really flipped (a count may
                // cross zero and back), ordered as a scan of the touched
                // links' subscribers reaches them: by the earliest touched
                // link on the route, then by flow id. That order fixes the
                // CNP flushes and re-rates below, and so the association
                // of every per-port CNP sum and link-load update.
                for &f in &moved {
                    in_moved[f as usize] = false;
                }
                let mut kept = changed;
                for i in changed..moved.len() {
                    let f = moved[i] as usize;
                    if (nsat[f] > 0) != (score[f] > 0.0) {
                        moved[kept] = f as u32;
                        kept += 1;
                    }
                }
                moved.truncate(kept);
                let first_touch = |f: u32| {
                    p.dense_routes[f as usize]
                        .iter()
                        .map(|&l| touched.pos[l as usize])
                        .min()
                };
                moved[changed..].sort_unstable_by_key(|&f| (first_touch(f), f));
                touched.clear();
            }
        }
        for &f in &moved {
            let f = f as usize;
            let s = if nsat[f] > 0 { 1.0 } else { 0.0 };
            debug_assert_eq!(
                s,
                cnp_model.flow_score(
                    &p.dense_routes[f],
                    &link_load,
                    &p.dense_capacity,
                    &link_flows
                ),
                "flag-derived score of flow {f}"
            );
            if s != score[f] {
                if let Some(c) = &mut cnp {
                    c.flush(f, p.src_port_of[f], now_s, score[f], noise.jitter[f]);
                }
                score[f] = s;
                congested_flags[f] |= s > 0.0;
            }
        }

        // 3. Rate updates. At a grid instant every active flow redraws, in
        //    ascending order (the reference's draw order), closing its CNP
        //    episode at the old jitter first, and every flow re-rates;
        //    between instants only the moved flows can change rate. A flow
        //    whose new rate is bit-identical keeps its completion-heap
        //    entry.
        let redraw = noise.redraw_due(now_s);
        if redraw {
            for &f in &active {
                let f = f as usize;
                if finish[f].is_none() {
                    if let Some(c) = &mut cnp {
                        c.flush(f, p.src_port_of[f], now_s, score[f], noise.jitter[f]);
                    }
                    noise.draw(f, rng);
                }
            }
        }
        scan.clear();
        let rerate = if redraw { &active } else { &moved };
        for &f in rerate {
            let f = f as usize;
            if finish[f].is_some() {
                continue;
            }
            let nr = noise.rate(f, base_rates[f], score[f]);
            if nr.to_bits() != rate[f].to_bits() {
                materialize(f, now_s, rate[f], &mut remaining, &mut touch_s);
                heap.remove(f);
                rate[f] = nr;
                scan.push(f);
            }
        }

        // 4. Time to next event: earliest completion (re-rated flows by
        //    direct scan, stable flows from the heap), then the grid-instant
        //    and deadline clamps.
        let mut dt = f64::INFINITY;
        for &f in &scan {
            if rate[f] > STALL_RATE {
                dt = dt.min(remaining[f] / rate[f]);
            }
        }
        while let Some((t_zero, f)) = heap.peek() {
            let heap_dt = t_zero - now_s;
            if heap_dt > 0.0 {
                dt = dt.min(heap_dt);
                break;
            }
            // Degenerate rounding: in a very long drain the absolute
            // instants can sit within one ulp of `now_s`, collapsing the
            // difference to ≤ 0 while bytes remain (which would end the
            // drain early through the `dt <= 0` guard below). Fall back to
            // the always-positive relative form, exactly as the reference
            // computes it, and track the flow by direct scan this event.
            heap.remove(f);
            materialize(f, now_s, rate[f], &mut remaining, &mut touch_s);
            if rate[f] > STALL_RATE {
                dt = dt.min(remaining[f] / rate[f]);
            }
            scan.push(f);
        }
        if !dt.is_finite() {
            // Every remaining flow is at (effectively) zero rate. Whether
            // that is permanent is decided by the *unthrottled* base
            // allocation: noise only multiplies it by φ ≤ 1, so a base rate
            // at or below the stall floor can never be revived by a redraw
            // — but a base rate just above the floor can be throttled under
            // it until the next grid instant. Only when no base rate clears
            // the floor do we end the drain with a stalled report (waiting
            // out a deadline instant by instant would spin through millions
            // of no-op events); otherwise step to the grid instant and
            // redraw.
            let revivable = noise.enabled()
                && active
                    .iter()
                    .any(|&f| finish[f as usize].is_none() && base_rates[f as usize] > STALL_RATE);
            if !revivable {
                break;
            }
        }
        let (dt, next_s) = noise.clamp_step(dt, now_s, now, cfg.deadline);
        if !dt.is_finite() || dt <= 0.0 {
            break;
        }

        // 5. Advance.
        for &f in &scan {
            remaining[f] = (remaining[f] - rate[f] * dt).max(0.0);
            touch_s[f] = next_s;
            if rate[f] > STALL_RATE {
                min_rate[f] = min_rate[f].min(rate[f]);
                max_rate[f] = max_rate[f].max(rate[f]);
            }
        }
        now_s = next_s;
        now += SimDuration::from_secs_f64(dt);

        // 6. Completions (one-byte tolerance): re-rated flows by direct
        //    check, stable flows by popping every heap entry now due. A
        //    batch completing at one instant issues its removals together,
        //    so the solver propagates them once next event.
        done.clear();
        for &f in &scan {
            if remaining[f] <= 1.0 && finish[f].is_none() {
                finish[f] = Some(now);
                done.push(f);
            }
        }
        while let Some((t_zero, f)) = heap.peek() {
            // An entry is due once the flow is inside the one-byte
            // tolerance, which precedes its zero instant by 1/rate.
            if t_zero - 1.0 / rate[f] > now_s {
                break;
            }
            heap.remove(f);
            materialize(f, now_s, rate[f], &mut remaining, &mut touch_s);
            if remaining[f] <= 1.0 {
                // min/max folds happened when this rate episode began.
                finish[f] = Some(now);
                done.push(f);
            } else {
                // Floating-point shy of the tolerance: re-arm.
                heap.push(f, now_s + remaining[f] / rate[f]);
            }
        }
        for &f in &done {
            base.remove_flow(f);
            if let Some(c) = &mut cnp {
                c.flush(f, p.src_port_of[f], now_s, score[f], noise.jitter[f]);
            }
            release_completed(
                f,
                &p.dense_routes[f],
                &mut base_prev,
                &mut link_load,
                &mut link_flows,
                &mut touched,
            );
        }

        // 7. Re-arm completion events for this event's re-rated movers, and
        //    retire the completed flows from the active list.
        for &f in &scan {
            if finish[f].is_none() && rate[f] > STALL_RATE {
                heap.push(f, now_s + remaining[f] / rate[f]);
            }
        }
        if !done.is_empty() {
            live -= done.len();
            if active.len() - live >= live {
                active.retain(|&f| finish[f as usize].is_none());
            }
            if done.len() >= 2 {
                batched_instants += 1;
                batched_completions += done.len() as u64 - 1;
            }
        }
    }

    // Materialize the survivors' lazily-tracked remaining bytes, so the
    // byte accounting below sees the full elapsed drain, and close their
    // open CNP episodes at the drain end.
    for &f in &active {
        let f = f as usize;
        if finish[f].is_none() {
            materialize(f, now_s, rate[f], &mut remaining, &mut touch_s);
            if let Some(c) = &mut cnp {
                c.flush(f, p.src_port_of[f], now_s, score[f], noise.jitter[f]);
            }
        }
    }

    // Per-link byte accounting: every link on a flow's route carried
    // exactly the bytes the flow moved, so one pass at the end replaces the
    // reference's per-event accumulation (summing the same series).
    let mut link_bytes = vec![0.0_f64; nl];
    for f in 0..nf {
        let moved = initial[f] - remaining[f];
        if moved > 0.0 {
            for &l in &p.orig_routes[f] {
                link_bytes[l as usize] += moved;
            }
        }
    }

    let solver = DrainSolverStats {
        events,
        flows: nf as u64,
        full_solves: base.full_solves(),
        component_solves: 0,
        sparse_solves: base.sparse_solves(),
        spine_rounds: base.spine_rounds(),
        spine_link_updates: base.spine_link_updates(),
        fallback_solves: base.fallback_solves(),
        batched_instants,
        batched_completions,
        arena_hwm_bytes: base.arena_hwm_bytes() as u64,
    };

    finalize_report(
        specs,
        cfg,
        now,
        finish,
        min_rate,
        max_rate,
        link_bytes,
        cnp.map_or_else(|| vec![0.0; topo.ports().len()], |c| c.accum),
        congested_flags,
        solver,
    )
}

/// Drains `specs` with the retained from-scratch solver (the differential
/// reference): the full max-min allocation is recomputed at every event.
///
/// Semantics and RNG consumption match [`drain`]; only the solver strategy
/// differs. Kept for the differential harness and solver benchmarks — new
/// callers should use [`drain`].
pub fn drain_reference(
    topo: &Topology,
    specs: &[FlowSpec],
    cfg: &DrainConfig,
    rng: &mut DetRng,
) -> DrainReport {
    let nf = specs.len();
    let nl = topo.num_links();
    let capacity: Vec<f64> = (0..nl)
        .map(|l| {
            topo.link(c4_topology::LinkId::from_index(l))
                .capacity()
                .as_bytes_per_sec()
        })
        .collect();
    let routes: Vec<Vec<u32>> = specs
        .iter()
        .map(|s| s.route.iter().map(|l| l.index() as u32).collect())
        .collect();
    let src_port_of = sender_ports(topo, specs);

    let mut remaining: Vec<f64> = specs.iter().map(|s| s.bytes.as_bytes() as f64).collect();
    let mut finish: Vec<Option<SimTime>> = vec![None; nf];
    let mut min_rate = vec![f64::INFINITY; nf];
    let mut max_rate = vec![0.0_f64; nf];
    let mut link_bytes = vec![0.0_f64; nl];
    let mut cnp_accum = vec![0.0_f64; topo.ports().len()];
    let mut congested_flags = vec![false; nf];

    // Instantly-completed zero-byte flows keep the same "no moving rate
    // observed" min_rate sentinel as stalled flows (both report ZERO).
    for f in 0..nf {
        if remaining[f] <= 0.0 {
            finish[f] = Some(cfg.start);
        }
    }

    let mut noise = Noise::new(cfg, nf);
    let cnp_model = cfg.cnp.unwrap_or_default();
    let mut now = cfg.start;
    let mut now_s = 0.0_f64;
    let mut active: Vec<usize> = (0..nf).filter(|&f| finish[f].is_none()).collect();
    let mut events = 0u64;
    let mut full_solves = 0u64;

    while !active.is_empty() {
        if let Some(deadline) = cfg.deadline {
            if now >= deadline {
                break;
            }
        }
        events += 1;

        // Base max-min allocation over the active flows.
        let act_routes: Vec<Vec<u32>> = active.iter().map(|&f| routes[f].clone()).collect();
        let mut rates = maxmin::solve(&capacity, &act_routes, None);
        full_solves += 1;

        // Identify sharing pressure for noise/CNP.
        let mut link_load = vec![0.0_f64; nl];
        let mut link_flows = vec![0u32; nl];
        for (i, r) in act_routes.iter().enumerate() {
            let mut ls = r.clone();
            ls.sort_unstable();
            ls.dedup();
            for &l in &ls {
                link_load[l as usize] += rates[i];
                link_flows[l as usize] += 1;
            }
        }
        let scores: Vec<f64> = act_routes
            .iter()
            .map(|r| cnp_model.flow_score(r, &link_load, &capacity, &link_flows))
            .collect();

        // Noise: every active flow redraws at a grid instant; congested
        // flows are then throttled through a full capped re-solve.
        if noise.redraw_due(now_s) {
            for &f in &active {
                noise.draw(f, rng);
            }
        }
        // Whether any *base* allocation clears the stall floor — recorded
        // before the capped re-solve overwrites `rates`, because the stall
        // decision below must look through the throttles.
        let base_moving = rates.iter().any(|&r| r > STALL_RATE);
        if cfg.rate_noise > 0.0 {
            let caps: Vec<f64> = active
                .iter()
                .zip(rates.iter().zip(&scores))
                .map(|(&f, (&r, &s))| {
                    if s > 0.0 {
                        noise.rate(f, r, s)
                    } else {
                        f64::INFINITY
                    }
                })
                .collect();
            rates = maxmin::solve(&capacity, &act_routes, Some(&caps));
            full_solves += 1;
        }

        for (i, &f) in active.iter().enumerate() {
            if scores[i] > 0.0 {
                congested_flags[f] = true;
            }
        }

        // Time to next event: earliest completion, then the grid-instant
        // and deadline clamps.
        let mut dt = f64::INFINITY;
        for (i, &f) in active.iter().enumerate() {
            if rates[i] > STALL_RATE {
                dt = dt.min(remaining[f] / rates[i]);
            }
        }
        if !dt.is_finite() {
            // All-stalled: permanent only if no *base* rate clears the stall
            // floor — a throttle multiplies the allocation by φ ≤ 1, so a
            // zero base rate stays zero, but a base rate just above the
            // floor can dip under it until the next grid instant. Mirrors
            // the event-driven loop's termination exactly.
            let revivable = noise.enabled() && base_moving;
            if !revivable {
                break;
            }
        }
        let (dt, next_s) = noise.clamp_step(dt, now_s, now, cfg.deadline);
        if !dt.is_finite() || dt <= 0.0 {
            break;
        }

        // Advance.
        if cfg.cnp.is_some() {
            for (i, &f) in active.iter().enumerate() {
                if let Some(port) = src_port_of[f] {
                    cnp_accum[port] += cnp_model.cnp_rate(scores[i], noise.jitter[f]) * dt;
                }
            }
        }
        for (i, &f) in active.iter().enumerate() {
            let moved = rates[i] * dt;
            remaining[f] = (remaining[f] - moved).max(0.0);
            if rates[i] > STALL_RATE {
                min_rate[f] = min_rate[f].min(rates[i]);
                max_rate[f] = max_rate[f].max(rates[i]);
            }
            let mut ls = routes[f].clone();
            ls.sort_unstable();
            ls.dedup();
            for l in ls {
                link_bytes[l as usize] += moved;
            }
        }
        now_s = next_s;
        now += SimDuration::from_secs_f64(dt);
        for &f in &active {
            if remaining[f] <= 1.0 && finish[f].is_none() {
                finish[f] = Some(now);
            }
        }
        active.retain(|&f| finish[f].is_none());
    }

    finalize_report(
        specs,
        cfg,
        now,
        finish,
        min_rate,
        max_rate,
        link_bytes,
        cnp_accum,
        congested_flags,
        DrainSolverStats {
            events,
            flows: nf as u64,
            full_solves,
            ..DrainSolverStats::default()
        },
    )
}

/// Assembles the [`DrainReport`] from the loop's accumulators (shared by
/// both implementations).
#[allow(clippy::too_many_arguments)]
fn finalize_report(
    specs: &[FlowSpec],
    cfg: &DrainConfig,
    now: SimTime,
    finish: Vec<Option<SimTime>>,
    min_rate: Vec<f64>,
    max_rate: Vec<f64>,
    link_bytes: Vec<f64>,
    cnp_accum: Vec<f64>,
    congested_flags: Vec<bool>,
    solver: DrainSolverStats,
) -> DrainReport {
    let end = finish
        .iter()
        .flatten()
        .copied()
        .max()
        .unwrap_or(now)
        .max(now.min(cfg.deadline.unwrap_or(now)));

    let span = (end - cfg.start).as_secs_f64().max(1e-12);
    let cnp_per_port: Arc<[f64]> = cnp_accum.iter().map(|c| c / span).collect();

    let outcomes = specs
        .iter()
        .enumerate()
        .map(|(f, s)| {
            let mean = match finish[f] {
                Some(t) => {
                    let secs = (t - cfg.start).as_secs_f64();
                    if secs > 0.0 {
                        Bandwidth::from_bps(s.bytes.as_bytes() as f64 * 8.0 / secs)
                    } else {
                        Bandwidth::ZERO
                    }
                }
                None => Bandwidth::ZERO,
            };
            FlowOutcome {
                key: s.key,
                bytes: s.bytes,
                start: cfg.start,
                finish: finish[f],
                mean_rate: mean,
                min_rate: if min_rate[f].is_finite() {
                    Bandwidth::from_bps(min_rate[f] * 8.0)
                } else {
                    Bandwidth::ZERO
                },
                max_rate: Bandwidth::from_bps(max_rate[f] * 8.0),
            }
        })
        .collect();

    DrainReport {
        outcomes,
        end,
        link_bytes: link_bytes.into(),
        cnp_per_port,
        congested_flows: congested_flags.iter().filter(|c| **c).count(),
        solver,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowKey;
    use c4_simcore::ByteSize;
    use c4_topology::{ClosConfig, NodeId, PortSide};

    fn topo() -> Topology {
        Topology::build(&ClosConfig::testbed_128())
    }

    fn key(src: usize, dst: usize, qp: u16) -> FlowKey {
        FlowKey {
            src_gpu: c4_topology::GpuId::from_index(src),
            dst_gpu: c4_topology::GpuId::from_index(dst),
            comm: 1,
            channel: 0,
            qp,
            incarnation: 0,
        }
    }

    /// Route gpu0@node0 → gpu0@node1, both left ports (same leaf).
    fn simple_route(t: &Topology) -> Vec<c4_topology::LinkId> {
        let a = t.gpu_at(NodeId::from_index(0), 0);
        let b = t.gpu_at(NodeId::from_index(1), 0);
        let pa = t.port_of_gpu(a, PortSide::Left);
        let pb = t.port_of_gpu(b, PortSide::Left);
        t.inter_node_route(a, pa, None, pb, b)
    }

    /// Two flows from node0 and node2 into one receive port on node1: both
    /// are congested while both are active.
    fn shared_rx_specs(t: &Topology, a_bytes: ByteSize, b_bytes: ByteSize) -> Vec<FlowSpec> {
        let a = t.gpu_at(NodeId::from_index(0), 0);
        let b = t.gpu_at(NodeId::from_index(2), 0);
        let dst = t.gpu_at(NodeId::from_index(1), 0);
        let pd = t.port_of_gpu(dst, PortSide::Left);
        let ra = t.inter_node_route(a, t.port_of_gpu(a, PortSide::Left), None, pd, dst);
        let rb = t.inter_node_route(b, t.port_of_gpu(b, PortSide::Left), None, pd, dst);
        vec![
            FlowSpec::new(key(0, 8, 0), a_bytes, ra),
            FlowSpec::new(key(16, 8, 1), b_bytes, rb),
        ]
    }

    /// Single flows from `node0 + i` to `node1 + i` on GPU `gpu`, each alone
    /// on its ports (sharing no link with any other flow), sized `sizes[i]`.
    fn lone_specs(
        t: &Topology,
        node0: usize,
        node1: usize,
        gpu: usize,
        sizes: &[ByteSize],
    ) -> Vec<FlowSpec> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &bytes)| {
                let a = t.gpu_at(NodeId::from_index(node0 + i), gpu);
                let b = t.gpu_at(NodeId::from_index(node1 + i), gpu);
                let pa = t.port_of_gpu(a, PortSide::Left);
                let pb = t.port_of_gpu(b, PortSide::Left);
                let route = t.inter_node_route(a, pa, None, pb, b);
                FlowSpec::new(key(a.index(), b.index(), 0), bytes, route)
            })
            .collect()
    }

    type DrainFn = fn(&Topology, &[FlowSpec], &DrainConfig, &mut DetRng) -> DrainReport;

    /// Both implementations: one noise model for the two.
    fn every_drain(cfg: &DrainConfig) -> [(&'static str, DrainFn, DrainConfig); 2] {
        [
            ("drain", drain, cfg.clone()),
            ("reference", drain_reference, cfg.clone()),
        ]
    }

    #[test]
    fn single_flow_gets_port_bandwidth() {
        let t = topo();
        let spec = FlowSpec::new(key(0, 8, 0), ByteSize::from_gib(1), simple_route(&t));
        let mut rng = DetRng::seed_from(1);
        let report = drain(&t, &[spec], &DrainConfig::default(), &mut rng);
        assert!(report.all_completed());
        let o = &report.outcomes[0];
        // Bottleneck is the 200 Gbps port.
        assert!(
            (o.mean_rate.as_gbps() - 200.0).abs() < 1.0,
            "{}",
            o.mean_rate
        );
    }

    #[test]
    fn two_flows_share_receive_port() {
        let t = topo();
        // Two flows into the same destination port → 100 Gbps each.
        let specs = shared_rx_specs(&t, ByteSize::from_gib(1), ByteSize::from_gib(1));
        let mut rng = DetRng::seed_from(2);
        let report = drain(&t, &specs, &DrainConfig::default(), &mut rng);
        assert!(report.all_completed());
        for o in &report.outcomes {
            assert!(
                (o.mean_rate.as_gbps() - 100.0).abs() < 1.0,
                "{}",
                o.mean_rate
            );
        }
    }

    #[test]
    fn down_link_stalls_flow() {
        let mut t = topo();
        let route = simple_route(&t);
        // Kill the host uplink on the route.
        let up = route[1];
        t.link_mut(up).set_up(false);
        let spec = FlowSpec::new(key(0, 8, 0), ByteSize::from_mib(64), route);
        let mut rng = DetRng::seed_from(3);
        let cfg = DrainConfig {
            deadline: Some(SimTime::from_secs(5)),
            ..DrainConfig::default()
        };
        let report = drain(&t, &[spec], &cfg, &mut rng);
        assert!(!report.all_completed());
        assert_eq!(report.stalled(), vec![0]);
        assert_eq!(report.outcomes[0].mean_rate, Bandwidth::ZERO);
    }

    #[test]
    fn stalled_without_deadline_returns_immediately() {
        let mut t = topo();
        let route = simple_route(&t);
        t.link_mut(route[1]).set_up(false);
        let spec = FlowSpec::new(key(0, 8, 0), ByteSize::from_mib(64), route);
        let mut rng = DetRng::seed_from(4);
        let report = drain(&t, &[spec], &DrainConfig::default(), &mut rng);
        assert!(!report.all_completed());
    }

    /// Regression (PR 1 open item): a fully dead port used to hang a *noisy*
    /// drain. With `rate_noise`/CNP enabled the loop kept stepping from one
    /// noise instant to the next even though every remaining flow sat at
    /// zero rate — a throttle multiplies the allocation by a factor ≤ 1, so
    /// a stalled flow can never revive. Without a deadline that spun
    /// forever; with a far deadline it stepped hundreds of millions of no-op
    /// epochs. Both must now end at the stall instant with a stalled report.
    #[test]
    fn noisy_stalled_drain_ends_without_deadline() {
        let mut t = topo();
        let route = simple_route(&t);
        t.link_mut(route[1]).set_up(false);
        let spec = FlowSpec::new(key(0, 8, 0), ByteSize::from_mib(64), route);
        let cfg = DrainConfig {
            rate_noise: 0.10,
            cnp: Some(CnpModel::default()),
            ..DrainConfig::default() // NO deadline
        };
        let mut rng = DetRng::seed_from(4);
        let report = drain(&t, std::slice::from_ref(&spec), &cfg, &mut rng);
        assert!(!report.all_completed());
        assert_eq!(report.stalled(), vec![0]);
        assert_eq!(report.end, SimTime::ZERO);

        // The reference implementation terminates identically.
        let mut rng = DetRng::seed_from(4);
        let reference = drain_reference(&t, &[spec], &cfg, &mut rng);
        assert!(!reference.all_completed());
        assert_eq!(reference.end, SimTime::ZERO);
    }

    #[test]
    fn noisy_stalled_drain_ends_at_stall_instant_not_deadline() {
        // A month-scale deadline at a 10 ms epoch is ~2.6e8 events — the
        // pre-fix loop would walk every one of them. The drain must instead
        // report the stall the moment no flow can move.
        let mut t = topo();
        let route = simple_route(&t);
        t.link_mut(route[1]).set_up(false);
        let spec = FlowSpec::new(key(0, 8, 0), ByteSize::from_mib(64), route);
        let cfg = DrainConfig {
            rate_noise: 0.10,
            cnp: Some(CnpModel::default()),
            deadline: Some(SimTime::from_secs(30 * 24 * 3600)),
            ..DrainConfig::default()
        };
        let mut rng = DetRng::seed_from(4);
        let report = drain(&t, &[spec], &cfg, &mut rng);
        assert!(!report.all_completed());
        assert_eq!(report.stalled(), vec![0]);
        assert_eq!(report.end, SimTime::ZERO);
        assert_eq!(report.outcomes[0].mean_rate, Bandwidth::ZERO);
    }

    #[test]
    fn zero_byte_flow_completes_instantly() {
        let t = topo();
        let spec = FlowSpec::new(key(0, 8, 0), ByteSize::ZERO, simple_route(&t));
        let mut rng = DetRng::seed_from(5);
        let report = drain(&t, &[spec], &DrainConfig::default(), &mut rng);
        assert!(report.all_completed());
        assert_eq!(report.outcomes[0].finish, Some(SimTime::ZERO));
    }

    #[test]
    fn zero_byte_and_stalled_flows_share_the_no_rate_sentinel() {
        // Regression: instantly-completed zero-byte flows used to write an
        // explicit `min_rate = 0.0` while never-started stalled flows kept
        // the INFINITY "nothing observed" sentinel — two representations
        // for the same fact. Both paths are unified: any flow that never
        // moved reports ZERO min/max/mean rate, in both implementations.
        let mut t = topo();
        let live_route = simple_route(&t);
        let mut dead_route = live_route.clone();
        dead_route[1] = {
            // A second rail's uplink, killed below.
            let g = t.gpu_at(NodeId::from_index(0), 1);
            let port = t.port_of_gpu(g, PortSide::Left);
            t.port(port).host_up
        };
        t.link_mut(dead_route[1]).set_up(false);
        let specs = vec![
            FlowSpec::new(key(0, 8, 0), ByteSize::ZERO, live_route.clone()),
            FlowSpec::new(key(1, 9, 0), ByteSize::from_mib(64), dead_route),
            FlowSpec::new(key(0, 8, 1), ByteSize::from_mib(64), live_route),
        ];
        let cfg = DrainConfig {
            deadline: Some(SimTime::from_secs(1)),
            ..DrainConfig::default()
        };
        for (name, report) in [
            ("drain", drain(&t, &specs, &cfg, &mut DetRng::seed_from(6))),
            (
                "reference",
                drain_reference(&t, &specs, &cfg, &mut DetRng::seed_from(6)),
            ),
        ] {
            let zero_byte = &report.outcomes[0];
            let stalled = &report.outcomes[1];
            let moving = &report.outcomes[2];
            assert!(zero_byte.completed() && !stalled.completed(), "{name}");
            assert_eq!(zero_byte.min_rate, Bandwidth::ZERO, "{name}: zero-byte");
            assert_eq!(zero_byte.max_rate, Bandwidth::ZERO, "{name}: zero-byte");
            assert_eq!(stalled.min_rate, Bandwidth::ZERO, "{name}: stalled");
            assert_eq!(stalled.max_rate, Bandwidth::ZERO, "{name}: stalled");
            assert_eq!(
                zero_byte.min_rate, stalled.min_rate,
                "{name}: one sentinel for 'never moved'"
            );
            assert!(moving.min_rate > Bandwidth::ZERO, "{name}: mover");
        }
    }

    #[test]
    fn link_bytes_account_for_traffic() {
        let t = topo();
        let route = simple_route(&t);
        let bytes = ByteSize::from_mib(256);
        let spec = FlowSpec::new(key(0, 8, 0), bytes, route.clone());
        let mut rng = DetRng::seed_from(6);
        let report = drain(&t, &[spec], &DrainConfig::default(), &mut rng);
        for l in route {
            let carried = report.link_bytes[l.index()];
            assert!(
                (carried - bytes.as_bytes() as f64).abs() < 2.0,
                "link {l} carried {carried}"
            );
        }
    }

    #[test]
    fn cnp_emitted_only_under_shared_saturation() {
        let t = topo();
        // Single flow: saturated but unshared → no CNPs.
        let spec = FlowSpec::new(key(0, 8, 0), ByteSize::from_gib(1), simple_route(&t));
        let mut rng = DetRng::seed_from(7);
        let cfg = DrainConfig {
            cnp: Some(CnpModel::paper_default()),
            rate_noise: 0.1,
            ..DrainConfig::default()
        };
        let report = drain(&t, &[spec], &cfg, &mut rng);
        assert!(report.cnp_per_port.iter().all(|&c| c == 0.0));
        assert_eq!(report.congested_flows, 0);

        // Two flows sharing an rx port → CNPs on both sender ports.
        let specs = shared_rx_specs(&t, ByteSize::from_gib(1), ByteSize::from_gib(1));
        let mut rng = DetRng::seed_from(8);
        let report = drain(&t, &specs, &cfg, &mut rng);
        assert_eq!(report.congested_flows, 2);
        let nonzero: Vec<f64> = report
            .cnp_per_port
            .iter()
            .copied()
            .filter(|&c| c > 0.0)
            .collect();
        assert_eq!(nonzero.len(), 2);
        for c in nonzero {
            assert!((10_000.0..=20_000.0).contains(&c), "cnp rate {c}");
        }
    }

    #[test]
    fn noise_reduces_rates_slightly() {
        let t = topo();
        let specs = shared_rx_specs(&t, ByteSize::from_gib(1), ByteSize::from_gib(1));
        let mut rng = DetRng::seed_from(9);
        let cfg = DrainConfig {
            rate_noise: 0.2,
            ..DrainConfig::default()
        };
        let report = drain(&t, &specs, &cfg, &mut rng);
        assert!(report.all_completed());
        for o in &report.outcomes {
            let g = o.mean_rate.as_gbps();
            assert!((80.0..100.0).contains(&g), "noisy rate {g}");
        }
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let t = topo();
        let specs = vec![FlowSpec::new(
            key(0, 8, 0),
            ByteSize::from_gib(1),
            simple_route(&t),
        )];
        let cfg = DrainConfig {
            rate_noise: 0.15,
            cnp: Some(CnpModel::paper_default()),
            ..DrainConfig::default()
        };
        let mut r1 = DetRng::seed_from(77);
        let mut r2 = DetRng::seed_from(77);
        let a = drain(&t, &specs, &cfg, &mut r1);
        let b = drain(&t, &specs, &cfg, &mut r2);
        assert_eq!(a.outcomes[0].finish, b.outcomes[0].finish);
        assert_eq!(a.cnp_per_port, b.cnp_per_port);
    }

    #[test]
    fn incremental_matches_reference_on_a_noisy_shared_drain() {
        let t = topo();
        let specs = shared_rx_specs(&t, ByteSize::from_gib(1), ByteSize::from_mib(700));
        let cfg = DrainConfig {
            rate_noise: 0.15,
            cnp: Some(CnpModel::paper_default()),
            ..DrainConfig::default()
        };
        let mut r1 = DetRng::seed_from(99);
        let mut r2 = DetRng::seed_from(99);
        let inc = drain(&t, &specs, &cfg, &mut r1);
        let reference = drain_reference(&t, &specs, &cfg, &mut r2);
        for (x, y) in inc.outcomes.iter().zip(&reference.outcomes) {
            let (fx, fy) = (x.finish.unwrap(), y.finish.unwrap());
            let d = (fx - fy.min(fx)).as_secs_f64() + (fy - fx.min(fy)).as_secs_f64();
            assert!(d < 1e-9, "finish {fx} vs {fy}");
        }
        assert_eq!(inc.congested_flows, reference.congested_flows);
    }

    /// The RNG advances only at noise-grid instants: by exactly the flows
    /// active at each instant times the draws per flow (φ, then the CNP
    /// jitter), however many completions fall in between.
    #[test]
    fn rng_advances_only_at_grid_instants() {
        let t = topo();
        // A congested pair plus lone flows whose completions land between
        // grid instants.
        let mut specs = shared_rx_specs(&t, ByteSize::from_mib(900), ByteSize::from_mib(500));
        let sizes: Vec<ByteSize> = (0..6).map(|i| ByteSize::from_mib(40 + 70 * i)).collect();
        specs.extend(lone_specs(&t, 3, 9, 1, &sizes));
        let cfg = DrainConfig {
            epoch: SimDuration::from_millis(3),
            rate_noise: 0.2,
            cnp: Some(CnpModel::paper_default()),
            ..DrainConfig::default()
        };
        for (name, run, cfg) in every_drain(&cfg) {
            let mut rng = DetRng::seed_from(21);
            let report = run(&t, &specs, &cfg, &mut rng);
            assert!(report.all_completed(), "{name}");
            // The flows active at grid instant k are those finishing after
            // it (finish instants sit on a ns grid; none lands within 100 ns
            // after a grid instant here).
            let epoch = cfg.epoch.as_secs_f64();
            let finish_s: Vec<f64> = report
                .outcomes
                .iter()
                .map(|o| (o.finish.unwrap() - SimTime::ZERO).as_secs_f64())
                .collect();
            let (mut draws, mut instants) = (0usize, 0u64);
            loop {
                let grid_s = instants as f64 * epoch;
                let active = finish_s.iter().filter(|&&s| s > grid_s + 1e-7).count();
                if active == 0 {
                    break;
                }
                draws += 2 * active;
                instants += 1;
            }
            assert!(instants >= 5, "{name}: {instants} grid instants");
            assert!(
                report.solver.events >= instants + 6,
                "{name}: completions must fall between grid instants"
            );
            let mut expected = DetRng::seed_from(21);
            for _ in 0..draws {
                expected.uniform();
            }
            assert_eq!(
                rng.uniform().to_bits(),
                expected.uniform().to_bits(),
                "{name}: the RNG must advance by exactly {draws} draws"
            );
        }
    }

    /// A congested flow keeps its throttle between grid instants: flows
    /// completing on disjoint links re-rate nothing here, so with one
    /// grid instant for the whole drain the congested flow runs at one
    /// constant rate.
    #[test]
    fn congested_rate_holds_between_grid_instants() {
        let t = topo();
        // Flow 0 finishes while flow 1 still shares its receive port, so it
        // stays congested for its whole life.
        let mut specs = shared_rx_specs(&t, ByteSize::from_mib(600), ByteSize::from_gib(2));
        let sizes: Vec<ByteSize> = (0..5).map(|i| ByteSize::from_mib(20 + 20 * i)).collect();
        specs.extend(lone_specs(&t, 3, 9, 2, &sizes));
        let cfg = DrainConfig {
            epoch: SimDuration::from_secs(10),
            rate_noise: 0.25,
            cnp: Some(CnpModel::paper_default()),
            ..DrainConfig::default()
        };
        for (name, run, cfg) in every_drain(&cfg) {
            let report = run(&t, &specs, &cfg, &mut DetRng::seed_from(5));
            assert!(report.all_completed(), "{name}");
            let congested = &report.outcomes[0];
            let fin = congested.finish.unwrap();
            assert!(fin < report.outcomes[1].finish.unwrap(), "{name}");
            assert!(
                report.outcomes[2..].iter().all(|o| o.finish.unwrap() < fin),
                "{name}: the disjoint flows must complete meanwhile"
            );
            assert_eq!(
                congested.min_rate, congested.max_rate,
                "{name}: congested rate moved between grid instants"
            );
            let g = congested.mean_rate.as_gbps();
            assert!((75.0..100.0).contains(&g), "{name}: throttled rate {g}");
        }
    }

    #[test]
    fn stalled_report_edge_cases() {
        // Zero flows: vacuously complete, no stalls, end == start.
        let t = topo();
        let mut rng = DetRng::seed_from(10);
        let cfg = DrainConfig {
            start: SimTime::from_secs(3),
            ..DrainConfig::default()
        };
        let report = drain(&t, &[], &cfg, &mut rng);
        assert!(report.all_completed());
        assert!(report.stalled().is_empty());
        assert_eq!(report.end, SimTime::from_secs(3));

        // All flows stalled: every index reported, none completed. Without
        // noise nothing can unstick them, so the drain gives up immediately
        // (end == start) rather than waiting out the deadline.
        let mut t2 = topo();
        let route = simple_route(&t2);
        t2.link_mut(route[1]).set_up(false);
        let specs = vec![
            FlowSpec::new(key(0, 8, 0), ByteSize::from_mib(1), route.clone()),
            FlowSpec::new(key(0, 8, 1), ByteSize::from_mib(2), route),
        ];
        let cfg = DrainConfig {
            deadline: Some(SimTime::from_secs(2)),
            ..DrainConfig::default()
        };
        let report = drain(&t2, &specs, &cfg, &mut rng);
        assert!(!report.all_completed());
        assert_eq!(report.stalled(), vec![0, 1]);
        assert_eq!(report.end, SimTime::ZERO);
    }

    #[test]
    fn deadline_exactly_at_completion_counts_as_completed() {
        // A 200 Gbps port moves 25 GB/s; 50 GB takes exactly 2 s. A deadline
        // at exactly t=2 s must not turn the completion into a stall.
        let t = topo();
        let route = simple_route(&t);
        let bytes = ByteSize::from_bytes(50_000_000_000);
        let spec = FlowSpec::new(key(0, 8, 0), bytes, route);
        let mut rng = DetRng::seed_from(11);
        let no_deadline = drain(
            &t,
            std::slice::from_ref(&spec),
            &DrainConfig::default(),
            &mut DetRng::seed_from(11),
        );
        let completion = no_deadline.outcomes[0].finish.expect("completes");
        let cfg = DrainConfig {
            deadline: Some(completion),
            ..DrainConfig::default()
        };
        let report = drain(&t, &[spec], &cfg, &mut rng);
        assert!(
            report.all_completed(),
            "deadline tied to the completion instant must still complete"
        );
        assert!(report.stalled().is_empty());
        assert_eq!(report.end, completion);
    }
}
