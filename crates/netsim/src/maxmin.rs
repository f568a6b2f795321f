//! Max-min fair bandwidth allocation by progressive filling — both the
//! from-scratch reference solver and an incremental re-solver.
//!
//! Given link capacities and flow routes, raise every unfrozen flow's rate
//! uniformly; when a link saturates, freeze the flows crossing it; repeat.
//! [`solve`] is the textbook water-filling algorithm run from scratch; it is
//! retained as the *reference* implementation that
//! `tests/maxmin_differential.rs` checks the incremental path against. It
//! alone takes optional per-flow caps: `drain_reference` uses them to apply
//! DCQCN throttles by a full capped re-solve.
//!
//! [`MaxMinState`] is the incremental form the drain loop consumes: it keeps
//! the problem (link capacities, flow routes) resident, seeds each link's
//! bottleneck level with one event-driven water-filling solve, and then
//! turns every flow removal into a worklist over the links whose levels
//! move. LLM-training traffic makes this profitable: a drain's flow set is
//! fixed up front and only ever shrinks by completions, and a completion
//! moves the levels of a few links, however many flows share the spine
//! with it.

/// Per-flow rate caps; `f64::INFINITY` means uncapped.
pub type RateCaps = Vec<f64>;

/// Rate assigned to flows with an empty route and no finite cap
/// (represented as `f64::MAX / 4` to avoid arithmetic overflow downstream).
const UNBOUNDED: f64 = f64::MAX / 4.0;

/// Flow routes in struct-of-arrays (CSR) form: `links[offsets[f]..offsets[f+1]]`
/// is flow `f`'s sorted, deduplicated link list.
///
/// At 16k–32k GPUs a drain holds hundreds of thousands of routes; storing
/// them as one contiguous pair of arrays (instead of a `Vec<Vec<u32>>` with
/// one heap allocation per flow) lets the waterfill kernel and the worklist
/// stream link ids sequentially, and makes cloning the table two `memcpy`s.
/// The drain builds its dense routes straight into one and hands it to
/// [`MaxMinState::from_table`], so the solver's table is the drain's only
/// route table.
#[derive(Debug, Clone)]
pub(crate) struct RouteTable {
    /// `len + 1` offsets into `links`.
    offsets: Vec<u32>,
    /// Concatenated per-flow link lists.
    links: Vec<u32>,
}

impl Default for RouteTable {
    fn default() -> Self {
        RouteTable {
            offsets: vec![0],
            links: Vec::new(),
        }
    }
}

impl RouteTable {
    /// Number of flows (routes) stored.
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Appends one flow's link list.
    fn push(&mut self, route: &[u32]) {
        self.links.extend_from_slice(route);
        self.offsets.push(self.links.len() as u32);
    }

    /// Appends one flow's link list given as distinct ids in any order,
    /// sorting it in place.
    pub(crate) fn push_sorted(&mut self, route: impl IntoIterator<Item = u32>) {
        let start = self.links.len();
        self.links.extend(route);
        self.links[start..].sort_unstable();
        self.offsets.push(self.links.len() as u32);
    }

    /// Flow `f`'s link list.
    #[inline]
    fn route(&self, f: usize) -> &[u32] {
        &self.links[self.offsets[f] as usize..self.offsets[f + 1] as usize]
    }
}

/// The textbook progressive-filling kernel behind the reference [`solve`].
///
/// * `capacity[l]` — dense link capacities (negative treated as 0).
/// * `links_of[f]` — each flow's links as **sorted, deduplicated** indices
///   into `capacity`.
/// * `caps[f]` — per-flow rate cap; `f64::INFINITY` = uncapped.
///
/// Writes one rate per flow into `rates` (which must be zeroed by the
/// caller). Arithmetic is identical to the original from-scratch solver:
/// the active-set bookkeeping only skips work, never reorders it.
fn waterfill(capacity: &[f64], links_of: &[Vec<u32>], caps: &[f64], rates: &mut [f64]) {
    let nf = links_of.len();
    debug_assert_eq!(caps.len(), nf);
    debug_assert_eq!(rates.len(), nf);
    if nf == 0 {
        return;
    }

    let nl = capacity.len();
    let mut remaining: Vec<f64> = capacity.iter().map(|c| c.max(0.0)).collect();
    let mut active_count = vec![0u32; nl];
    let mut active = vec![true; nf];
    let mut active_flows: Vec<u32> = Vec::with_capacity(nf);

    for (f, ls) in links_of.iter().enumerate() {
        if ls.is_empty() {
            // Unconstrained flow: its cap (or "infinity").
            rates[f] = if caps[f].is_finite() {
                caps[f].max(0.0)
            } else {
                UNBOUNDED
            };
            active[f] = false;
            continue;
        }
        for &l in ls {
            active_count[l as usize] += 1;
        }
        active_flows.push(f as u32);
    }
    // Links some active flow crosses; pruned lazily as counts hit zero.
    let mut active_links: Vec<u32> = (0..nl as u32)
        .filter(|&l| active_count[l as usize] > 0)
        .collect();

    let eps = 1e-9;
    while !active_flows.is_empty() {
        // Uniform increment limited by the tightest link or flow cap.
        let mut delta = f64::INFINITY;
        for &l in &active_links {
            let l = l as usize;
            if active_count[l] > 0 {
                delta = delta.min(remaining[l] / active_count[l] as f64);
            }
        }
        for &f in &active_flows {
            let f = f as usize;
            if caps[f].is_finite() {
                delta = delta.min((caps[f] - rates[f]).max(0.0));
            }
        }
        if !delta.is_finite() {
            // No constraining link and no cap: shouldn't happen for routed
            // flows, but guard against livelock.
            delta = 0.0;
        }

        if delta > 0.0 {
            for &f in &active_flows {
                rates[f as usize] += delta;
            }
            for &l in &active_links {
                let l = l as usize;
                if active_count[l] > 0 {
                    remaining[l] -= delta * active_count[l] as f64;
                }
            }
        }

        // Freeze flows on saturated links and flows at their cap.
        let mut froze_any = false;
        for &f in &active_flows {
            let f = f as usize;
            if !active[f] {
                continue;
            }
            let capped = caps[f].is_finite() && rates[f] + eps >= caps[f];
            let saturated = links_of[f]
                .iter()
                .any(|&l| remaining[l as usize] <= eps * capacity[l as usize].max(1.0));
            if capped || saturated {
                active[f] = false;
                froze_any = true;
                for &l in &links_of[f] {
                    active_count[l as usize] -= 1;
                }
            }
        }
        if !froze_any {
            // Numerical stalemate: freeze the slowest-growing flow to ensure
            // termination (practically unreachable, but cheap insurance).
            if let Some(&f) = active_flows.first() {
                active[f as usize] = false;
                for &l in &links_of[f as usize] {
                    active_count[l as usize] -= 1;
                }
            }
        }
        active_flows.retain(|&f| active[f as usize]);
        active_links.retain(|&l| active_count[l as usize] > 0);
    }
}

/// A saturation-level heap entry (min-heap over `level`).
///
/// `stamp` implements lazy invalidation: an entry is live only while the
/// link's stamp still matches (every count/remaining change bumps it).
#[derive(Debug, Clone, Copy)]
struct LinkEvent {
    level: f64,
    link: u32,
    stamp: u32,
}

impl PartialEq for LinkEvent {
    fn eq(&self, other: &Self) -> bool {
        self.level == other.level
    }
}
impl Eq for LinkEvent {}
impl PartialOrd for LinkEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for LinkEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the lowest level first.
        // Levels are never NaN (capacities are real).
        other
            .level
            .partial_cmp(&self.level)
            .expect("saturation levels are not NaN")
    }
}

/// Reusable buffers for [`waterfill_event_into`]: every per-call allocation
/// of the event kernel (index arenas, residual tables, the saturation
/// heap). Buffers are **cleared, not freed** between the seed solves of one
/// [`MaxMinState`] (its first and any fallback re-seed), so a re-seed
/// allocates only what the first did not; `hwm_bytes` records the arena's
/// high-water mark for [`DrainSolverStats`](crate::DrainSolverStats).
#[derive(Debug, Clone, Default)]
pub(crate) struct SolveScratch {
    active_count: Vec<u32>,
    active: Vec<bool>,
    fol_offsets: Vec<u32>,
    fol_flows: Vec<u32>,
    cursor: Vec<u32>,
    remaining: Vec<f64>,
    base_level: Vec<f64>,
    stamp: Vec<u32>,
    heap: std::collections::BinaryHeap<LinkEvent>,
    /// Largest total capacity (bytes) this arena has held.
    hwm_bytes: usize,
}

impl SolveScratch {
    /// Records the arena's current footprint if it is a new high-water mark.
    fn note_hwm(&mut self) {
        let bytes = self.active_count.capacity() * 4
            + self.active.capacity()
            + self.fol_offsets.capacity() * 4
            + self.fol_flows.capacity() * 4
            + self.cursor.capacity() * 4
            + self.remaining.capacity() * 8
            + self.base_level.capacity() * 8
            + self.stamp.capacity() * 4
            + self.heap.capacity() * std::mem::size_of::<LinkEvent>();
        if bytes > self.hwm_bytes {
            self.hwm_bytes = bytes;
        }
    }
}

/// Event-driven progressive-filling kernel — the fast path behind
/// [`MaxMinState`].
///
/// Exploits the invariant that every *active* flow sits at the same water
/// level `L`: instead of raising rates round by round, it jumps `L` directly
/// to the lowest link-saturation level (a lazy min-heap keyed by
/// `L + remaining/active_count`, re-pushed whenever a freeze changes a
/// link's count). Each flow freezes exactly once and each freeze touches
/// only that flow's links, so a solve costs `O(E log E)` in the total route
/// length `E` — versus the reference kernel's `O(flows · (links + flows))`.
///
/// `alive(f)` is false for flows [`MaxMinState`] removed without rebuilding
/// its route tables. They are counted onto their links like any other flow
/// and then, before the first link event, released at level 0 in ascending
/// flow order, pinning them to rate 0.
///
/// Produces the same allocation as the reference [`waterfill`] up to
/// `O(eps)` freeze-threshold differences (the reference freezes flows an
/// `eps` early); the differential harness bounds the divergence at 1e-9
/// relative.
///
/// All working memory comes from `scratch` (cleared, never freed), so a
/// reused scratch makes repeated solves allocation-free; the reinitialized
/// buffers hold exactly the values a fresh allocation would, keeping results
/// bit-identical whether the scratch is new or recycled.
///
/// `levels` receives each link's final saturation level: the water level
/// at which the link's residual reached zero, or [`UNBOUNDED`] for links
/// that never saturated. These are the per-link bottleneck levels
/// [`MaxMinState`]'s worklist is seeded with.
fn waterfill_event_into(
    capacity: &[f64],
    links_of: &RouteTable,
    alive: impl Fn(usize) -> bool,
    rates: &mut [f64],
    scratch: &mut SolveScratch,
    levels: &mut Vec<f64>,
) {
    let nf = links_of.len();
    debug_assert_eq!(rates.len(), nf);
    let nl = capacity.len();
    // Saturation levels for a problem with no routed flows: a link is
    // "saturated" only if it has no capacity at all.
    let trivial_levels = |levels: &mut Vec<f64>| {
        levels.clear();
        levels.extend(
            capacity
                .iter()
                .map(|c| if c.max(0.0) == 0.0 { 0.0 } else { UNBOUNDED }),
        );
    };
    if nf == 0 {
        trivial_levels(levels);
        return;
    }

    let active_count = &mut scratch.active_count;
    active_count.clear();
    active_count.resize(nl, 0);
    let active = &mut scratch.active;
    active.clear();
    active.resize(nf, false);
    let mut n_active = 0usize;
    for f in 0..nf {
        let ls = links_of.route(f);
        if ls.is_empty() {
            rates[f] = if alive(f) { UNBOUNDED } else { 0.0 };
            continue;
        }
        active[f] = true;
        n_active += 1;
        for &l in ls {
            active_count[l as usize] += 1;
        }
    }
    if n_active == 0 {
        trivial_levels(levels);
        return;
    }

    // Per-link flow lists in CSR form (counting sort over the route table:
    // two contiguous passes, zero per-link allocations).
    let fol_offsets = &mut scratch.fol_offsets;
    fol_offsets.clear();
    fol_offsets.resize(nl + 1, 0);
    for (f, &is_active) in active.iter().enumerate() {
        if is_active {
            for &l in links_of.route(f) {
                fol_offsets[l as usize + 1] += 1;
            }
        }
    }
    for l in 0..nl {
        fol_offsets[l + 1] += fol_offsets[l];
    }
    let fol_flows = &mut scratch.fol_flows;
    fol_flows.clear();
    fol_flows.resize(fol_offsets[nl] as usize, 0);
    let cursor = &mut scratch.cursor;
    cursor.clear();
    cursor.extend_from_slice(&fol_offsets[..nl]);
    for (f, &is_active) in active.iter().enumerate() {
        if is_active {
            for &l in links_of.route(f) {
                fol_flows[cursor[l as usize] as usize] = f as u32;
                cursor[l as usize] += 1;
            }
        }
    }

    // Lazily-materialized residuals: `remaining[l]` is exact as of water
    // level `base_level[l]`; in between, the true residual is
    // `remaining[l] - (L - base_level[l]) * active_count[l]`.
    let remaining = &mut scratch.remaining;
    remaining.clear();
    remaining.extend(capacity.iter().map(|c| c.max(0.0)));
    let base_level = &mut scratch.base_level;
    base_level.clear();
    base_level.resize(nl, 0.0);
    let stamp = &mut scratch.stamp;
    stamp.clear();
    stamp.resize(nl, 0);

    let heap = &mut scratch.heap;
    heap.clear();
    for l in 0..nl {
        if active_count[l] > 0 {
            heap.push(LinkEvent {
                level: remaining[l] / active_count[l] as f64,
                link: l as u32,
                stamp: 0,
            });
        }
    }

    // Removed flows freeze at level 0 before anything else moves.
    let mut level = 0.0_f64;
    for f in 0..nf {
        if !active[f] || alive(f) {
            continue;
        }
        active[f] = false;
        n_active -= 1;
        rates[f] = 0.0;
        for &l in links_of.route(f) {
            release_link(
                l as usize,
                level,
                remaining,
                base_level,
                active_count,
                stamp,
                heap,
            );
        }
    }

    while n_active > 0 {
        // Next link constraint (discard stale heap entries).
        let mut link_event: Option<u32> = None;
        let mut link_level = f64::INFINITY;
        while let Some(&top) = heap.peek() {
            let l = top.link as usize;
            if top.stamp != stamp[l] || active_count[l] == 0 {
                heap.pop();
                continue;
            }
            link_level = top.level;
            link_event = Some(top.link);
            break;
        }

        let Some(l0) = link_event.filter(|_| link_level.is_finite()) else {
            // No finite constraint left: the reference kernel's stalemate
            // guard freezes everyone at the current level.
            for f in 0..nf {
                if active[f] {
                    rates[f] = level;
                    active[f] = false;
                }
            }
            break;
        };
        // Link event: the link saturates at `link_level`; its active flows
        // freeze there.
        level = link_level;
        heap.pop();
        let (lo, hi) = (
            fol_offsets[l0 as usize] as usize,
            fol_offsets[l0 as usize + 1] as usize,
        );
        for &fid in &fol_flows[lo..hi] {
            let f = fid as usize;
            if !active[f] {
                continue;
            }
            active[f] = false;
            n_active -= 1;
            rates[f] = level;
            for &l in links_of.route(f) {
                release_link(
                    l as usize,
                    level,
                    remaining,
                    base_level,
                    active_count,
                    stamp,
                    heap,
                );
            }
        }
    }

    // A link's final `remaining` is its residual at `base_level` with every
    // subscriber frozen, so residual ≈ 0 means the link saturated exactly at
    // `base_level` — its bottleneck level. Links with slack never constrain
    // anyone.
    levels.clear();
    levels.reserve(nl);
    for l in 0..nl {
        let cap_pos = capacity[l].max(0.0);
        levels.push(if remaining[l] <= 1e-9 * cap_pos.max(1.0) {
            base_level[l]
        } else {
            UNBOUNDED
        });
    }
    scratch.note_hwm();
}

/// Materializes a link's residual at the current water level, drops one
/// active flow from it, and refreshes its heap entry.
#[allow(clippy::too_many_arguments)]
fn release_link(
    l: usize,
    level: f64,
    remaining: &mut [f64],
    base_level: &mut [f64],
    active_count: &mut [u32],
    stamp: &mut [u32],
    heap: &mut std::collections::BinaryHeap<LinkEvent>,
) {
    let drained = (level - base_level[l]) * active_count[l] as f64;
    remaining[l] = (remaining[l] - drained).max(0.0);
    base_level[l] = level;
    active_count[l] -= 1;
    stamp[l] = stamp[l].wrapping_add(1);
    if active_count[l] > 0 {
        heap.push(LinkEvent {
            level: level + remaining[l] / active_count[l] as f64,
            link: l as u32,
            stamp: stamp[l],
        });
    }
}

/// Sorts and deduplicates a route, asserting it stays within the link table.
fn normalize_route(route: &[u32], num_links: usize) -> Vec<u32> {
    let mut ls = route.to_vec();
    ls.sort_unstable();
    ls.dedup();
    for &l in &ls {
        assert!(
            (l as usize) < num_links,
            "route references link {l} beyond capacity table"
        );
    }
    ls
}

/// Computes the max-min fair rate for each flow **from scratch** (the
/// retained reference solver).
///
/// * `capacity[l]` — capacity of link `l` (any units; rates come back in the
///   same units). Zero-capacity links pin their flows to rate 0.
/// * `routes[f]` — the link indices flow `f` traverses (duplicates are
///   counted once).
/// * `caps` — optional per-flow rate caps.
///
/// Returns one rate per flow, in `routes` order.
///
/// # Panics
///
/// Panics if a route references a link index out of range, or if `caps` is
/// provided with a length different from `routes`.
pub fn solve(capacity: &[f64], routes: &[Vec<u32>], caps: Option<&RateCaps>) -> Vec<f64> {
    let nf = routes.len();
    if let Some(c) = caps {
        assert_eq!(c.len(), nf, "caps length must match flow count");
    }
    let mut rate = vec![0.0_f64; nf];
    if nf == 0 {
        return rate;
    }

    // Compact the link table to links actually referenced by some route —
    // topologies have thousands of links but a drain touches only hundreds,
    // and the filling loop scans the whole table every round.
    let mut dense_of = vec![u32::MAX; capacity.len()];
    let mut dense_capacity: Vec<f64> = Vec::new();
    let mut flow_links: Vec<Vec<u32>> = Vec::with_capacity(nf);
    for r in routes {
        let mut ls = normalize_route(r, capacity.len());
        for l in &mut ls {
            if dense_of[*l as usize] == u32::MAX {
                dense_of[*l as usize] = dense_capacity.len() as u32;
                dense_capacity.push(capacity[*l as usize]);
            }
            *l = dense_of[*l as usize];
        }
        // normalize_route sorted by original id; re-sort by dense id so the
        // kernel's invariant holds.
        ls.sort_unstable();
        flow_links.push(ls);
    }

    let full_caps: Vec<f64> = match caps {
        Some(c) => c.clone(),
        None => vec![f64::INFINITY; nf],
    };
    waterfill(&dense_capacity, &flow_links, &full_caps, &mut rate);
    rate
}

/// The per-link leftover capacity after the given allocation.
pub fn residual(capacity: &[f64], routes: &[Vec<u32>], rates: &[f64]) -> Vec<f64> {
    let mut res: Vec<f64> = capacity.to_vec();
    for (r, &rate) in routes.iter().zip(rates) {
        let mut ls = r.clone();
        ls.sort_unstable();
        ls.dedup();
        for l in ls {
            res[l as usize] -= rate;
        }
    }
    res
}

/// The bottleneck-level worklist behind [`MaxMinState`]: a Charny-style
/// fixed point over per-link bottleneck levels.
///
/// Invariants at quiescence: link `l`'s level is the water level at which
/// it saturates given its alive subscribers' demands (or [`UNBOUNDED`] when
/// it never constrains anyone); each flow's [`RouteMin`] caches the two
/// smallest levels on its route; and each flow's rate is `min1`. Removals
/// mark route links dirty, and each round re-fills the
/// links dirtied before it began, in ascending order, from their
/// subscribers' demands — committing (and rescanning subscribers) only when
/// the level moves by more than [`LEVEL_GATE`].
///
/// Most dirty links would commit nothing, and two O(1) *skip tests* prove
/// it without a fill:
///
/// * **Slack.** A per-link *slack tally* of the subscribers' demands
///   (`dsum`, `nbig`): when the link's level is [`UNBOUNDED`], no demand is
///   unbounded and the finite ones sum to at most `cap·(1 − 1e-9)`, every
///   demand fits and the fill would return [`UNBOUNDED`] again.
/// * **Kept.** The link's last real fill still holds ([`FillQueue`]'s
///   level-crossing threshold): it would see the same below-level demands,
///   the same count and a first above-level demand still above the level,
///   so it would return the same level and commit nothing.
///
/// [`FillQueue`] re-evaluates the tests whenever one of their inputs moves
/// and visits only the links that failed one; the fill-time test still
/// decides each visit. Rounds, batch order and every commit are exactly
/// those of the unskipped worklist.
#[derive(Debug, Clone, Default)]
struct Worklist {
    /// Whether the link records, triples and subscribers are built (false
    /// until the first seed solve).
    seeded: bool,
    /// Per link: its level, slack tally and fill-queue state.
    links: Vec<LinkState>,
    /// Subscriber CSR: alive routed flows per link (stale entries are
    /// alive-checked; compacted when dead entries reach half the table).
    sub_offsets: Vec<u32>,
    sub_flows: Vec<u32>,
    /// CSR entries owned by removed flows (compaction trigger).
    sub_dead_entries: usize,
    /// Per flow: the two smallest levels on its route.
    mins: Vec<RouteMin>,
    /// Which links each round fills.
    queue: FillQueue,
    /// Flows whose rate changed since the last refresh (mask-deduped).
    flow_mask: Vec<bool>,
    pending: Vec<u32>,
    /// The changed-flow set of the *last* refresh (ascending) — the
    /// [`MaxMinState::changed_flows`] feed.
    changed: Vec<u32>,
    /// Scratch: demand staging for the per-link fill.
    demand: Vec<f64>,
    /// Statistics for [`DrainSolverStats`](crate::DrainSolverStats).
    sparse_solves: u64,
    rounds: u64,
    commits: u64,
    fallback_solves: u64,
}

impl Worklist {
    /// Rewrites the subscriber CSR keeping only alive flows, so long drains
    /// do not scan ever-growing dead entries. In-place, O(entries).
    fn compact_subscribers(&mut self, alive: &[bool]) {
        let nl = self.sub_offsets.len().saturating_sub(1);
        let mut write = 0usize;
        let mut read = 0usize;
        for l in 0..nl {
            let read_end = self.sub_offsets[l + 1] as usize;
            while read < read_end {
                let f = self.sub_flows[read];
                if alive[f as usize] {
                    self.sub_flows[write] = f;
                    write += 1;
                }
                read += 1;
            }
            self.sub_offsets[l + 1] = write as u32;
        }
        self.sub_flows.truncate(write);
        self.sub_dead_entries = 0;
    }

    /// Fills link `l` from its alive subscribers' demands: the level and
    /// keep threshold of [`fill_level`], and the link's exact slack tally.
    fn fill(&mut self, l: u32, cap: f64, alive: &[bool]) -> ((f64, f64), (f64, u32)) {
        let lu = l as usize;
        let subs =
            &self.sub_flows[self.sub_offsets[lu] as usize..self.sub_offsets[lu + 1] as usize];
        let tally = gather_demands(l, subs, alive, &self.mins, &mut self.demand);
        (fill_level(cap, &mut self.demand), tally)
    }

    /// Runs the worklist to quiescence. Returns `false` when the round
    /// budget is exhausted (the caller falls back to a seed solve).
    fn propagate(
        &mut self,
        capacity: &[f64],
        routes: &RouteTable,
        alive: &[bool],
        rates: &mut [f64],
    ) -> bool {
        let mut rounds = 0usize;
        while self.queue.n_next > 0 {
            rounds += 1;
            if rounds > MAX_ROUNDS {
                return false;
            }
            self.rounds += 1;
            // The round's fill candidates, in ascending link order: that
            // keeps propagation deterministic regardless of the order
            // removals arrived in.
            self.queue.start_round(&mut self.links);
            #[cfg(debug_assertions)]
            let (dirty, mut walked) = (self.queue.take_marked(), 0usize);
            let mut i = 0;
            while let Some(&bl) = self.queue.batch.get(i) {
                i += 1;
                let l = bl as usize;
                #[cfg(debug_assertions)]
                self.check_left_out(&dirty, &mut walked, bl, capacity, alive);
                self.queue.at = bl;
                if self.links[l].skips(capacity[l]) {
                    #[cfg(debug_assertions)]
                    self.assert_skip_commits_nothing(bl, capacity[l], alive);
                    continue;
                }
                // Single-link progressive fill over the alive subscribers'
                // demands; gathering them rebuilds the link's tally exactly,
                // and the fill holds until its threshold is crossed.
                let ((new_level, keep_above), exact) = self.fill(bl, capacity[l], alive);
                let link = &mut self.links[l];
                (link.dsum, link.nbig) = exact;
                link.keep(keep_above);
                let old_level = link.level;
                if !level_moves(old_level, new_level) {
                    continue;
                }
                link.level = new_level;
                self.commits += 1;
                self.rescan(bl, old_level, capacity, routes, alive, rates);
            }
            self.queue.at = u32::MAX;
            #[cfg(debug_assertions)]
            self.check_left_out(&dirty, &mut walked, u32::MAX, capacity, alive);
        }
        true
    }

    /// After link `l`'s level moved from `old_level`: rescans its
    /// subscribers' route-min triples, re-rates the flows whose minimum
    /// moved, and marks their other links dirty.
    fn rescan(
        &mut self,
        l: u32,
        old_level: f64,
        capacity: &[f64],
        routes: &RouteTable,
        alive: &[bool],
        rates: &mut [f64],
    ) {
        let lu = l as usize;
        let new_level = self.links[lu].level;
        for i in self.sub_offsets[lu] as usize..self.sub_offsets[lu + 1] as usize {
            let f = self.sub_flows[i] as usize;
            if !alive[f] {
                continue;
            }
            // `l` neither was nor becomes one of the flow's two smallest
            // levels, so the rescan would rebuild the same triple. (Every
            // level change rescans, so each triple matches the levels.)
            let old = self.mins[f];
            if old.min1_link != l && old.min2 < old_level && old.min2 < new_level {
                continue;
            }
            let r = routes.route(f);
            let new = RouteMin::over(r, &self.links);
            if new.same_as(&old) {
                continue;
            }
            self.mins[f] = new;
            if new.min1.to_bits() != rates[f].to_bits() {
                rates[f] = new.min1;
                if !self.flow_mask[f] {
                    self.flow_mask[f] = true;
                    self.pending.push(f as u32);
                }
            }
            // The flow's demand at `l` itself cannot have moved.
            for &rl in r.iter().filter(|&&rl| rl != l) {
                let link = &mut self.links[rl as usize];
                let (od, nd) = (old.demand_at(rl), new.demand_at(rl));
                if od != nd {
                    link.tally(od, false);
                    link.tally(nd, true);
                    link.demand_moved(od, nd);
                }
                let slack = link.has_slack(capacity[rl as usize]);
                self.queue.mark(rl, link, slack);
            }
        }
    }

    /// Debug oracle for the links the round leaves out: walks the round's
    /// full dirty set in ascending order up to (not including) `below`, and
    /// asserts that each link not among the fill candidates passes a skip
    /// test at its turn — nothing moves between two visited links — and
    /// that its fill would commit nothing.
    #[cfg(debug_assertions)]
    fn check_left_out(
        &mut self,
        dirty: &[u32],
        walked: &mut usize,
        below: u32,
        capacity: &[f64],
        alive: &[bool],
    ) {
        while let Some(&d) = dirty.get(*walked).filter(|&&d| d < below) {
            *walked += 1;
            let du = d as usize;
            if self.queue.bits(&self.links[du]) & CAND == 0 {
                assert!(
                    self.links[du].skips(capacity[du]),
                    "link {d} was left out of the round's fills but fails its skip tests"
                );
                self.assert_skip_commits_nothing(d, capacity[du], alive);
            }
        }
    }

    /// Re-runs a skipped fill of link `l` and asserts that it would commit
    /// nothing (debug builds).
    #[cfg(debug_assertions)]
    fn assert_skip_commits_nothing(&mut self, l: u32, cap: f64, alive: &[bool]) {
        let ((level, _), _) = self.fill(l, cap, alive);
        let old = self.links[l as usize].level;
        assert!(
            !level_moves(old, level),
            "skipped fill of link {l} would commit {level} over {old}"
        );
    }
}

/// Whether a fill moving a link's level from `old` to `new` commits: by more
/// than [`LEVEL_GATE`] relative.
fn level_moves(old: f64, new: f64) -> bool {
    new != old && (new - old).abs() / old.abs().max(new.abs()).max(1.0) > LEVEL_GATE
}

/// [`FillQueue`] flag bits, the low [`FLAG_BITS`] bits of a link's
/// [`LinkState::marks`]. The round bits are relative to the link's stamp
/// `s`: dirty for round `s` and a fill candidate of it ([`DIRTY`],
/// [`CAND`]), and the same for round `s + 1` ([`DIRTY_NEXT`],
/// [`CAND_NEXT`]).
const DIRTY: u8 = 1;
const CAND: u8 = 2;
const DIRTY_NEXT: u8 = 4;
const CAND_NEXT: u8 = 8;
/// Persistent bit: the link's last real fill still holds.
const KEPT: u8 = 16;
/// Flag bits below a link's round stamp.
const FLAG_BITS: u32 = 5;
/// The flag bits of a link's marks.
const FLAG_MASK: u32 = (1 << FLAG_BITS) - 1;
/// The last round a stamp can hold; the queue re-stamps every link before
/// its round counter passes it.
const ROUND_MAX: u32 = u32::MAX >> FLAG_BITS;

/// One link's worklist state: its level, slack tally, keep threshold, and
/// round stamp and flag bits. A mark, a skip test and a fill read them
/// together, so they share one 32-byte record.
#[derive(Debug, Clone, Copy, Default)]
struct LinkState {
    /// Bottleneck level.
    level: f64,
    /// Slack tally over the alive subscribers' demands: the sum of the
    /// finite ones (`dsum`) and the count of those ≥ [`UNBOUNDED`]
    /// (`nbig`). Rebuilt exactly by the seed and by every real fill of the
    /// link, adjusted in place when a subscriber is removed or its demand
    /// moves.
    dsum: f64,
    /// The threshold of the link's last real fill.
    keep_above: f64,
    nbig: u32,
    /// The round its flag bits are relative to, above the [`FLAG_BITS`]
    /// flag bits.
    marks: u32,
}

impl LinkState {
    /// The slack test: the link has slack and keeps it, so its fill would
    /// return [`UNBOUNDED`] again.
    fn has_slack(&self, cap: f64) -> bool {
        self.level == UNBOUNDED && self.nbig == 0 && self.dsum <= cap.max(0.0) * SLACK_FRACTION
    }

    /// Whether the link's fill would commit nothing by either skip test.
    fn skips(&self, cap: f64) -> bool {
        self.kept() || self.has_slack(cap)
    }

    /// Adds (`add`) or withdraws demand `d` from the slack tally.
    #[inline]
    fn tally(&mut self, d: f64, add: bool) {
        match (d >= UNBOUNDED, add) {
            (true, true) => self.nbig += 1,
            (true, false) => self.nbig -= 1,
            (false, true) => self.dsum += d,
            (false, false) => self.dsum -= d,
        }
    }

    /// Whether the link's last real fill still holds.
    fn kept(&self) -> bool {
        self.marks & KEPT as u32 != 0
    }

    /// Keeps the link after a real fill with threshold `keep_above`.
    fn keep(&mut self, keep_above: f64) {
        self.marks |= KEPT as u32;
        self.keep_above = keep_above;
    }

    /// Un-keeps the link (a subscriber was removed).
    fn unkeep(&mut self) {
        self.marks &= !(KEPT as u32);
    }

    /// A subscriber's demand at the link moved from `old` to `new`: the
    /// last fill holds only if both lie strictly above its threshold.
    fn demand_moved(&mut self, old: f64, new: f64) {
        if !(old > self.keep_above && new > self.keep_above) {
            self.unkeep();
        }
    }
}

/// Which links each worklist round fills.
///
/// A round's *dirty set* is every link marked since the previous round
/// began. The unsplit worklist visits all of them in ascending order and
/// tests each for a skip at its turn; most pass. The queue instead
/// re-evaluates a dirty link's skip tests whenever one of their inputs
/// moves — at each mark, which carries any tally change, and at each
/// subscriber removal — and keeps as *fill candidates* only the links that
/// failed at some evaluation since they were marked. A dirty link's only
/// other input changes are its own fill and commit, and a real fill leaves
/// the link kept, which passes. So a link that has passed every evaluation
/// would pass at its turn, and only candidates are sorted and visited; the
/// fill-time test still decides each visit.
///
/// A link can be dirty for the current round without being one of its
/// candidates. When a commit on a lower link makes it fail before its turn,
/// it joins the current batch at its ascending position — where the unsplit
/// worklist would fill it — so rounds, batch order and every commit stay
/// exactly the unsplit worklist's.
///
/// **Kept links.** Every real fill keeps the link, with the threshold
/// `keep_above` = the larger of the level it returned and the largest
/// below-level demand it subtracted. A subscriber removal un-keeps it, and so
/// does any demand change at the link unless both the old and the new demand
/// lie strictly above the threshold. A kept link's fill would see the same
/// below-level demands in the same order, the same count and a first
/// above-level demand still above the level, so it would return the last
/// real fill's level and commit nothing; a fill the gate rejected is
/// rejected again.
///
/// The per-link state lives in each link's [`LinkState`]: one word holds
/// the round stamp above the flag bits, beside the threshold. The round
/// bits are kept relative to the stamped round and shifted when the link
/// is next read, so starting a round touches only its candidates.
#[derive(Debug, Clone, Default)]
struct FillQueue {
    /// The current round (the last one started): marks are for the next.
    round: u32,
    /// How many links are dirty for the next round.
    n_next: usize,
    /// The next round's fill candidates, unordered.
    next: Vec<u32>,
    /// The current round's fill candidates, ascending.
    batch: Vec<u32>,
    /// The link the current round is filling (`u32::MAX` between rounds):
    /// only links above it still wait for their turn.
    at: u32,
    /// Debug builds: every link dirty for the next round, for the oracle.
    #[cfg(debug_assertions)]
    marked: Vec<u32>,
}

impl FillQueue {
    /// Clears every mark (a seed, which also resets the link records).
    fn reset(&mut self) {
        self.round = 0;
        self.n_next = 0;
        self.next.clear();
        self.batch.clear();
        self.at = u32::MAX;
        #[cfg(debug_assertions)]
        self.marked.clear();
    }

    /// A link's flag bits relative to the current round.
    fn bits(&self, link: &LinkState) -> u8 {
        let b = (link.marks & FLAG_MASK) as u8;
        match self.round - (link.marks >> FLAG_BITS) {
            0 => b,
            1 => (b >> 2) & (DIRTY | CAND) | b & KEPT,
            _ => b & KEPT,
        }
    }

    /// Starts the next round: its candidates become the batch.
    fn start_round(&mut self, links: &mut [LinkState]) {
        if self.round == ROUND_MAX {
            // Re-stamp every link before the counter wraps.
            for link in links.iter_mut() {
                link.marks = self.bits(link) as u32;
            }
            self.round = 0;
        }
        self.round += 1;
        self.n_next = 0;
        self.batch.clear();
        std::mem::swap(&mut self.batch, &mut self.next);
        self.batch.sort_unstable();
    }

    /// Marks link `l` dirty for the next round and re-evaluates its skip
    /// tests (`slack` is the slack test's outcome) for the next round and,
    /// while it waits for its turn unvisited, for the current one.
    fn mark(&mut self, l: u32, link: &mut LinkState, slack: bool) {
        let mut bits = self.bits(link);
        if bits & DIRTY_NEXT == 0 {
            bits |= DIRTY_NEXT;
            self.n_next += 1;
            #[cfg(debug_assertions)]
            self.marked.push(l);
        }
        let next = bits & CAND_NEXT == 0;
        let now = bits & (DIRTY | CAND) == DIRTY && l > self.at;
        if (next || now) && !slack && bits & KEPT == 0 {
            if next {
                bits |= CAND_NEXT;
                self.next.push(l);
            }
            if now {
                bits |= CAND;
                let at = self.batch.partition_point(|&b| b < l);
                self.batch.insert(at, l);
            }
        }
        link.marks = self.round << FLAG_BITS | bits as u32;
    }

    /// Debug builds: the current round's full dirty set, ascending.
    #[cfg(debug_assertions)]
    fn take_marked(&mut self) -> Vec<u32> {
        let mut dirty = std::mem::take(&mut self.marked);
        dirty.sort_unstable();
        dirty
    }
}

/// The two smallest levels on a flow's route, and the link holding the
/// smallest; one record, because a demand reads all three.
#[derive(Debug, Clone, Copy)]
struct RouteMin {
    min1: f64,
    min2: f64,
    min1_link: u32,
}

impl RouteMin {
    /// The triple of `route` over the links' current levels.
    #[inline]
    fn over(route: &[u32], links: &[LinkState]) -> RouteMin {
        let mut m = RouteMin {
            min1: f64::INFINITY,
            min2: f64::INFINITY,
            min1_link: u32::MAX,
        };
        for &l in route {
            let v = links[l as usize].level;
            if v < m.min1 {
                m.min2 = m.min1;
                m.min1 = v;
                m.min1_link = l;
            } else if v < m.min2 {
                m.min2 = v;
            }
        }
        m
    }

    /// True when both hold the same levels, bit for bit, and link.
    fn same_as(&self, other: &RouteMin) -> bool {
        self.min1.to_bits() == other.min1.to_bits()
            && self.min1_link == other.min1_link
            && self.min2.to_bits() == other.min2.to_bits()
    }

    /// The flow's demand at link `l`: the smallest level on its *other*
    /// links (the rate it could take if `l` did not constrain it). A pure
    /// function of the other links' levels, so a commit on `l` never moves
    /// a demand at `l` itself.
    #[inline]
    fn demand_at(&self, l: u32) -> f64 {
        if self.min1_link == l {
            self.min2
        } else {
            self.min1
        }
    }
}

/// Collects the alive subscribers' demands at link `l` into `demand` (CSR
/// order) and returns them as an exact slack tally: the sum of the finite
/// demands and the count of unbounded ones.
fn gather_demands(
    l: u32,
    subs: &[u32],
    alive: &[bool],
    mins: &[RouteMin],
    demand: &mut Vec<f64>,
) -> (f64, u32) {
    demand.clear();
    let (mut sum, mut big) = (0.0, 0u32);
    for &fid in subs {
        let f = fid as usize;
        if !alive[f] {
            continue;
        }
        let d = mins[f].demand_at(l);
        if d >= UNBOUNDED {
            big += 1;
        } else {
            sum += d;
        }
        demand.push(d);
    }
    (sum, big)
}

/// Single-link progressive fill: the level at which a link of capacity
/// `cap` saturates under `demand` (sorted in place), or [`UNBOUNDED`] when
/// every demand fits and the link constrains nobody. Also returns the
/// fill's keep threshold: the larger of that level and the largest demand
/// it subtracted below it (which rounding can leave an ulp above the level).
fn fill_level(cap: f64, demand: &mut [f64]) -> (f64, f64) {
    demand.sort_unstable_by(|a, b| a.partial_cmp(b).expect("demands are not NaN"));
    let mut rem = cap.max(0.0);
    let mut k = demand.len();
    let mut below = f64::NEG_INFINITY;
    for &d in demand.iter() {
        let share = rem / k as f64;
        if d > share {
            return (share, share.max(below));
        }
        rem -= d;
        k -= 1;
        below = d;
    }
    (UNBOUNDED, UNBOUNDED.max(below))
}

/// Persistent max-min problem with incremental re-solving.
///
/// The access pattern is the drain loop's: build the problem once
/// ([`with_flows`]), then remove flows as they complete ([`remove_flow`])
/// and re-read [`rates`] (or [`refresh`] and read [`current_rates`] and
/// [`changed_flows`]). Flows are never added after construction.
///
/// The first refresh runs one *seed* solve: the event-driven
/// water-filling kernel over every live flow, which also records each
/// link's bottleneck level. After that a removal never re-solves from
/// scratch. It marks the removed flow's links dirty, and the next refresh
/// runs a worklist to quiescence: each dirty link re-fills from its
/// subscribers' demands (the smallest level on each subscriber's *other*
/// links), and a level that moves by more than 1e-12
/// relative commits, re-rates the subscribers whose route minimum moved
/// and dirties their other links. The work per completion is proportional
/// to the links whose levels actually moved, not to the flows sharing the
/// removed flow's connected component.
///
/// A drain event pays only for the links whose level can move. Two O(1)
/// skip tests prove that a dirty link's fill would commit nothing: a
/// per-link tally of its subscribers' demands shows that a link with slack
/// keeps it (the margin, 1e-9 of capacity, covers the fill's own rounding
/// and the tally's drift between exact rebuilds), and a level-crossing
/// threshold shows that the link's last real fill still holds. The tests
/// are re-evaluated whenever their inputs move, so each round sorts and
/// visits only the dirty links that failed one, and a commit skips the
/// route rescan of each subscriber whose two smallest levels it cannot
/// reach. Rounds and commits are exactly those of the unskipped worklist;
/// debug builds check every link a round leaves out and re-run every
/// skipped fill, asserting that it commits nothing.
///
/// The result matches the reference [`solve`] within 1e-9 relative
/// (`tests/maxmin_differential.rs` enforces this). As a convergence
/// backstop, a worklist that has not settled after 64 rounds gives up and
/// the state re-seeds with one exact solve.
///
/// The first seed solve depends only on the capacities, the routes and the
/// flows removed before it. A drain can keep its output in a [`SeedSolve`]
/// and hand it to a later state of the same problem, whose first refresh
/// then restores the rates, levels and arena high-water mark and runs only
/// the linear passes that build the worklist's tables from them (see
/// [`drain_seeded`](crate::drain_seeded)).
///
/// [`with_flows`]: MaxMinState::with_flows
/// [`remove_flow`]: MaxMinState::remove_flow
/// [`rates`]: MaxMinState::rates
/// [`refresh`]: MaxMinState::refresh
/// [`current_rates`]: MaxMinState::current_rates
/// [`changed_flows`]: MaxMinState::changed_flows
#[derive(Debug, Clone)]
pub struct MaxMinState {
    capacity: Vec<f64>,
    /// Normalized (sorted, deduped) route per flow, original link indices,
    /// flattened CSR (struct-of-arrays).
    routes: RouteTable,
    alive: Vec<bool>,
    rates: Vec<f64>,
    /// Seed solves since construction, a restored one included.
    full_solves: u64,
    /// This state's solve arena, cleared and reused (never freed) by a
    /// fallback re-seed.
    scratch: SolveScratch,
    worklist: Worklist,
}

/// The output of one seed solve: the event kernel's per-flow rates, each
/// link's bottleneck level and the high-water mark of the arena it left. A
/// drain keeps its first seed solve in one so that a later drain of the
/// same problem (the same routes over the same capacities, with the same
/// flows removed up front) can restore it instead of running the kernel
/// again ([`drain_seeded`](crate::drain_seeded)).
#[derive(Debug, Clone)]
pub struct SeedSolve {
    rates: Vec<f64>,
    levels: Vec<f64>,
    hwm_bytes: usize,
}

impl SeedSolve {
    /// Runs the event kernel over the live flows of a problem on a fresh
    /// arena.
    #[cfg(debug_assertions)]
    fn solve(capacity: &[f64], routes: &RouteTable, alive: &[bool]) -> SeedSolve {
        let mut scratch = SolveScratch::default();
        let mut rates = vec![0.0; routes.len()];
        let mut levels = Vec::new();
        waterfill_event_into(
            capacity,
            routes,
            |f| alive[f],
            &mut rates,
            &mut scratch,
            &mut levels,
        );
        SeedSolve {
            rates,
            levels,
            hwm_bytes: scratch.hwm_bytes,
        }
    }

    /// True when both hold the same rates and levels, bit for bit, and the
    /// same high-water mark.
    #[cfg(debug_assertions)]
    fn same_as(&self, other: &SeedSolve) -> bool {
        let same = |a: &[f64], b: &[f64]| {
            a.iter()
                .map(|x| x.to_bits())
                .eq(b.iter().map(|x| x.to_bits()))
        };
        same(&self.rates, &other.rates)
            && same(&self.levels, &other.levels)
            && self.hwm_bytes == other.hwm_bytes
    }
}

/// Relative change below which a link's bottleneck level is not worth
/// re-propagating — tight enough that the worklist's arithmetic stays
/// effectively exact.
const LEVEL_GATE: f64 = 1e-12;

/// Worklist rounds before a propagation gives up and falls back to one
/// exact seed solve (convergence insurance; the iteration settles in a
/// handful of rounds in practice).
const MAX_ROUNDS: usize = 64;

/// Fraction of a link's capacity its slack tally may reach for a fill to
/// be skipped. The 1e-9 margin dwarfs the fill's rounding (about k·2⁻⁵²
/// relative for k subscribers) and the tally's drift between exact
/// rebuilds.
const SLACK_FRACTION: f64 = 1.0 - 1e-9;

impl MaxMinState {
    /// Creates the state over a link-capacity table and every flow it will
    /// ever hold: flow `f` crosses `routes[f]`. The first [`rates`] call
    /// runs the seed solve.
    ///
    /// [`rates`]: MaxMinState::rates
    ///
    /// # Panics
    ///
    /// Panics if a route references a link beyond the capacity table.
    pub fn with_flows(capacity: &[f64], routes: &[Vec<u32>]) -> Self {
        let mut table = RouteTable::default();
        for r in routes {
            table.push(&normalize_route(r, capacity.len()));
        }
        Self::from_table(capacity.to_vec(), table)
    }

    /// [`with_flows`](MaxMinState::with_flows) over a route table already
    /// sorted, deduplicated and within `capacity` (the drain's dense
    /// routes), taking both without a copy.
    pub(crate) fn from_table(capacity: Vec<f64>, routes: RouteTable) -> Self {
        let nf = routes.len();
        let rates = (0..nf)
            .map(|f| {
                if routes.route(f).is_empty() {
                    UNBOUNDED
                } else {
                    0.0
                }
            })
            .collect();
        MaxMinState {
            capacity,
            routes,
            alive: vec![true; nf],
            rates,
            full_solves: 0,
            scratch: SolveScratch::default(),
            worklist: Worklist::default(),
        }
    }

    /// Flow `f`'s sorted, deduplicated link list.
    pub(crate) fn route(&self, f: usize) -> &[u32] {
        self.routes.route(f)
    }

    /// The link-capacity table.
    pub(crate) fn capacity(&self) -> &[f64] {
        &self.capacity
    }

    /// Removes a flow (completion): its capacity share is released, and
    /// the next [`rates`] call propagates the change from its links.
    ///
    /// [`rates`]: MaxMinState::rates
    pub fn remove_flow(&mut self, f: usize) {
        if !self.alive[f] {
            return;
        }
        self.alive[f] = false;
        self.rates[f] = 0.0;
        if !self.worklist.seeded {
            // The next refresh seeds from the live flows anyway.
            return;
        }
        let MaxMinState {
            capacity,
            routes,
            alive,
            worklist: w,
            ..
        } = self;
        let r = routes.route(f);
        if !w.flow_mask[f] {
            w.flow_mask[f] = true;
            w.pending.push(f as u32);
        }
        let mins = w.mins[f];
        for &l in r {
            let link = &mut w.links[l as usize];
            link.tally(mins.demand_at(l), false);
            link.unkeep();
            let slack = link.has_slack(capacity[l as usize]);
            w.queue.mark(l, link, slack);
        }
        w.sub_dead_entries += r.len();
        if w.sub_dead_entries * 2 >= w.sub_flows.len() {
            w.compact_subscribers(alive);
        }
    }

    /// The current allocation, re-solving lazily. Indexed by flow id;
    /// entries of removed flows read 0.
    pub fn rates(&mut self) -> &[f64] {
        self.refresh();
        &self.rates
    }

    /// Brings the allocation up to date (lazily, like [`rates`]) and records
    /// which flows' rates moved, so derived per-flow state (link loads,
    /// scores, completion events) can be updated for exactly those flows.
    /// Read the result via [`current_rates`] and [`changed_flows`].
    ///
    /// [`rates`]: MaxMinState::rates
    /// [`current_rates`]: MaxMinState::current_rates
    /// [`changed_flows`]: MaxMinState::changed_flows
    pub fn refresh(&mut self) {
        self.worklist.changed.clear();
        if !self.worklist.seeded {
            self.seed_from(None);
        } else if self.worklist.queue.n_next == 0 && self.worklist.pending.is_empty() {
            // Nothing was removed: no rate changed.
        } else if self.worklist.propagate(
            &self.capacity,
            &self.routes,
            &self.alive,
            &mut self.rates,
        ) {
            let w = &mut self.worklist;
            w.sparse_solves += 1;
            std::mem::swap(&mut w.pending, &mut w.changed);
            w.changed.sort_unstable();
            for &f in &w.changed {
                w.flow_mask[f as usize] = false;
            }
        } else {
            // The worklist did not settle within the round budget: fall
            // back to one exact seed solve.
            self.worklist.fallback_solves += 1;
            self.seed_from(None);
        }
    }

    /// [`refresh`](MaxMinState::refresh), keeping the first seed solve in
    /// `seed`: when this refresh seeds and `seed` holds a seed solve, it
    /// restores that instead of running the kernel; when `seed` is empty,
    /// it solves and leaves the result there. The caller vouches that a
    /// held seed solve is this state's first: the same routes over the
    /// same capacities, with the same flows removed before it. Debug
    /// builds run the kernel anyway and assert that it agrees bit for bit.
    pub(crate) fn refresh_keeping(&mut self, seed: &mut Option<SeedSolve>) {
        if self.worklist.seeded {
            return self.refresh();
        }
        match seed {
            Some(restored) => {
                self.worklist.changed.clear();
                self.seed_from(Some(restored));
            }
            None => {
                self.refresh();
                *seed = Some(SeedSolve {
                    rates: self.rates.clone(),
                    levels: self.worklist.links.iter().map(|l| l.level).collect(),
                    hwm_bytes: self.scratch.hwm_bytes,
                });
            }
        }
    }

    /// The allocation as of the last [`refresh`]/[`rates`] call, without
    /// re-solving. Indexed by flow id; removed flows read 0.
    ///
    /// [`refresh`]: MaxMinState::refresh
    /// [`rates`]: MaxMinState::rates
    pub fn current_rates(&self) -> &[f64] {
        &self.rates
    }

    /// How many seed solves this state has run, a restored one included
    /// (diagnostics/benchmarks).
    pub fn full_solves(&self) -> u64 {
        self.full_solves
    }

    /// High-water mark (bytes) of the state's solve arena — how much
    /// scratch the kernel retains between solves (after a restored seed
    /// solve, the mark that solve reached).
    pub fn arena_hwm_bytes(&self) -> usize {
        self.scratch.hwm_bytes
    }

    /// Flows whose rate changed in the last [`refresh`] (ascending, deduped),
    /// the feed derived state is updated from. After a seed solve (the first
    /// refresh, or the 64-round fallback) it lists every live flow. After a
    /// worklist propagation it lists the re-rated flows plus each flow
    /// removed since the previous refresh (its rate dropped to 0). Empty
    /// when nothing was removed.
    ///
    /// [`refresh`]: MaxMinState::refresh
    pub fn changed_flows(&self) -> &[u32] {
        &self.worklist.changed
    }

    /// Routed flows subscribed to link `l` (empty before the first seed
    /// solve). May still list flows removed since the last CSR compaction —
    /// callers filter by their own liveness.
    pub(crate) fn subscribers(&self, l: usize) -> &[u32] {
        let w = &self.worklist;
        if !w.seeded || l + 1 >= w.sub_offsets.len() {
            return &[];
        }
        &w.sub_flows[w.sub_offsets[l] as usize..w.sub_offsets[l + 1] as usize]
    }

    /// How many worklist propagations settled without a fallback.
    pub fn sparse_solves(&self) -> u64 {
        self.worklist.sparse_solves
    }

    /// Total worklist rounds across all propagations (named like the
    /// [`DrainSolverStats`](crate::DrainSolverStats) field it feeds).
    pub fn spine_rounds(&self) -> u64 {
        self.worklist.rounds
    }

    /// How many per-link bottleneck-level commits the worklist made, over
    /// every link (named like the
    /// [`DrainSolverStats`](crate::DrainSolverStats) field it feeds).
    pub fn spine_link_updates(&self) -> u64 {
        self.worklist.commits
    }

    /// How many propagations failed to settle within the 64-round budget
    /// and fell back to an exact seed solve.
    pub fn fallback_solves(&self) -> u64 {
        self.worklist.fallback_solves
    }

    /// (Re)seeds the worklist with one exact solve over every live flow:
    /// rates come from the event kernel, or from `restored` (the kernel's
    /// output for this problem on a fresh arena, whose high-water mark the
    /// arena then takes), each link record starts at its saturation level,
    /// and the subscriber CSR, route-min triples and slack tallies are
    /// rebuilt. Every live flow is reported changed.
    fn seed_from(&mut self, restored: Option<&SeedSolve>) {
        let nf = self.routes.len();
        let nl = self.capacity.len();
        let mut solved = Vec::new();
        let levels = match restored {
            Some(seed) => {
                #[cfg(debug_assertions)]
                assert!(
                    seed.same_as(&SeedSolve::solve(&self.capacity, &self.routes, &self.alive)),
                    "a restored seed solve is the kernel's, bit for bit"
                );
                self.rates.copy_from_slice(&seed.rates);
                assert_eq!(seed.levels.len(), nl, "a seed solve of this problem");
                // The arena stays empty, at the solve's high-water mark. A
                // fallback re-seed then reaches the mark the solve's arena
                // would have: every buffer but the heap is sized by the
                // state's link, flow and route-entry counts, the same for
                // every seed of one state, and the heap grows from empty
                // along the same doubling path as from the solve's size.
                debug_assert_eq!(self.scratch.hwm_bytes, 0, "a fresh arena");
                self.scratch.hwm_bytes = seed.hwm_bytes;
                &seed.levels
            }
            None => {
                for r in self.rates.iter_mut() {
                    *r = 0.0;
                }
                let alive = &self.alive;
                waterfill_event_into(
                    &self.capacity,
                    &self.routes,
                    |f| alive[f],
                    &mut self.rates,
                    &mut self.scratch,
                    &mut solved,
                );
                &solved
            }
        };
        let w = &mut self.worklist;
        // No tally, no marks, nothing kept.
        w.links.clear();
        w.links.extend(levels.iter().map(|&level| LinkState {
            level,
            ..LinkState::default()
        }));
        // Subscriber CSR over alive routed flows (counting sort).
        w.sub_offsets.clear();
        w.sub_offsets.resize(nl + 1, 0);
        for f in 0..nf {
            if self.alive[f] {
                for &l in self.routes.route(f) {
                    w.sub_offsets[l as usize + 1] += 1;
                }
            }
        }
        for l in 0..nl {
            w.sub_offsets[l + 1] += w.sub_offsets[l];
        }
        w.sub_flows.clear();
        w.sub_flows.resize(w.sub_offsets[nl] as usize, 0);
        {
            // The queue's batch buffer doubles as the fill cursor; the queue
            // is reset below.
            let cursor = &mut w.queue.batch;
            cursor.clear();
            cursor.extend_from_slice(&w.sub_offsets[..nl]);
            for f in 0..nf {
                if self.alive[f] {
                    for &l in self.routes.route(f) {
                        w.sub_flows[cursor[l as usize] as usize] = f as u32;
                        cursor[l as usize] += 1;
                    }
                }
            }
            cursor.clear();
        }
        w.sub_dead_entries = 0;
        // Route-min triples from the seeded levels.
        w.mins.clear();
        w.mins
            .extend((0..nf).map(|f| RouteMin::over(self.routes.route(f), &w.links)));
        // Slack tallies over the alive subscribers' demands.
        for f in (0..nf).filter(|&f| self.alive[f]) {
            for &l in self.routes.route(f) {
                w.links[l as usize].tally(w.mins[f].demand_at(l), true);
            }
        }
        w.queue.reset();
        w.flow_mask.clear();
        w.flow_mask.resize(nf, false);
        w.pending.clear();
        w.changed
            .extend((0..nf as u32).filter(|&f| self.alive[f as usize]));
        w.seeded = true;
        self.full_solves += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6 * b.abs().max(1.0)
    }

    #[test]
    fn single_link_fair_share() {
        let rates = solve(&[100.0], &[vec![0], vec![0], vec![0], vec![0]], None);
        assert!(rates.iter().all(|&r| close(r, 25.0)));
    }

    #[test]
    fn classic_three_link_example() {
        // Flow A crosses links 0,1; flow B crosses 1; flow C crosses 0.
        // cap0=10, cap1=4 → B and A share link1 at 2 each; C gets 10-2=8.
        let rates = solve(&[10.0, 4.0], &[vec![0, 1], vec![1], vec![0]], None);
        assert!(close(rates[0], 2.0), "A={}", rates[0]);
        assert!(close(rates[1], 2.0), "B={}", rates[1]);
        assert!(close(rates[2], 8.0), "C={}", rates[2]);
    }

    #[test]
    fn zero_capacity_link_pins_flow() {
        let rates = solve(&[0.0, 100.0], &[vec![0, 1], vec![1]], None);
        assert!(close(rates[0], 0.0));
        assert!(close(rates[1], 100.0));
    }

    #[test]
    fn caps_are_respected_and_redistributed() {
        let caps = vec![3.0, f64::INFINITY];
        let rates = solve(&[10.0], &[vec![0], vec![0]], Some(&caps));
        assert!(close(rates[0], 3.0));
        assert!(close(rates[1], 7.0), "uncapped flow got {}", rates[1]);
    }

    #[test]
    fn empty_route_gets_cap_or_unbounded() {
        let caps = vec![5.0];
        let rates = solve(&[10.0], &[vec![]], Some(&caps));
        assert!(close(rates[0], 5.0));
        let rates = solve(&[10.0], &[vec![]], None);
        assert!(rates[0] > 1e30);
    }

    #[test]
    fn duplicate_links_counted_once() {
        let rates = solve(&[10.0], &[vec![0, 0]], None);
        assert!(close(rates[0], 10.0));
    }

    #[test]
    fn allocation_never_exceeds_capacity() {
        // Random-ish mesh checked for feasibility.
        let caps_links = [7.0, 3.0, 9.0, 2.0];
        let routes = vec![
            vec![0, 1],
            vec![1, 2],
            vec![0, 2],
            vec![2, 3],
            vec![3],
            vec![0],
        ];
        let rates = solve(&caps_links, &routes, None);
        let res = residual(&caps_links, &routes, &rates);
        for (l, r) in res.iter().enumerate() {
            assert!(*r >= -1e-6, "link {l} oversubscribed by {r}");
        }
        // Max-min property: every flow is bottlenecked somewhere.
        for (f, route) in routes.iter().enumerate() {
            let bottlenecked = route.iter().any(|&l| res[l as usize] <= 1e-6);
            assert!(bottlenecked, "flow {f} has slack on every link");
        }
    }

    #[test]
    fn no_flows_returns_empty() {
        assert!(solve(&[1.0], &[], None).is_empty());
    }

    #[test]
    #[should_panic(expected = "beyond capacity table")]
    fn out_of_range_link_panics() {
        let _ = solve(&[1.0], &[vec![3]], None);
    }

    // ---- incremental state ----

    /// Asserts the state's rates equal the reference solve of its live
    /// flows (removed flows expected at rate 0).
    fn assert_matches_reference(
        state: &mut MaxMinState,
        capacity: &[f64],
        routes: &[Vec<u32>],
        alive: &[bool],
    ) {
        let live_routes: Vec<Vec<u32>> = routes
            .iter()
            .zip(alive)
            .filter(|(_, &a)| a)
            .map(|(r, _)| r.clone())
            .collect();
        let expect = solve(capacity, &live_routes, None);
        let got = state.rates();
        let mut k = 0usize;
        for f in 0..routes.len() {
            if alive[f] {
                let (a, b) = (got[f], expect[k]);
                assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                    "flow {f}: incremental {a} vs reference {b}"
                );
                k += 1;
            } else {
                assert_eq!(got[f], 0.0, "removed flow {f} must read rate 0");
            }
        }
    }

    #[test]
    fn incremental_matches_reference_after_removals() {
        let capacity = vec![10.0, 4.0, 6.0, 8.0];
        // Two link-disjoint groups: {0,1} via links {0,1}; {2,3} via {2,3}.
        let routes = vec![vec![0, 1], vec![1], vec![2, 3], vec![3]];
        let mut alive = vec![true; 4];
        let mut s = MaxMinState::with_flows(&capacity, &routes);
        assert_matches_reference(&mut s, &capacity, &routes, &alive);

        // Each removal frees its partner: the removed flow and the partner
        // are exactly the flows whose rates changed.
        for (f, partner) in [(1, 0), (3, 2)] {
            s.remove_flow(f);
            alive[f] = false;
            s.refresh();
            let mut expect = [partner as u32, f as u32];
            expect.sort_unstable();
            assert_eq!(s.changed_flows(), &expect);
            assert_matches_reference(&mut s, &capacity, &routes, &alive);
        }
        assert_eq!(s.full_solves(), 1, "removals never re-seed");
    }

    #[test]
    fn disjoint_components_solve_independently() {
        let capacity = vec![10.0, 20.0];
        let routes = vec![vec![0], vec![0], vec![1], vec![1]];
        let mut s = MaxMinState::with_flows(&capacity, &routes);
        let r = s.rates();
        assert!(close(r[0], 5.0) && close(r[1], 5.0));
        assert!(close(r[2], 10.0) && close(r[3], 10.0));
        let full_before = s.full_solves();
        // Removing a flow on link 0 must not touch link 1's flows.
        s.remove_flow(0);
        s.refresh();
        assert_eq!(
            s.changed_flows(),
            &[0, 1],
            "link 1's flows keep their rates"
        );
        let r = s.current_rates();
        assert!(close(r[1], 10.0));
        assert!(close(r[2], 10.0) && close(r[3], 10.0));
        assert_eq!(
            s.full_solves(),
            full_before,
            "no full solve for one removal"
        );
    }

    #[test]
    fn dead_link_pins_component_to_zero() {
        // Link 0 has no capacity: its component stays at rate 0, before and
        // after a removal, while the healthy component is unaffected.
        let capacity = vec![0.0, 10.0];
        let routes = vec![vec![0], vec![0], vec![1]];
        let mut s = MaxMinState::with_flows(&capacity, &routes);
        let r = s.rates();
        assert_eq!((r[0], r[1]), (0.0, 0.0));
        assert!(close(r[2], 10.0));
        s.remove_flow(0);
        let r = s.rates();
        assert_eq!((r[0], r[1]), (0.0, 0.0));
        assert!(close(r[2], 10.0));
    }

    #[test]
    fn removal_bursts_resolve_components_without_repartition() {
        let capacity = vec![12.0, 12.0, 12.0, 12.0];
        let routes: Vec<Vec<u32>> = (0..12).map(|f| vec![f / 3]).collect();
        let mut s = MaxMinState::with_flows(&capacity, &routes);
        let _ = s.rates();
        let full_before = s.full_solves();
        // One completion on 3 of 4 three-flow links (a same-instant
        // completion batch): one propagation re-rates exactly the flows of
        // the three touched links — no full solve.
        for f in [0, 3, 6] {
            s.remove_flow(f);
        }
        s.refresh();
        assert_eq!(s.changed_flows(), &[0, 1, 2, 3, 4, 5, 6, 7, 8]);
        let r = s.current_rates();
        for f in [1, 2, 4, 5, 7, 8] {
            assert!(close(r[f], 6.0), "flow {f} got {}", r[f]);
        }
        for f in [9, 10, 11] {
            assert!(close(r[f], 4.0), "untouched flow {f} got {}", r[f]);
        }
        assert_eq!(s.full_solves(), full_before, "no re-seed for removals");
        assert_eq!(s.sparse_solves(), 1, "one propagation per batch");
    }

    #[test]
    fn fully_dead_component_becomes_quiescent_husk() {
        let capacity = vec![10.0, 20.0];
        let routes = vec![vec![0], vec![1]];
        let mut s = MaxMinState::with_flows(&capacity, &routes);
        let _ = s.rates();
        s.remove_flow(0);
        // The emptied link reports its last flow once (its derived loads
        // must be released by the consumer) and then never dirties again.
        s.refresh();
        assert_eq!(s.changed_flows(), &[0]);
        s.refresh();
        assert!(s.changed_flows().is_empty());
        assert_eq!(s.sparse_solves(), 1);
        assert_eq!(s.rates()[0], 0.0);
        assert!(close(s.rates()[1], 20.0));
    }

    #[test]
    fn refresh_scope_reports_what_resolved() {
        let capacity = vec![10.0, 20.0];
        let routes = vec![vec![0], vec![1], vec![1]];
        let mut s = MaxMinState::with_flows(&capacity, &routes);
        // Removed before the seed, as the drain removes zero-byte flows.
        s.remove_flow(0);
        s.refresh();
        assert_eq!(s.changed_flows(), &[1, 2], "a seed lists every live flow");
        assert_eq!(s.full_solves(), 1, "first refresh seeds");
        s.refresh();
        assert!(s.changed_flows().is_empty(), "nothing moved");
        s.remove_flow(2);
        s.refresh();
        assert_eq!(s.changed_flows(), &[1, 2]);
        assert_eq!(s.current_rates()[1], 20.0);
        assert_eq!(s.current_rates()[2], 0.0);
        s.refresh();
        assert!(s.changed_flows().is_empty());
        assert_eq!((s.full_solves(), s.sparse_solves()), (1, 1));
    }

    /// The round budget is the worklist's only convergence backstop. On a
    /// chain whose levels settle one link per round, a removal at the head
    /// needs one round per link: 63 links settle in exactly the 64-round
    /// budget, 64 links exhaust it and fall back to one exact seed solve.
    /// Both sides agree with the reference.
    #[test]
    fn round_budget_boundary_falls_back_to_an_exact_seed() {
        for (n, rounds, fallbacks) in [(63, 64, 0), (64, 64, 1)] {
            let capacity: Vec<f64> = (0..n).map(|i| 1.0 + 0.01 * i as f64).collect();
            // Flow i crosses links i and i+1; one extra flow sits on link 0.
            let mut routes: Vec<Vec<u32>> = (0..n as u32)
                .map(|i| {
                    if i + 1 < n as u32 {
                        vec![i, i + 1]
                    } else {
                        vec![i]
                    }
                })
                .collect();
            routes.push(vec![0]);
            let mut alive = vec![true; routes.len()];
            let mut s = MaxMinState::with_flows(&capacity, &routes);
            assert_matches_reference(&mut s, &capacity, &routes, &alive);

            s.remove_flow(n);
            alive[n] = false;
            s.refresh();
            assert_eq!(s.spine_rounds(), rounds, "n = {n}: worklist rounds");
            assert_eq!(s.fallback_solves(), fallbacks, "n = {n}: fallbacks");
            assert_eq!(s.full_solves(), 1 + fallbacks, "n = {n}: seed solves");
            if fallbacks == 1 {
                let live: Vec<u32> = (0..n as u32).collect();
                assert_eq!(
                    s.changed_flows(),
                    &live[..],
                    "a re-seed lists every live flow"
                );
            }
            assert_matches_reference(&mut s, &capacity, &routes, &alive);
        }
    }

    #[test]
    fn empty_route_flows_are_unbounded_singletons() {
        let mut s = MaxMinState::with_flows(&[10.0], &[vec![], vec![0]]);
        let r = s.rates();
        assert!(r[0] > 1e30);
        assert!(close(r[1], 10.0));
        s.remove_flow(0);
        assert_eq!(s.rates()[0], 0.0);
    }

    #[test]
    fn remove_is_idempotent() {
        let mut s = MaxMinState::with_flows(&[10.0], &[vec![0], vec![0]]);
        let _ = s.rates();
        s.remove_flow(0);
        s.remove_flow(0);
        let r = s.rates();
        assert_eq!(r[0], 0.0);
        assert!(close(r[1], 10.0));
        assert_eq!(s.changed_flows(), &[0, 1], "flow 0 is listed once");
    }

    // ---- fill queue ----

    /// Seeds a state, removes `removals` one refresh at a time (checking
    /// each allocation against the reference) and returns the worklist's
    /// `(spine_rounds, spine_link_updates)`.
    fn run_removals(
        state: &mut MaxMinState,
        capacity: &[f64],
        routes: &[Vec<u32>],
        removals: &[usize],
    ) -> (u64, u64) {
        let mut alive = vec![true; routes.len()];
        assert_matches_reference(state, capacity, routes, &alive);
        for &f in removals {
            state.remove_flow(f);
            alive[f] = false;
            assert_matches_reference(state, capacity, routes, &alive);
        }
        (state.spine_rounds(), state.spine_link_updates())
    }

    /// Links 0–2 (capacities 5, 7, 10) carry flows `[1, 2]`, `[0, 2]` and
    /// `[0, 1, 2]`; removing flow 2 dirties all three links.
    fn mid_round_problem() -> (Vec<f64>, Vec<Vec<u32>>) {
        (
            vec![5.0, 7.0, 10.0],
            vec![vec![1, 2], vec![0, 2], vec![0, 1, 2]],
        )
    }

    /// A link dirty for a round but not among its fill candidates joins the
    /// round when a commit on a lower link makes it fail its skip tests
    /// before its turn. Removing flow 2 leaves link 2 with slack (demands
    /// 4.5 and 2.5 of 10), so it is held out of the round's candidates.
    /// Link 0 then commits level 5 (demand 5 at link 2, still slack), and
    /// link 1 commits level 7, which raises flow 0's demand at link 2 to 7
    /// and the tally to 12: link 2 must fill in this round, at level 5, as
    /// the unsplit worklist does. Its counts, recorded from the unsplit
    /// worklist on this script, are 3 rounds and 5 commits; filling link 2
    /// one round late takes 4 rounds.
    #[test]
    fn a_link_failing_its_skip_tests_mid_round_joins_that_round() {
        let (capacity, routes) = mid_round_problem();
        let mut s = MaxMinState::with_flows(&capacity, &routes);
        let _ = s.rates();
        s.remove_flow(2);
        let held = s.worklist.queue.bits(&s.worklist.links[2]);
        assert_eq!(
            held & (DIRTY_NEXT | CAND_NEXT),
            DIRTY_NEXT,
            "link 2 starts held"
        );
        assert_matches_reference(&mut s, &capacity, &routes, &[true, true, false]);
        assert_eq!((s.spine_rounds(), s.spine_link_updates()), (3, 5));
    }

    /// The round counter re-stamps every link before it passes the last
    /// round a stamp can hold, so marks made across the wrap keep their
    /// rounds: the mid-round script gives the same counts.
    #[test]
    fn the_round_counter_wraps_without_losing_marks() {
        let (capacity, routes) = mid_round_problem();
        let mut s = MaxMinState::with_flows(&capacity, &routes);
        let _ = s.rates();
        s.worklist.queue.round = ROUND_MAX - 1;
        assert_eq!(run_removals(&mut s, &capacity, &routes, &[2]), (3, 5));
    }

    /// A demand that moves to exactly a kept link's threshold forces a real
    /// fill. Flows `[0, 1]`, `[0]` and `[1]` on links of capacity 1 and 2;
    /// removing flow 1 fills link 0 at level 1 (threshold 1, flow 0's
    /// demand 1.5). Link 1 then commits level 1, moving that demand to
    /// exactly 1, where it fits: link 0's level becomes unbounded. Counts
    /// recorded from the unsplit worklist on this script: 4 rounds and 3
    /// commits; keeping link 0 would skip that commit.
    #[test]
    fn a_demand_moving_to_exactly_the_keep_threshold_forces_a_fill() {
        let capacity = [1.0, 2.0];
        let routes = [vec![0, 1], vec![0], vec![1]];
        let mut s = MaxMinState::with_flows(&capacity, &routes);
        assert_eq!(run_removals(&mut s, &capacity, &routes, &[1]), (4, 3));
    }

    /// The keep threshold is the fill's level, or the largest demand it
    /// subtracted when rounding leaves that above the level: 0.7 shared by
    /// four subtracts 0.175 = 0.7/4, then saturates at 0.525/3, an ulp
    /// below it.
    #[test]
    fn the_keep_threshold_covers_a_subtracted_demand_above_the_level() {
        let (level, keep_above) = fill_level(0.7, &mut [1.0, 0.175, 1.0, 1.0]);
        assert!(level < 0.175, "level {level}");
        assert_eq!(keep_above, 0.175);
        assert_eq!(fill_level(10.0, &mut [9.0, 2.0]), (8.0, 8.0));
        assert_eq!(fill_level(10.0, &mut [3.0, 2.0]), (UNBOUNDED, UNBOUNDED));
    }
}
