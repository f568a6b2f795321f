//! Max-min fair bandwidth allocation by progressive filling — both the
//! from-scratch reference solver and an incremental re-solver.
//!
//! Given link capacities and flow routes, raise every unfrozen flow's rate
//! uniformly; when a link saturates, freeze the flows crossing it; repeat.
//! Optional per-flow caps model DCQCN rate limiting. [`solve`] is the
//! textbook water-filling algorithm run from scratch; it is retained as the
//! *reference* implementation that `tests/maxmin_differential.rs` checks the
//! incremental path against.
//!
//! [`MaxMinState`] is the incremental form the drain loop consumes: it keeps
//! the problem (link capacities, flow routes, caps) resident, partitions it
//! into connected components of the flow–link sharing graph, and re-runs the
//! water-filling kernel only over components whose inputs changed since the
//! last query. LLM-training traffic makes this profitable: successive solves
//! within a drain differ by a handful of flow completions, while disjoint
//! jobs/NVLink chains never need re-solving at all. Dirty components always
//! re-solve one by one, however many there are. Only flow additions, which
//! can merge components, force a full solve with a global re-partition; a
//! dirty component whose removed flows reach its live count is re-partitioned
//! in place before it re-solves.

use c4_simcore::{scoped_map, ParallelPolicy, UnionFind};

/// Per-flow rate caps; `f64::INFINITY` means uncapped.
pub type RateCaps = Vec<f64>;

/// Minimum live-flow mass across the components of one re-solve batch
/// before worker threads are spawned; below it the per-thread setup cost
/// exceeds the solve itself. Purely a wall-clock heuristic — results are
/// bit-identical either way.
const PARALLEL_MIN_FLOWS: usize = 192;

/// Rate assigned to flows with an empty route and no finite cap
/// (represented as `f64::MAX / 4` to avoid arithmetic overflow downstream).
const UNBOUNDED: f64 = f64::MAX / 4.0;

/// Flow routes in struct-of-arrays (CSR) form: `links[offsets[f]..offsets[f+1]]`
/// is flow `f`'s sorted, deduplicated link list.
///
/// At 16k–32k GPUs a drain holds hundreds of thousands of routes; storing
/// them as one contiguous pair of arrays (instead of a `Vec<Vec<u32>>` with
/// one heap allocation per flow) lets the waterfill kernel and the dirty-
/// component re-accumulation stream link ids sequentially, and makes
/// cloning/rebuilding a component's route table two `memcpy`s.
#[derive(Debug, Clone)]
struct RouteTable {
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

    /// Flow `f`'s link list.
    #[inline]
    fn route(&self, f: usize) -> &[u32] {
        &self.links[self.offsets[f] as usize..self.offsets[f + 1] as usize]
    }
}

/// Progressive-filling kernel shared by [`solve`] and [`MaxMinState`].
///
/// * `capacity[l]` — dense link capacities (negative treated as 0).
/// * `links_of[f]` — each flow's links as **sorted, deduplicated** indices
///   into `capacity`.
/// * `caps[f]` — per-flow rate cap; `f64::INFINITY` = uncapped, `0.0` pins
///   the flow to rate zero (how [`MaxMinState`] masks removed flows without
///   rebuilding route tables).
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
        // Levels are never NaN (capacities and caps are real).
        other
            .level
            .partial_cmp(&self.level)
            .expect("saturation levels are not NaN")
    }
}

/// Reusable buffers for [`waterfill_event_into`]: every per-call allocation
/// of the event kernel (index arenas, residual tables, the saturation heap,
/// the cap sweep order) plus the staging vectors the serial component loop
/// uses to assemble each sub-problem. Buffers are **cleared, not freed**
/// between solves, so the drain hot loop stops allocating once the largest
/// component has been seen; `hwm_bytes` records the arena's high-water mark
/// for [`DrainSolverStats`](crate::DrainSolverStats).
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
    cap_order: Vec<u32>,
    /// Staging for the serial component loop (link capacities, masked caps
    /// and rates of the component being solved).
    local_capacity: Vec<f64>,
    local_caps: Vec<f64>,
    local_rates: Vec<f64>,
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
            + self.heap.capacity() * std::mem::size_of::<LinkEvent>()
            + self.cap_order.capacity() * 4
            + self.local_capacity.capacity() * 8
            + self.local_caps.capacity() * 8
            + self.local_rates.capacity() * 8;
        if bytes > self.hwm_bytes {
            self.hwm_bytes = bytes;
        }
    }
}

/// Event-driven progressive-filling kernel — the fast path behind
/// [`MaxMinState`]. Allocation-free wrapper state lives in `scratch`; see
/// [`waterfill_event_into`] for the algorithm.
fn waterfill_event(capacity: &[f64], links_of: &RouteTable, caps: &[f64], rates: &mut [f64]) {
    let mut scratch = SolveScratch::default();
    waterfill_event_into(capacity, links_of, caps, rates, &mut scratch, None);
}

/// Event-driven progressive-filling kernel.
///
/// Exploits the invariant that every *active* flow sits at the same water
/// level `L`: instead of raising rates round by round, it jumps `L` directly
/// to the next constraint — the smallest finite cap (flows sorted by cap
/// once) or the lowest link-saturation level (a lazy min-heap keyed by
/// `L + remaining/active_count`, re-pushed whenever a freeze changes a
/// link's count). Each flow freezes exactly once and each freeze touches
/// only that flow's links, so a solve costs `O(E log E)` in the total route
/// length `E` — versus the reference kernel's `O(flows · (links + flows))`.
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
/// When `levels` is provided it receives each link's final saturation level:
/// the water level at which the link's residual reached zero, or
/// [`UNBOUNDED`] for links that never saturated. This is the per-link
/// bottleneck ("advertised") level the two-tier solve seeds its fixed point
/// with.
fn waterfill_event_into(
    capacity: &[f64],
    links_of: &RouteTable,
    caps: &[f64],
    rates: &mut [f64],
    scratch: &mut SolveScratch,
    levels: Option<&mut Vec<f64>>,
) {
    let nf = links_of.len();
    debug_assert_eq!(caps.len(), nf);
    debug_assert_eq!(rates.len(), nf);
    let nl = capacity.len();
    // Saturation levels for a problem with no routed flows: a link is
    // "saturated" only if it has no capacity at all.
    let trivial_levels = |levels: Option<&mut Vec<f64>>| {
        if let Some(levels) = levels {
            levels.clear();
            levels.extend(
                capacity
                    .iter()
                    .map(|c| if c.max(0.0) == 0.0 { 0.0 } else { UNBOUNDED }),
            );
        }
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
            rates[f] = if caps[f].is_finite() {
                caps[f].max(0.0)
            } else {
                UNBOUNDED
            };
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

    // Flows with finite caps, sorted ascending; swept once.
    let cap_order = &mut scratch.cap_order;
    cap_order.clear();
    cap_order
        .extend((0..nf as u32).filter(|&f| active[f as usize] && caps[f as usize].is_finite()));
    cap_order.sort_unstable_by(|&a, &b| {
        caps[a as usize]
            .partial_cmp(&caps[b as usize])
            .expect("caps are not NaN")
    });
    let mut cap_idx = 0usize;

    let mut level = 0.0_f64;
    // Freezes `f` at the current level (or its cap), releasing its links.
    // Returns the links touched so the caller refreshes their heap entries.
    while n_active > 0 {
        // Next cap constraint.
        while cap_idx < cap_order.len() && !active[cap_order[cap_idx] as usize] {
            cap_idx += 1;
        }
        let cap_level = if cap_idx < cap_order.len() {
            caps[cap_order[cap_idx] as usize].max(0.0)
        } else {
            f64::INFINITY
        };

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

        if cap_level <= link_level {
            if !cap_level.is_finite() {
                // No finite constraint left: the reference kernel's
                // stalemate guard freezes everyone at the current level.
                for f in 0..nf {
                    if active[f] {
                        rates[f] = level;
                        active[f] = false;
                    }
                }
                break;
            }
            // Cap event: freeze every active flow at this cap value.
            level = cap_level;
            let cap_value = caps[cap_order[cap_idx] as usize];
            while cap_idx < cap_order.len() {
                let f = cap_order[cap_idx] as usize;
                if active[f] && caps[f] > cap_value {
                    break;
                }
                cap_idx += 1;
                if !active[f] {
                    continue;
                }
                active[f] = false;
                n_active -= 1;
                rates[f] = caps[f].max(0.0);
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
        } else {
            let Some(l0) = link_event else {
                // No constraint at all (empty heap, no caps): freeze at the
                // current level, mirroring the reference stalemate guard.
                for f in 0..nf {
                    if active[f] {
                        rates[f] = level;
                        active[f] = false;
                    }
                }
                break;
            };
            // Link event: the link saturates at `link_level`; its active
            // flows freeze there.
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
    }

    if let Some(levels) = levels {
        // A link's final `remaining` is its residual at `base_level` with
        // every subscriber frozen, so residual ≈ 0 means the link saturated
        // exactly at `base_level` — the advertised level the two-tier solve
        // seeds with. Links with slack never constrain anyone.
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

/// What the last [`MaxMinState::refresh`] call actually re-solved — the
/// dirty-component feed the event-driven drain loop consumes to update its
/// link loads, congestion scores and completion heap incrementally instead
/// of rebuilding them over every active flow each event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveScope {
    /// Nothing was dirty: no rate changed since the previous refresh.
    Unchanged,
    /// Only the components listed by [`MaxMinState::resolved_components`]
    /// re-solved; every other flow's rate is bit-identical to before.
    Components,
    /// Two-tier propagation ran: only the flows listed by
    /// [`MaxMinState::changed_flows`] have different rates — every other
    /// flow's rate is bit-identical to before. Only produced under
    /// [`SolveMode::TwoTier`].
    Sparse,
    /// A full solve ran (with re-partition): component ids were reassigned
    /// and every rate is fresh — derived state must rebuild from scratch.
    Full,
}

/// How [`MaxMinState`] re-solves after perturbations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SolveMode {
    /// Component-granular exact re-solves — bit-identical to the reference
    /// solver within 1e-9 and to itself at any thread count. The default
    /// everywhere.
    #[default]
    Exact,
    /// Two-tier approximate re-solves: pod-local updates propagate exactly,
    /// while updates crossing designated *spine* links
    /// ([`MaxMinState::set_spine_links`]) only commit when a link's
    /// advertised bottleneck level moves by more than `epsilon / 8`
    /// relative. Bounds every flow's rate within `epsilon` relative of the
    /// exact allocation (pinned by `tests/maxmin_differential.rs`) while
    /// turning each perturbation into work proportional to the links it
    /// actually moved — instead of an exact re-solve of the spine-connected
    /// giant component.
    TwoTier {
        /// Maximum relative rate error tolerated against the exact solver.
        epsilon: f64,
    },
}

/// Incremental state for [`SolveMode::TwoTier`]: a Charny-style fixed point
/// over per-link advertised bottleneck levels `mu`.
///
/// Invariants at quiescence: `mu[l]` is the water level at which link `l`
/// saturates given its alive subscribers' demands (or [`UNBOUNDED`] when it
/// never constrains anyone); each flow's `(min1, min1_link, min2)` caches
/// the two smallest `mu` values on its route; and each flow's rate is
/// `min(cap, min1)`. Perturbations mark route links dirty, and the worklist
/// re-fills each dirty link from its subscribers' demands — committing (and
/// rescanning subscribers) only when the level moves past the link's gate.
#[derive(Debug, Clone, Default)]
struct TwoTierState {
    /// Whether `mu`/triples/subscribers reflect the current flow table.
    initialized: bool,
    /// Advertised saturation level per link.
    mu: Vec<f64>,
    /// Subscriber CSR: alive routed flows per link (stale entries are
    /// alive-checked; compacted when dead entries reach half the table).
    sub_offsets: Vec<u32>,
    sub_flows: Vec<u32>,
    /// CSR entries owned by removed flows (compaction trigger).
    sub_dead_entries: usize,
    /// Smallest and second-smallest `mu` on each flow's route, plus the
    /// link holding the smallest.
    min1: Vec<f64>,
    min1_link: Vec<u32>,
    min2: Vec<f64>,
    /// Worklist of links whose fill level must be recomputed.
    link_dirty: Vec<bool>,
    dirty_links: Vec<u32>,
    /// Flows whose rate changed since the last refresh (mask-deduped).
    flow_mask: Vec<bool>,
    pending: Vec<u32>,
    /// The changed-flow set of the *last* refresh (ascending) — the
    /// [`SolveScope::Sparse`] feed.
    changed: Vec<u32>,
    /// Scratch: demand staging for the per-link fill, and the per-round
    /// worklist batch.
    demand: Vec<f64>,
    batch: Vec<u32>,
    /// Statistics for [`DrainSolverStats`](crate::DrainSolverStats).
    sparse_solves: u64,
    spine_rounds: u64,
    spine_link_updates: u64,
    fallback_solves: u64,
}

impl TwoTierState {
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
}

/// One connected component of the flow–link sharing graph — the "pod" unit
/// of the hierarchical solve. All per-flow data is struct-of-arrays: the
/// flow ids, the CSR route table and the (caller-built) cap/rate slices are
/// parallel arrays, so a component re-solve streams contiguously.
#[derive(Debug, Clone, Default)]
struct Component {
    /// Flow ids in this component (alive at partition time), ascending.
    flows: Vec<u32>,
    /// Links referenced by those flows (original link-table indices).
    links: Vec<u32>,
    /// Per-flow routes in component-local dense indices (into `links`),
    /// parallel to `flows`, flattened CSR. Built once per partition so a
    /// component re-solve allocates nothing route-shaped.
    local_routes: RouteTable,
    /// Flows of this component still alive.
    alive_count: usize,
}

impl Component {
    /// Flows removed since this component was (re)built.
    fn dead_count(&self) -> usize {
        self.flows.len() - self.alive_count
    }
}

/// Persistent max-min problem with incremental re-solving.
///
/// The access pattern is: build the problem once, then apply small
/// perturbations — a flow completes ([`remove_flow`], the only one the
/// drain loop issues), a flow's cap moves ([`rate_perturb`]), a link
/// degrades or dies ([`link_change`]) — and re-read [`rates`]. The state partitions
/// flows into connected components (two flows are connected when they share
/// a link, transitively) and re-runs the event-driven water-filling kernel
/// only over components containing a change. Max-min fairness is separable
/// across components and the event kernel computes the same fixed point as
/// the textbook loop, so the result matches the reference [`solve`] up to
/// floating-point association and the reference's `eps` freeze threshold
/// (≪ 1e-9 relative; `tests/maxmin_differential.rs` enforces this).
///
/// **Hierarchical re-partitioning.** The component tables are maintained at
/// two levels. Flow *additions* (which may merge components) trigger the
/// spine-level path: one global union-find re-partition plus a full
/// re-solve. Flow *removals* never merge components, so they are handled at
/// the pod level: when a dirty component's dead mass reaches its live mass,
/// just that component is rebuilt in place from its own live flows —
/// splitting pieces that removals disconnected and dropping dead flows from
/// its tables — under `SolveScope::Components`. Quiescent components are
/// never touched, scanned, or reallocated, which is what keeps 16k–32k-GPU
/// drains (hundreds of thousands of flows) event-cost-proportional to the
/// traffic that actually changed.
///
/// **Parallelism.** Components are independent sub-problems, so a batch of
/// re-solves (dirty components, or all components after a full
/// invalidation) fans out over a [`ParallelPolicy`]-sized scoped-thread
/// pool via [`scoped_map`]. Each component's rates are a pure function of
/// its own links/caps and worker results merge back in component-index
/// order, so allocations are **bit-identical to the serial path at any
/// thread count** — `tests/maxmin_differential.rs` pins this exactly.
///
/// [`remove_flow`]: MaxMinState::remove_flow
/// [`rate_perturb`]: MaxMinState::rate_perturb
/// [`link_change`]: MaxMinState::link_change
/// [`rates`]: MaxMinState::rates
#[derive(Debug, Clone)]
pub struct MaxMinState {
    capacity: Vec<f64>,
    /// Normalized (sorted, deduped) route per flow, original link indices,
    /// flattened CSR (struct-of-arrays).
    routes: RouteTable,
    /// Requested cap per flow (`INFINITY` = uncapped).
    caps: Vec<f64>,
    alive: Vec<bool>,
    n_alive: usize,
    rates: Vec<f64>,

    comps: Vec<Component>,
    /// Component id per flow; `u32::MAX` for empty-route flows.
    comp_of_flow: Vec<u32>,
    /// Component id per link; `u32::MAX` for unreferenced links.
    comp_of_link: Vec<u32>,
    dirty: Vec<bool>,
    dirty_list: Vec<u32>,
    /// Flows added since the partition was built force a full re-solve.
    partition_stale: bool,
    /// What the last [`refresh`](MaxMinState::refresh) re-solved.
    last_scope: SolveScope,
    /// Component ids re-solved by the last refresh (when `last_scope` is
    /// [`SolveScope::Components`]), ascending.
    last_resolved: Vec<u32>,
    /// Thread budget for batched component re-solves.
    parallel: ParallelPolicy,
    /// Statistics: full solves vs component re-solves since construction.
    full_solves: u64,
    component_solves: u64,
    /// Reusable solve arena for the serial path (cleared, never freed).
    /// Worker threads allocate their own buffers; the merge order makes the
    /// results bit-identical either way.
    scratch: SolveScratch,
    /// Exact (default) or two-tier approximate re-solving.
    mode: SolveMode,
    /// Spine-link mask for [`SolveMode::TwoTier`] gating (empty = no link
    /// is spine: everything propagates at the exactness gate).
    spine: Vec<bool>,
    two_tier: TwoTierState,
}

/// Relative change below which a non-spine link's advertised level is not
/// worth re-propagating under [`SolveMode::TwoTier`] — tight enough that
/// pod-local arithmetic stays effectively exact.
const POD_GATE: f64 = 1e-12;

/// Worklist rounds before a two-tier propagation gives up and falls back
/// to one exact global solve (convergence insurance; the Charny iteration
/// settles in a handful of rounds in practice).
const TWO_TIER_MAX_ROUNDS: usize = 64;

impl MaxMinState {
    /// Creates an empty state over the given link-capacity table.
    pub fn new(capacity: &[f64]) -> Self {
        MaxMinState {
            capacity: capacity.to_vec(),
            routes: RouteTable::default(),
            caps: Vec::new(),
            alive: Vec::new(),
            n_alive: 0,
            rates: Vec::new(),
            comps: Vec::new(),
            comp_of_flow: Vec::new(),
            comp_of_link: vec![u32::MAX; capacity.len()],
            dirty: Vec::new(),
            dirty_list: Vec::new(),
            partition_stale: true,
            last_scope: SolveScope::Unchanged,
            last_resolved: Vec::new(),
            parallel: ParallelPolicy::default(),
            full_solves: 0,
            component_solves: 0,
            scratch: SolveScratch::default(),
            mode: SolveMode::Exact,
            spine: Vec::new(),
            two_tier: TwoTierState::default(),
        }
    }

    /// Sets the solve mode (builder form). Switching modes invalidates the
    /// incremental tables; the next refresh runs one full solve.
    pub fn with_solve_mode(mut self, mode: SolveMode) -> Self {
        self.set_solve_mode(mode);
        self
    }

    /// Sets the solve mode. Switching modes invalidates the incremental
    /// tables; the next refresh runs one full solve.
    pub fn set_solve_mode(&mut self, mode: SolveMode) {
        if self.mode == mode {
            return;
        }
        self.mode = mode;
        self.partition_stale = true;
        self.two_tier.initialized = false;
    }

    /// The current solve mode.
    pub fn solve_mode(&self) -> SolveMode {
        self.mode
    }

    /// Marks which links belong to the spine tier for
    /// [`SolveMode::TwoTier`] gating. `mask` is indexed like the capacity
    /// table; out-of-range links default to non-spine. A no-op for
    /// [`SolveMode::Exact`] correctness (the mask only affects gating).
    pub fn set_spine_links(&mut self, mask: &[bool]) {
        self.spine.clear();
        self.spine.extend_from_slice(mask);
    }

    /// Sets the thread budget for batched component re-solves (builder
    /// form). The allocation is bit-identical at any thread count; this
    /// only trades wall-clock time.
    pub fn with_parallel(mut self, parallel: ParallelPolicy) -> Self {
        self.parallel = parallel;
        self
    }

    /// Sets the thread budget for batched component re-solves.
    pub fn set_parallel(&mut self, parallel: ParallelPolicy) {
        self.parallel = parallel;
    }

    /// The current thread budget.
    pub fn parallel(&self) -> ParallelPolicy {
        self.parallel
    }

    /// Creates a state pre-loaded with flows (the drain-loop entry path).
    pub fn with_flows(capacity: &[f64], routes: &[Vec<u32>], caps: Option<&RateCaps>) -> Self {
        if let Some(c) = caps {
            assert_eq!(c.len(), routes.len(), "caps length must match flow count");
        }
        let mut s = Self::new(capacity);
        for (f, r) in routes.iter().enumerate() {
            s.add_flow(r, caps.map_or(f64::INFINITY, |c| c[f]));
        }
        s
    }

    /// Adds a flow; returns its id (dense, in insertion order).
    ///
    /// Adding flows marks the partition stale: the next [`rates`] call runs
    /// one full solve and re-partitions.
    ///
    /// [`rates`]: MaxMinState::rates
    ///
    /// # Panics
    ///
    /// Panics if the route references a link beyond the capacity table.
    pub fn add_flow(&mut self, route: &[u32], cap: f64) -> usize {
        let ls = normalize_route(route, self.capacity.len());
        let f = self.routes.len();
        self.rates.push(if ls.is_empty() {
            if cap.is_finite() {
                cap.max(0.0)
            } else {
                UNBOUNDED
            }
        } else {
            0.0
        });
        self.routes.push(&ls);
        self.caps.push(cap);
        self.alive.push(true);
        self.comp_of_flow.push(u32::MAX);
        self.n_alive += 1;
        self.partition_stale = true;
        f
    }

    /// Removes a flow (completion): its capacity share is released and only
    /// its component re-solves on the next [`rates`] call.
    ///
    /// [`rates`]: MaxMinState::rates
    pub fn remove_flow(&mut self, f: usize) {
        if !self.alive[f] {
            return;
        }
        self.alive[f] = false;
        self.n_alive -= 1;
        self.rates[f] = 0.0;
        if matches!(self.mode, SolveMode::TwoTier { .. }) {
            if self.two_tier.initialized {
                let MaxMinState {
                    routes,
                    alive,
                    two_tier,
                    ..
                } = self;
                let r = routes.route(f);
                if !two_tier.flow_mask[f] {
                    two_tier.flow_mask[f] = true;
                    two_tier.pending.push(f as u32);
                }
                for &l in r {
                    if !two_tier.link_dirty[l as usize] {
                        two_tier.link_dirty[l as usize] = true;
                        two_tier.dirty_links.push(l);
                    }
                }
                two_tier.sub_dead_entries += r.len();
                if two_tier.sub_dead_entries * 2 >= two_tier.sub_flows.len() {
                    two_tier.compact_subscribers(alive);
                }
            }
            return;
        }
        let c = self.comp_of_flow[f];
        if c != u32::MAX {
            self.comps[c as usize].alive_count =
                self.comps[c as usize].alive_count.saturating_sub(1);
            self.mark_dirty(c);
        }
    }

    /// Changes a flow's rate cap (DCQCN noise epoch); a no-op when the cap
    /// is unchanged, otherwise dirties the flow's component.
    pub fn rate_perturb(&mut self, f: usize, cap: f64) {
        if self.caps[f] == cap || !self.alive[f] {
            if self.alive[f] {
                self.caps[f] = cap;
            }
            return;
        }
        self.caps[f] = cap;
        if matches!(self.mode, SolveMode::TwoTier { .. }) {
            if self.two_tier.initialized {
                let MaxMinState {
                    routes,
                    rates,
                    two_tier,
                    ..
                } = self;
                let r = routes.route(f);
                // The rate tracks `min(cap, min1)` immediately — a cap move
                // must reach the drain even when no link level re-commits.
                let new_rate = if r.is_empty() {
                    if cap.is_finite() {
                        cap.max(0.0)
                    } else {
                        UNBOUNDED
                    }
                } else if cap.is_finite() {
                    cap.max(0.0).min(two_tier.min1[f])
                } else {
                    two_tier.min1[f]
                };
                if new_rate.to_bits() != rates[f].to_bits() {
                    rates[f] = new_rate;
                    if !two_tier.flow_mask[f] {
                        two_tier.flow_mask[f] = true;
                        two_tier.pending.push(f as u32);
                    }
                }
                // The flow's demand toward every route link changed.
                for &l in r {
                    if !two_tier.link_dirty[l as usize] {
                        two_tier.link_dirty[l as usize] = true;
                        two_tier.dirty_links.push(l);
                    }
                }
            }
            return;
        }
        let c = self.comp_of_flow[f];
        if c == u32::MAX {
            // Empty-route flow: rate is its cap directly.
            self.rates[f] = if cap.is_finite() {
                cap.max(0.0)
            } else {
                UNBOUNDED
            };
        } else {
            self.mark_dirty(c);
        }
    }

    /// Changes a link's capacity (degradation, failure, recovery); dirties
    /// the component crossing that link.
    ///
    /// # Panics
    ///
    /// Panics if `l` is beyond the capacity table.
    pub fn link_change(&mut self, l: usize, capacity: f64) {
        if self.capacity[l] == capacity {
            return;
        }
        self.capacity[l] = capacity;
        if matches!(self.mode, SolveMode::TwoTier { .. }) {
            if self.two_tier.initialized && !self.two_tier.link_dirty[l] {
                self.two_tier.link_dirty[l] = true;
                self.two_tier.dirty_links.push(l as u32);
            }
            return;
        }
        let c = self.comp_of_link[l];
        if c != u32::MAX {
            self.mark_dirty(c);
        }
    }

    /// The current allocation, re-solving lazily. Indexed by flow id;
    /// entries of removed flows read 0.
    pub fn rates(&mut self) -> &[f64] {
        self.refresh();
        &self.rates
    }

    /// Brings the allocation up to date (lazily, like [`rates`]) and reports
    /// what was re-solved, so derived per-flow state (link loads, scores,
    /// completion events) can be updated for exactly the flows whose rates
    /// may have changed. Read the result via [`current_rates`] and
    /// [`resolved_components`].
    ///
    /// [`rates`]: MaxMinState::rates
    /// [`current_rates`]: MaxMinState::current_rates
    /// [`resolved_components`]: MaxMinState::resolved_components
    pub fn refresh(&mut self) -> SolveScope {
        if let SolveMode::TwoTier { epsilon } = self.mode {
            return self.refresh_two_tier(epsilon);
        }
        self.last_resolved.clear();
        if self.needs_full_solve() {
            self.solve_full();
            self.last_scope = SolveScope::Full;
        } else if !self.dirty_list.is_empty() {
            let mut dirty = std::mem::take(&mut self.dirty_list);
            // Ascending component order keeps the thread-chunk assignment
            // deterministic (the merge is order-independent regardless:
            // components write disjoint flow ranges).
            dirty.sort_unstable();
            for &c in &dirty {
                self.dirty[c as usize] = false;
            }
            // Pod-level incremental re-partition: a dirty component whose
            // dead mass reached its live mass is rebuilt in place from its
            // own live flows (splitting pieces that removals disconnected
            // and dropping dead flows from its tables) before solving.
            // Removals never merge components, so this is exact — and it
            // happens entirely under `SolveScope::Components`, so quiescent
            // components are never touched even while long drains churn.
            let mut resolved: Vec<u32> = Vec::with_capacity(dirty.len());
            for &c in &dirty {
                let comp = &self.comps[c as usize];
                if comp.alive_count > 0 && comp.dead_count() >= comp.alive_count {
                    self.split_component(c, &mut resolved);
                } else {
                    resolved.push(c);
                }
            }
            // New piece ids append past the existing table, so ascending
            // order (the drain's per-link re-accumulation contract) needs
            // one sort.
            resolved.sort_unstable();
            self.solve_components(&resolved);
            self.component_solves += resolved.len() as u64;
            self.last_resolved = resolved;
            self.last_scope = SolveScope::Components;
        } else {
            self.last_scope = SolveScope::Unchanged;
        }
        self.last_scope
    }

    /// The allocation as of the last [`refresh`]/[`rates`] call, without
    /// re-solving. Indexed by flow id; removed flows read 0.
    ///
    /// [`refresh`]: MaxMinState::refresh
    /// [`rates`]: MaxMinState::rates
    pub fn current_rates(&self) -> &[f64] {
        &self.rates
    }

    /// Component ids the last [`refresh`](MaxMinState::refresh) re-solved
    /// (ascending). Meaningful when it returned [`SolveScope::Components`];
    /// empty after `Unchanged` or `Full`.
    pub fn resolved_components(&self) -> &[u32] {
        &self.last_resolved
    }

    /// The flows of component `c` as of the current partition, ascending.
    /// Includes flows removed since the partition was built (their rates
    /// read 0).
    pub fn component_flows(&self, c: u32) -> &[u32] {
        &self.comps[c as usize].flows
    }

    /// The links of component `c`, as indices into the capacity table this
    /// state was built over.
    pub fn component_links(&self, c: u32) -> &[u32] {
        &self.comps[c as usize].links
    }

    /// Live (not-removed) flow count.
    pub fn n_alive(&self) -> usize {
        self.n_alive
    }

    /// Number of connected components in the current partition (0 before
    /// the first solve).
    pub fn component_count(&self) -> usize {
        self.comps.len()
    }

    /// How many full solves this state has run (diagnostics/benchmarks).
    pub fn full_solves(&self) -> u64 {
        self.full_solves
    }

    /// How many single-component re-solves this state has run.
    pub fn component_solves(&self) -> u64 {
        self.component_solves
    }

    /// High-water mark (bytes) of the reusable solve arena — how much
    /// scratch the serial kernel path retains between solves.
    pub fn arena_hwm_bytes(&self) -> usize {
        self.scratch.hwm_bytes
    }

    /// Flows whose rate changed in the last [`refresh`] (ascending, deduped)
    /// — the [`SolveScope::Sparse`] feed. Removed flows appear here once
    /// (their rate dropped to 0). Empty unless the last refresh returned
    /// `Sparse`.
    ///
    /// [`refresh`]: MaxMinState::refresh
    pub fn changed_flows(&self) -> &[u32] {
        &self.two_tier.changed
    }

    /// Routed flows subscribed to dense link `l` (two-tier mode only; empty
    /// before the first two-tier refresh). May still list flows removed
    /// since the last CSR compaction — callers filter by their own liveness.
    pub(crate) fn two_tier_subscribers(&self, l: usize) -> &[u32] {
        let t = &self.two_tier;
        if !t.initialized || l + 1 >= t.sub_offsets.len() {
            return &[];
        }
        &t.sub_flows[t.sub_offsets[l] as usize..t.sub_offsets[l + 1] as usize]
    }

    /// How many sparse (two-tier) propagations this state has run.
    pub fn sparse_solves(&self) -> u64 {
        self.two_tier.sparse_solves
    }

    /// Total worklist rounds across all two-tier propagations.
    pub fn spine_rounds(&self) -> u64 {
        self.two_tier.spine_rounds
    }

    /// How many per-link advertised-level commits two-tier propagation made.
    pub fn spine_link_updates(&self) -> u64 {
        self.two_tier.spine_link_updates
    }

    /// How many two-tier propagations failed to settle and fell back to an
    /// exact global solve.
    pub fn fallback_solves(&self) -> u64 {
        self.two_tier.fallback_solves
    }

    /// [`refresh`](MaxMinState::refresh) under [`SolveMode::TwoTier`].
    fn refresh_two_tier(&mut self, epsilon: f64) -> SolveScope {
        self.last_resolved.clear();
        self.two_tier.changed.clear();
        if self.partition_stale || !self.two_tier.initialized {
            self.two_tier_init();
            self.last_scope = SolveScope::Full;
        } else if self.two_tier.dirty_links.is_empty() && self.two_tier.pending.is_empty() {
            self.last_scope = SolveScope::Unchanged;
        } else if self.two_tier_propagate(epsilon) {
            let t = &mut self.two_tier;
            t.sparse_solves += 1;
            std::mem::swap(&mut t.pending, &mut t.changed);
            t.changed.sort_unstable();
            for &f in &t.changed {
                t.flow_mask[f as usize] = false;
            }
            self.last_scope = SolveScope::Sparse;
        } else {
            // The worklist did not settle within the round budget: fall
            // back to one exact global solve (which also re-seeds `mu`).
            self.two_tier.fallback_solves += 1;
            self.two_tier_init();
            self.last_scope = SolveScope::Full;
        }
        self.last_scope
    }

    /// (Re)seeds the two-tier tables with one exact global solve: rates come
    /// straight from the event kernel, `mu` from its per-link saturation
    /// levels, and the subscriber CSR / route-min triples are rebuilt.
    fn two_tier_init(&mut self) {
        let nf = self.routes.len();
        let nl = self.capacity.len();
        let masked_caps: Vec<f64> = (0..nf).map(|f| self.masked_cap(f)).collect();
        for r in self.rates.iter_mut() {
            *r = 0.0;
        }
        {
            let MaxMinState {
                capacity,
                routes,
                rates,
                scratch,
                two_tier,
                ..
            } = self;
            waterfill_event_into(
                capacity,
                routes,
                &masked_caps,
                rates,
                scratch,
                Some(&mut two_tier.mu),
            );
        }
        let t = &mut self.two_tier;
        // Subscriber CSR over alive routed flows (counting sort).
        t.sub_offsets.clear();
        t.sub_offsets.resize(nl + 1, 0);
        for f in 0..nf {
            if self.alive[f] {
                for &l in self.routes.route(f) {
                    t.sub_offsets[l as usize + 1] += 1;
                }
            }
        }
        for l in 0..nl {
            t.sub_offsets[l + 1] += t.sub_offsets[l];
        }
        t.sub_flows.clear();
        t.sub_flows.resize(t.sub_offsets[nl] as usize, 0);
        {
            let cursor = &mut t.batch;
            cursor.clear();
            cursor.extend_from_slice(&t.sub_offsets[..nl]);
            for f in 0..nf {
                if self.alive[f] {
                    for &l in self.routes.route(f) {
                        t.sub_flows[cursor[l as usize] as usize] = f as u32;
                        cursor[l as usize] += 1;
                    }
                }
            }
            cursor.clear();
        }
        t.sub_dead_entries = 0;
        // Route-min triples from the seeded levels.
        t.min1.clear();
        t.min1.resize(nf, f64::INFINITY);
        t.min1_link.clear();
        t.min1_link.resize(nf, u32::MAX);
        t.min2.clear();
        t.min2.resize(nf, f64::INFINITY);
        for f in 0..nf {
            let (mut m1, mut m1l, mut m2) = (f64::INFINITY, u32::MAX, f64::INFINITY);
            for &l in self.routes.route(f) {
                let v = t.mu[l as usize];
                if v < m1 {
                    m2 = m1;
                    m1 = v;
                    m1l = l;
                } else if v < m2 {
                    m2 = v;
                }
            }
            t.min1[f] = m1;
            t.min1_link[f] = m1l;
            t.min2[f] = m2;
        }
        t.link_dirty.clear();
        t.link_dirty.resize(nl, false);
        t.dirty_links.clear();
        t.flow_mask.clear();
        t.flow_mask.resize(nf, false);
        t.pending.clear();
        t.initialized = true;
        self.partition_stale = false;
        self.full_solves += 1;
    }

    /// Runs the two-tier worklist to quiescence. Returns `false` when the
    /// round budget is exhausted (caller falls back to an exact solve).
    fn two_tier_propagate(&mut self, epsilon: f64) -> bool {
        let MaxMinState {
            capacity,
            routes,
            caps,
            alive,
            rates,
            spine,
            two_tier,
            ..
        } = self;
        let TwoTierState {
            mu,
            sub_offsets,
            sub_flows,
            min1,
            min1_link,
            min2,
            link_dirty,
            dirty_links,
            flow_mask,
            pending,
            demand,
            batch,
            spine_rounds,
            spine_link_updates,
            ..
        } = two_tier;
        let spine_gate = epsilon / 8.0;
        let mut rounds = 0usize;
        while !dirty_links.is_empty() {
            rounds += 1;
            if rounds > TWO_TIER_MAX_ROUNDS {
                return false;
            }
            *spine_rounds += 1;
            batch.clear();
            batch.append(dirty_links);
            // Ascending link order keeps propagation deterministic
            // regardless of the order perturbations arrived in.
            batch.sort_unstable();
            for &l in batch.iter() {
                link_dirty[l as usize] = false;
            }
            for bi in 0..batch.len() {
                let l = batch[bi] as usize;
                let subs = &sub_flows[sub_offsets[l] as usize..sub_offsets[l + 1] as usize];
                // Single-link progressive fill over the alive subscribers'
                // demands (each demand excludes `l` itself: the rate the
                // flow could take if this link did not constrain it).
                demand.clear();
                for &fid in subs {
                    let f = fid as usize;
                    if !alive[f] {
                        continue;
                    }
                    let excl = if min1_link[f] == l as u32 {
                        min2[f]
                    } else {
                        min1[f]
                    };
                    demand.push(excl.min(caps[f].max(0.0)));
                }
                let mut new_mu = UNBOUNDED;
                if !demand.is_empty() {
                    demand.sort_unstable_by(|a, b| a.partial_cmp(b).expect("demands are not NaN"));
                    let mut rem = capacity[l].max(0.0);
                    let mut k = demand.len();
                    for &d in demand.iter() {
                        let share = rem / k as f64;
                        if d <= share {
                            rem -= d;
                            k -= 1;
                        } else {
                            new_mu = share;
                            break;
                        }
                    }
                    // Every demand fit: the link constrains nobody.
                }
                let old_mu = mu[l];
                if new_mu == old_mu {
                    continue;
                }
                let gate = if spine.get(l).copied().unwrap_or(false) {
                    spine_gate
                } else {
                    POD_GATE
                };
                let rel = (new_mu - old_mu).abs() / old_mu.abs().max(new_mu.abs()).max(1.0);
                if rel <= gate {
                    continue;
                }
                mu[l] = new_mu;
                *spine_link_updates += 1;
                // Commit: rescan subscribers' route-min triples; flows whose
                // demand profile moved ripple to their other links.
                for &fid in subs {
                    let f = fid as usize;
                    if !alive[f] {
                        continue;
                    }
                    let r = routes.route(f);
                    let (mut m1, mut m1l, mut m2) = (f64::INFINITY, u32::MAX, f64::INFINITY);
                    for &rl in r {
                        let v = mu[rl as usize];
                        if v < m1 {
                            m2 = m1;
                            m1 = v;
                            m1l = rl;
                        } else if v < m2 {
                            m2 = v;
                        }
                    }
                    if m1.to_bits() == min1[f].to_bits()
                        && m1l == min1_link[f]
                        && m2.to_bits() == min2[f].to_bits()
                    {
                        continue;
                    }
                    min1[f] = m1;
                    min1_link[f] = m1l;
                    min2[f] = m2;
                    let new_rate = if caps[f].is_finite() {
                        caps[f].max(0.0).min(m1)
                    } else {
                        m1
                    };
                    if new_rate.to_bits() != rates[f].to_bits() {
                        rates[f] = new_rate;
                        if !flow_mask[f] {
                            flow_mask[f] = true;
                            pending.push(fid);
                        }
                    }
                    for &rl in r {
                        if rl as usize != l && !link_dirty[rl as usize] {
                            link_dirty[rl as usize] = true;
                            dirty_links.push(rl);
                        }
                    }
                }
            }
        }
        true
    }

    fn mark_dirty(&mut self, c: u32) {
        if !self.dirty[c as usize] {
            self.dirty[c as usize] = true;
            self.dirty_list.push(c);
        }
    }

    fn needs_full_solve(&self) -> bool {
        // Only flow *additions* force the global path: a new flow may merge
        // components, which the pod-level splitter cannot express. Removals
        // are handled incrementally at partition granularity by
        // [`split_component`](Self::split_component) during refresh.
        self.partition_stale
    }

    /// Masked cap table: removed flows get cap 0, pinning them to rate 0
    /// without rebuilding route tables (a zero-capped flow frees its links
    /// in the kernel's first freeze pass).
    fn masked_cap(&self, f: usize) -> f64 {
        if self.alive[f] {
            self.caps[f]
        } else {
            0.0
        }
    }

    /// Full invalidation: re-partition from the current live flows, then
    /// re-solve every component (fanned out under the thread budget).
    ///
    /// Partitioning first — rather than one monolithic waterfill over the
    /// whole problem — keeps the full path on the exact same per-component
    /// arithmetic as the incremental path, which is what makes parallel
    /// and serial execution bit-identical everywhere.
    fn solve_full(&mut self) {
        self.rebuild_partition();
        for f in 0..self.routes.len() {
            self.rates[f] = if !self.alive[f] {
                0.0
            } else if self.routes.route(f).is_empty() {
                // Unconstrained flow: its cap (or "infinity").
                if self.caps[f].is_finite() {
                    self.caps[f].max(0.0)
                } else {
                    UNBOUNDED
                }
            } else {
                0.0
            };
        }
        let all: Vec<u32> = (0..self.comps.len() as u32).collect();
        self.solve_components(&all);
        self.full_solves += 1;
    }

    /// Re-solves the given components, in parallel when the batch is big
    /// enough, and merges the rates back in component-index order.
    fn solve_components(&mut self, comp_ids: &[u32]) {
        if comp_ids.is_empty() {
            return;
        }
        let work: usize = comp_ids
            .iter()
            .map(|&c| self.comps[c as usize].alive_count)
            .sum();
        let policy = if work < PARALLEL_MIN_FLOWS {
            ParallelPolicy::SERIAL
        } else {
            self.parallel
        };
        if policy.threads() <= 1 {
            // Serial fast path: solve each component in place through the
            // state-owned scratch arena — zero allocations once the arena
            // has grown to the largest component. Same kernel, same inputs,
            // same merge order as the fan-out below, so the rates are
            // bit-identical to the parallel path.
            let MaxMinState {
                capacity,
                caps,
                alive,
                rates,
                comps,
                scratch,
                ..
            } = self;
            let mut local_capacity = std::mem::take(&mut scratch.local_capacity);
            let mut local_caps = std::mem::take(&mut scratch.local_caps);
            let mut local_rates = std::mem::take(&mut scratch.local_rates);
            for &c in comp_ids {
                let comp = &comps[c as usize];
                local_capacity.clear();
                local_capacity.extend(comp.links.iter().map(|&l| capacity[l as usize]));
                local_caps.clear();
                local_caps.extend(comp.flows.iter().map(|&f| {
                    if alive[f as usize] {
                        caps[f as usize]
                    } else {
                        0.0
                    }
                }));
                local_rates.clear();
                local_rates.resize(comp.flows.len(), 0.0);
                waterfill_event_into(
                    &local_capacity,
                    &comp.local_routes,
                    &local_caps,
                    &mut local_rates,
                    scratch,
                    None,
                );
                for (i, &f) in comp.flows.iter().enumerate() {
                    rates[f as usize] = local_rates[i];
                }
            }
            scratch.local_capacity = local_capacity;
            scratch.local_caps = local_caps;
            scratch.local_rates = local_rates;
            scratch.note_hwm();
            return;
        }
        let results: Vec<Vec<f64>> = {
            let this = &*self;
            scoped_map(policy, comp_ids, |&c| this.component_rates(c as usize))
        };
        let comps = &self.comps;
        let rates = &mut self.rates;
        for (&c, local) in comp_ids.iter().zip(&results) {
            for (i, &f) in comps[c as usize].flows.iter().enumerate() {
                rates[f as usize] = local[i];
            }
        }
    }

    /// The pure per-component solve: rates of `comps[c].flows` (in that
    /// order) as a function of nothing but the component's own links,
    /// routes and caps. Safe to run concurrently for distinct components.
    fn component_rates(&self, c: usize) -> Vec<f64> {
        let comp = &self.comps[c];
        let local_capacity: Vec<f64> = comp
            .links
            .iter()
            .map(|&l| self.capacity[l as usize])
            .collect();
        let caps: Vec<f64> = comp
            .flows
            .iter()
            .map(|&f| self.masked_cap(f as usize))
            .collect();
        let mut local_rates = vec![0.0_f64; comp.flows.len()];
        waterfill_event(&local_capacity, &comp.local_routes, &caps, &mut local_rates);
        local_rates
    }

    /// Rebuilds the flow–link connected components via union-find over
    /// links, using only live flows (so removals split components here).
    /// This is the spine-level (global) path, taken only when flows were
    /// added; removals re-partition pod-locally via
    /// [`split_component`](Self::split_component).
    fn rebuild_partition(&mut self) {
        let nl = self.capacity.len();
        // Union-find over links (shared helper — C4P's batch partitioner
        // uses the same structure).
        let mut uf = UnionFind::new(nl);
        for f in 0..self.routes.len() {
            let r = self.routes.route(f);
            if !self.alive[f] || r.is_empty() {
                continue;
            }
            for &l in &r[1..] {
                uf.union(l, r[0]);
            }
        }

        self.comps.clear();
        self.comp_of_link.clear();
        self.comp_of_link.resize(nl, u32::MAX);
        let mut comp_of_root: Vec<u32> = vec![u32::MAX; nl];
        for f in 0..self.routes.len() {
            self.comp_of_flow[f] = u32::MAX;
            if !self.alive[f] || self.routes.route(f).is_empty() {
                continue;
            }
            let root = uf.find(self.routes.route(f)[0]);
            let c = if comp_of_root[root as usize] == u32::MAX {
                let c = self.comps.len() as u32;
                comp_of_root[root as usize] = c;
                self.comps.push(Component::default());
                c
            } else {
                comp_of_root[root as usize]
            };
            self.comp_of_flow[f] = c;
            let comp = &mut self.comps[c as usize];
            comp.flows.push(f as u32);
            comp.alive_count += 1;
        }
        // Component link sets + local dense routes (flattened CSR).
        let mut local_of_link: Vec<u32> = vec![u32::MAX; nl];
        let routes = &self.routes;
        for comp in &mut self.comps {
            for &f in &comp.flows {
                let r = routes.route(f as usize);
                let mut local: Vec<u32> = Vec::with_capacity(r.len());
                for &l in r {
                    if local_of_link[l as usize] == u32::MAX {
                        local_of_link[l as usize] = comp.links.len() as u32;
                        comp.links.push(l);
                    }
                    local.push(local_of_link[l as usize]);
                }
                local.sort_unstable();
                comp.local_routes.push(&local);
            }
            for &l in &comp.links {
                local_of_link[l as usize] = u32::MAX;
            }
        }
        for (c, comp) in self.comps.iter().enumerate() {
            for &l in &comp.links {
                self.comp_of_link[l as usize] = c as u32;
            }
        }
        self.dirty.clear();
        self.dirty.resize(self.comps.len(), false);
        self.dirty_list.clear();
        self.partition_stale = false;
    }

    /// Pod-level incremental re-partition: rebuilds dead-heavy component
    /// `c` in place from its live flows only, never touching the rest of
    /// the fabric.
    ///
    /// The live flows are re-grouped by a union-find over the component's
    /// *local* link space; the first piece reuses slot `c` and further
    /// disconnected pieces append as fresh components. Dead flows drop out
    /// of every table (`comp_of_flow` reads `u32::MAX`), so long drains
    /// keep their re-solve cost proportional to the surviving flows — the
    /// rebuild is O(component routes) and amortizes to O(1) per removal.
    /// Old links referenced by no surviving flow stay listed on the first
    /// piece: scope-`Components` consumers must still see them once to
    /// re-zero their derived loads, and they cost nothing in the kernel
    /// (no route references them).
    ///
    /// Exactness: max-min allocations are independent of partition
    /// granularity — a component solved whole is bit-identical to its
    /// disconnected pieces solved separately — and removals never merge
    /// components, so rebuilding `c` alone is safe. Ids of every piece are
    /// pushed onto `resolved`.
    fn split_component(&mut self, c: u32, resolved: &mut Vec<u32>) {
        let old = std::mem::take(&mut self.comps[c as usize]);
        let n_local = old.links.len();
        let mut uf = UnionFind::new(n_local);
        for (i, &f) in old.flows.iter().enumerate() {
            if !self.alive[f as usize] {
                continue;
            }
            let r = old.local_routes.route(i);
            for &l in &r[1..] {
                uf.union(l, r[0]);
            }
        }

        // One pass distributes live flows to pieces and re-densifies their
        // routes. Pieces are link-disjoint, so the first piece to claim a
        // link owns it (`link_piece`/`link_local` never conflict).
        let mut piece_of_root: Vec<u32> = vec![u32::MAX; n_local];
        let mut link_piece: Vec<u32> = vec![u32::MAX; n_local];
        let mut link_local: Vec<u32> = vec![0; n_local];
        let mut pieces: Vec<Component> = Vec::new();
        for (i, &f) in old.flows.iter().enumerate() {
            if !self.alive[f as usize] {
                self.comp_of_flow[f as usize] = u32::MAX;
                continue;
            }
            let r = old.local_routes.route(i);
            let root = uf.find(r[0]) as usize;
            let p = if piece_of_root[root] == u32::MAX {
                let p = pieces.len() as u32;
                piece_of_root[root] = p;
                pieces.push(Component::default());
                p
            } else {
                piece_of_root[root]
            };
            let piece = &mut pieces[p as usize];
            let mut local: Vec<u32> = Vec::with_capacity(r.len());
            for &l in r {
                if link_piece[l as usize] != p {
                    link_piece[l as usize] = p;
                    link_local[l as usize] = piece.links.len() as u32;
                    piece.links.push(old.links[l as usize]);
                }
                local.push(link_local[l as usize]);
            }
            local.sort_unstable();
            piece.flows.push(f);
            piece.local_routes.push(&local);
            piece.alive_count += 1;
        }
        debug_assert!(!pieces.is_empty(), "split_component needs a live flow");

        // Orphan links (no surviving flow) ride on the first piece.
        for (l, &owner) in link_piece.iter().enumerate() {
            if owner == u32::MAX {
                pieces[0].links.push(old.links[l]);
            }
        }

        // Install: piece 0 reuses slot `c`, the rest append.
        let mut ids: Vec<u32> = Vec::with_capacity(pieces.len());
        for (k, piece) in pieces.into_iter().enumerate() {
            let id = if k == 0 {
                c
            } else {
                self.comps.push(Component::default());
                self.dirty.push(false);
                (self.comps.len() - 1) as u32
            };
            for &f in &piece.flows {
                self.comp_of_flow[f as usize] = id;
            }
            for &l in &piece.links {
                self.comp_of_link[l as usize] = id;
            }
            self.comps[id as usize] = piece;
            ids.push(id);
        }
        resolved.extend_from_slice(&ids);
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
        caps: &[f64],
        alive: &[bool],
    ) {
        let live_routes: Vec<Vec<u32>> = routes
            .iter()
            .zip(alive)
            .filter(|(_, &a)| a)
            .map(|(r, _)| r.clone())
            .collect();
        let live_caps: Vec<f64> = caps
            .iter()
            .zip(alive)
            .filter(|(_, &a)| a)
            .map(|(c, _)| *c)
            .collect();
        let expect = solve(capacity, &live_routes, Some(&live_caps));
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
        // Two components: {0,1} via links {0,1}; {2,3} via links {2,3}.
        let routes = vec![vec![0, 1], vec![1], vec![2, 3], vec![3]];
        let mut caps = vec![f64::INFINITY; 4];
        let mut alive = vec![true; 4];
        let mut s = MaxMinState::with_flows(&capacity, &routes, None);
        assert_matches_reference(&mut s, &capacity, &routes, &caps, &alive);
        assert_eq!(s.component_count(), 2);

        s.remove_flow(1);
        alive[1] = false;
        assert_matches_reference(&mut s, &capacity, &routes, &caps, &alive);

        s.rate_perturb(3, 1.5);
        caps[3] = 1.5;
        assert_matches_reference(&mut s, &capacity, &routes, &caps, &alive);
    }

    #[test]
    fn disjoint_components_solve_independently() {
        let capacity = vec![10.0, 20.0];
        let routes = vec![vec![0], vec![0], vec![1], vec![1]];
        let mut s = MaxMinState::with_flows(&capacity, &routes, None);
        let r = s.rates();
        assert!(close(r[0], 5.0) && close(r[1], 5.0));
        assert!(close(r[2], 10.0) && close(r[3], 10.0));
        let full_before = s.full_solves();
        // Removing a flow in component 0 must not re-solve component 1.
        s.remove_flow(0);
        let r = s.rates();
        assert!(close(r[1], 10.0));
        assert!(close(r[2], 10.0) && close(r[3], 10.0));
        assert_eq!(s.full_solves(), full_before, "no full solve for one comp");
        assert_eq!(s.component_solves(), 1);
    }

    #[test]
    fn link_change_dirties_only_its_component() {
        let capacity = vec![10.0, 20.0];
        let routes = vec![vec![0], vec![1]];
        let mut s = MaxMinState::with_flows(&capacity, &routes, None);
        let _ = s.rates();
        s.link_change(1, 5.0);
        let r = s.rates();
        assert!(close(r[0], 10.0));
        assert!(close(r[1], 5.0));
        assert_eq!(s.component_solves(), 1);
    }

    #[test]
    fn dead_link_pins_component_to_zero() {
        let capacity = vec![10.0];
        let routes = vec![vec![0], vec![0]];
        let mut s = MaxMinState::with_flows(&capacity, &routes, None);
        let _ = s.rates();
        s.link_change(0, 0.0);
        let r = s.rates();
        assert!(close(r[0], 0.0) && close(r[1], 0.0));
    }

    #[test]
    fn cap_bursts_resolve_components_without_repartition() {
        let capacity = vec![10.0, 10.0, 10.0, 10.0];
        let routes = vec![vec![0], vec![1], vec![2], vec![3]];
        let mut s = MaxMinState::with_flows(&capacity, &routes, None);
        let _ = s.rates();
        let full_before = s.full_solves();
        // Dirty 3 of 4 singleton components (a DCQCN epoch re-cap burst):
        // the partition is intact, so each dirty component re-solves in
        // place — no full solve, no re-partition.
        s.rate_perturb(0, 1.0);
        s.rate_perturb(1, 2.0);
        s.rate_perturb(2, 3.0);
        let r = s.rates();
        assert!(close(r[0], 1.0) && close(r[1], 2.0) && close(r[2], 3.0));
        assert!(close(r[3], 10.0));
        assert_eq!(s.full_solves(), full_before, "no re-partition for caps");
        assert_eq!(s.component_solves(), 3);
    }

    #[test]
    fn dead_mass_splits_components_without_global_repartition() {
        // One component: flows 0/1 each own a private link, flows 2/3 bridge
        // both links. Removing the bridges makes the dead mass reach the
        // live mass, so the next refresh re-partitions **that component
        // only** (pod level): the piece with flow 0 reuses the slot, the
        // piece with flow 1 appends, no full solve runs, and the dead flows
        // drop out of the tables.
        let capacity = vec![10.0, 10.0, 30.0];
        let routes = vec![vec![0], vec![1], vec![0, 1], vec![0, 1], vec![2]];
        let mut s = MaxMinState::with_flows(&capacity, &routes, None);
        let _ = s.rates();
        assert_eq!(s.component_count(), 2);
        let full_before = s.full_solves();
        // One removal: 1 dead vs 3 alive in the component → plain re-solve.
        s.remove_flow(2);
        assert_eq!(s.refresh(), SolveScope::Components);
        assert_eq!(s.resolved_components(), &[0]);
        assert_eq!(s.component_flows(0).len(), 4, "tables not yet pruned");
        // Second removal: 2 dead vs 2 alive → pod-level split in place.
        s.remove_flow(3);
        assert_eq!(s.refresh(), SolveScope::Components);
        assert_eq!(s.resolved_components(), &[0, 2], "slot reuse + append");
        assert_eq!(s.full_solves(), full_before, "no global re-partition");
        assert_eq!(s.component_count(), 3);
        assert_eq!(s.component_flows(0), &[0], "dead flows pruned");
        assert_eq!(s.component_flows(2), &[1]);
        let r = s.rates();
        assert!(close(r[0], 10.0) && close(r[1], 10.0) && close(r[4], 30.0));
        assert_eq!(r[2], 0.0);
        assert_eq!(r[3], 0.0);
    }

    #[test]
    fn fully_dead_component_becomes_quiescent_husk() {
        let capacity = vec![10.0, 20.0];
        let routes = vec![vec![0], vec![1]];
        let mut s = MaxMinState::with_flows(&capacity, &routes, None);
        let _ = s.rates();
        s.remove_flow(0);
        // The husk re-solves once (its link loads must be re-derivable by
        // scope-Components consumers) and then never dirties again.
        assert_eq!(s.refresh(), SolveScope::Components);
        assert_eq!(s.resolved_components(), &[0]);
        assert_eq!(s.refresh(), SolveScope::Unchanged);
        assert_eq!(s.rates()[0], 0.0);
        assert!(close(s.rates()[1], 20.0));
    }

    #[test]
    fn refresh_scope_reports_what_resolved() {
        let capacity = vec![10.0, 20.0];
        let routes = vec![vec![0], vec![1]];
        let mut s = MaxMinState::with_flows(&capacity, &routes, None);
        assert_eq!(s.refresh(), SolveScope::Full, "first solve partitions");
        assert_eq!(s.refresh(), SolveScope::Unchanged);
        s.rate_perturb(1, 5.0);
        assert_eq!(s.refresh(), SolveScope::Components);
        assert_eq!(s.resolved_components(), &[1]);
        assert_eq!(s.component_flows(1), &[1]);
        assert_eq!(s.component_links(1), &[1]);
        assert_eq!(s.current_rates()[1], 5.0);
        assert_eq!(s.refresh(), SolveScope::Unchanged);
        assert!(s.resolved_components().is_empty());
    }

    #[test]
    fn full_solve_repartitions_after_split() {
        // One bridging flow joins two halves; removing it should split the
        // component at the next full re-partition.
        let capacity = vec![10.0, 10.0];
        let routes = vec![vec![0], vec![1], vec![0, 1]];
        let mut s = MaxMinState::with_flows(&capacity, &routes, None);
        let _ = s.rates();
        assert_eq!(s.component_count(), 1);
        s.remove_flow(2);
        let _ = s.rates();
        // The bridge is gone; adding a flow forces a re-partition.
        s.add_flow(&[0], f64::INFINITY);
        let _ = s.rates();
        assert_eq!(s.component_count(), 2);
    }

    #[test]
    fn add_flow_after_solve_is_picked_up() {
        let capacity = vec![12.0];
        let mut s = MaxMinState::new(&capacity);
        let a = s.add_flow(&[0], f64::INFINITY);
        assert!(close(s.rates()[a], 12.0));
        let b = s.add_flow(&[0], f64::INFINITY);
        let r = s.rates();
        assert!(close(r[a], 6.0) && close(r[b], 6.0));
    }

    #[test]
    fn empty_route_flows_are_unbounded_singletons() {
        let mut s = MaxMinState::new(&[10.0]);
        let a = s.add_flow(&[], f64::INFINITY);
        let b = s.add_flow(&[], 5.0);
        let c = s.add_flow(&[0], f64::INFINITY);
        let r = s.rates();
        assert!(r[a] > 1e30);
        assert!(close(r[b], 5.0));
        assert!(close(r[c], 10.0));
        s.rate_perturb(b, 2.0);
        assert!(close(s.rates()[b], 2.0));
    }

    #[test]
    fn parallel_state_is_bit_identical_to_serial() {
        // A problem large enough to clear PARALLEL_MIN_FLOWS: 128 disjoint
        // 4-flow components (512 flows) plus caps, mutated through every
        // entry point. Serial and 2-/4-thread states must agree on every
        // bit at every step, including the full-solve fallback.
        let ncomp = 128usize;
        let capacity: Vec<f64> = (0..2 * ncomp)
            .map(|l| 50.0 + (l % 17) as f64 * 13.0)
            .collect();
        let mut routes: Vec<Vec<u32>> = Vec::new();
        let mut caps: Vec<f64> = Vec::new();
        for c in 0..ncomp {
            let (a, b) = (2 * c as u32, 2 * c as u32 + 1);
            for (route, cap) in [
                (vec![a], f64::INFINITY),
                (vec![a, b], 40.0 + (c % 5) as f64),
                (vec![b], f64::INFINITY),
                (vec![b], 11.5),
            ] {
                routes.push(route);
                caps.push(cap);
            }
        }
        let mut states: Vec<MaxMinState> = [1usize, 2, 4]
            .iter()
            .map(|&t| {
                MaxMinState::with_flows(&capacity, &routes, Some(&caps))
                    .with_parallel(ParallelPolicy::with_threads(t))
            })
            .collect();
        let assert_identical = |states: &mut Vec<MaxMinState>, what: &str| {
            let reference: Vec<u64> = states[0].rates().iter().map(|r| r.to_bits()).collect();
            for s in states.iter_mut().skip(1) {
                let got: Vec<u64> = s.rates().iter().map(|r| r.to_bits()).collect();
                assert_eq!(
                    got,
                    reference,
                    "{what}: {} threads diverged",
                    s.parallel().threads()
                );
            }
        };
        assert_identical(&mut states, "initial solve");
        for s in states.iter_mut() {
            s.remove_flow(1);
            s.rate_perturb(6, 3.25);
            s.link_change(9, 140.0);
        }
        assert_identical(&mut states, "small dirty batch");
        // Dirty > half the flows → full-solve fallback path.
        for s in states.iter_mut() {
            for f in 0..routes.len() {
                s.rate_perturb(f, 17.0 + (f % 7) as f64);
            }
        }
        assert_identical(&mut states, "full-solve fallback");
        for s in states.iter_mut() {
            s.add_flow(&[0, 5, 11], f64::INFINITY);
        }
        assert_identical(&mut states, "after addition");
    }

    #[test]
    fn remove_is_idempotent_and_perturb_on_dead_flow_is_inert() {
        let mut s = MaxMinState::with_flows(&[10.0], &[vec![0], vec![0]], None);
        let _ = s.rates();
        s.remove_flow(0);
        s.remove_flow(0);
        s.rate_perturb(0, 3.0);
        let r = s.rates();
        assert_eq!(r[0], 0.0);
        assert!(close(r[1], 10.0));
        assert_eq!(s.n_alive(), 1);
    }
}
