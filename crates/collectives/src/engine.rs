//! The collective execution engine: plan → flows → drain → result, with
//! telemetry emission.
//!
//! Three entry points:
//!
//! * [`run_collective`] — one collective on an otherwise idle network;
//! * [`run_concurrent`] — several collectives (e.g. the paper's 8
//!   simultaneous allreduce jobs, Fig 10) sharing the network in a single
//!   drain, so their flows contend for links exactly as concurrent tenants
//!   do. A single [`PathSelector`] serves all requests — matching the
//!   paper's design where one C4P master is the control center for multiple
//!   jobs/tenants (§III-B);
//! * [`run_concurrent_cached`] — the same, reusing flow plans, noise-free
//!   drains and noisy drains' seed solves across calls through a
//!   [`PlanCache`]. Every iteration loop runs through it; the other two
//!   call it without a cache.
//!
//! Each call takes one path from plan to drain: every cache-missed
//! request's flow keys — intra-node and network alike — are built up
//! front, the network keys of all of them go through one
//! [`PathSelector::select_batch`] call, and one assembler turns keys and
//! choices into routes for ring and all-to-all plans alike.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use c4_netsim::{
    drain, drain_seeded, DrainConfig, DrainReport, FlowKey, FlowSpec, PathChoice, PathSelector,
};
use c4_simcore::{scoped_map, ByteSize, DetRng, FastMap, ParallelPolicy, SimTime};
use c4_telemetry::{
    AlgoKind, CollKind, CollRecord, ConnKey, DataType, RankRecord, WorkerTelemetry,
};
use c4_topology::{GpuId, LinkId, Topology};

use crate::alltoall::{channel_pair, pair_channel, AllToAllPlan};
use crate::comm::{CommConfig, Communicator};
use crate::memo::{self, DrainMemo, DrainSlot, SeedStamp};
use crate::plan::{bus_factor, RingPlan};
use crate::result::CollectiveResult;

/// Minimum route-assembly items (intra-node plus network flows) in one
/// plan before [`assemble_plan`] spawns worker threads; below it the
/// per-thread setup cost exceeds the topology walks. A wall-clock
/// heuristic only — plans are bit-identical either way.
const PARALLEL_MIN_ROUTES: usize = 64;

/// Per-QP byte-split weight function override. When a caller passes `None`,
/// the engine reads [`PathSelector::byte_split_weight`] straight off the
/// selector instead — a borrow on the hot path, so C4P's dynamic load
/// balancing needs no per-iteration clone of its rate table. Weights are
/// normalized per stream; non-positive weights are treated as a minimal
/// share.
pub type QpWeightFn<'a> = dyn Fn(&FlowKey) -> f64 + 'a;

/// One collective to execute.
#[derive(Debug, Clone)]
pub struct CollectiveRequest<'a> {
    /// The communicator performing the operation.
    pub comm: &'a Communicator,
    /// Sequence number within the communicator.
    pub seq: u64,
    /// Operation type.
    pub kind: CollKind,
    /// Element type.
    pub dtype: DataType,
    /// Element count (per-rank payload `S = count × dtype`).
    pub count: u64,
    /// Library tunables.
    pub config: CommConfig,
    /// Earliest possible start.
    pub start: SimTime,
    /// Per-rank ready times (stragglers). The request starts when its last
    /// rank arrives (or at `start`, if later): its result's `started` and
    /// its telemetry's start. Its flows do not wait for that: a call drains
    /// every request's flows from the earliest request start, so a request
    /// that starts later has its flows move before it starts. `None` = all
    /// ready at `start`.
    pub rank_ready: Option<&'a [SimTime]>,
    /// Network drain configuration (`start` is overridden).
    pub drain: DrainConfig,
}

/// One request's range of the call's flow specs plus bookkeeping to split
/// outcomes back out.
struct BuiltRequest {
    /// The request's flows in the call's spec vector, intra edges first.
    specs: Range<usize>,
    intra_count: usize,
    message_bytes: ByteSize,
    edge_bytes: ByteSize,
    started: SimTime,
    min_ready: SimTime,
}

/// The byte-independent route structure of one collective: flow keys and
/// routes before message sizes and QP byte-split weights are applied. This
/// is the expensive part of request construction (ring planning, path
/// selection, route assembly) and the part [`PlanCache`] keeps. Each
/// route is shared with every flow spec built from the plan.
#[derive(Debug, Clone)]
struct PlanSpec {
    /// Intra-node NVLink flows.
    intra: Vec<(FlowKey, Arc<[LinkId]>)>,
    /// Network flows in canonical (stream, QP) order, `qps` per stream.
    inter: Vec<(FlowKey, Arc<[LinkId]>)>,
    /// QP flows per stream: [`QPS_PER_STREAM`] for the ring family, 1 for
    /// an all-to-all (one flow per rank pair).
    qps: u16,
}

/// Identity of a cached plan. Message size/kind/dtype are deliberately
/// absent: they scale bytes, not routes — an all-to-all's EP skew likewise
/// rotates per iteration without re-planning, so only the *shape class*
/// (pairwise vs ring) is part of the key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    comm: u64,
    incarnation: u32,
    /// True for the pairwise all-to-all shape, false for the ring family.
    alltoall: bool,
}

#[derive(Debug, Clone)]
struct PlanEntry {
    topo_version: u64,
    selector_token: u64,
    /// When the plan was built: the cache's build count at the time, so a
    /// rebuilt plan never carries the stamp of the plan it replaced.
    build: u64,
    plan: PlanSpec,
}

/// Caches per-(communicator, selector state, topology version) flow-plan
/// construction across BSP iterations.
///
/// Real collectives establish their QP connections once per communicator
/// incarnation and reuse them every iteration; rebuilding identical
/// [`FlowSpec`] vectors per iteration was pure overhead. An entry is reused
/// only while **all three** of its validity coordinates hold:
///
/// * the communicator id + incarnation (restarts re-plan),
/// * the selector's [`PathSelector::cache_token`] (C4P rebalance/reset and
///   fresh ECMP salts re-plan; selectors returning `None` are never cached),
/// * [`Topology::version`] (any fault injection, degradation, node
///   isolation or spine toggle re-plans — the "explicit invalidation on
///   fault/steering events" rule).
///
/// [`PlanCache::clear`] force-invalidates everything, e.g. when a steering
/// decision replaced hardware outside the topology's mutation tracking.
/// A cache is only meaningful against a single `Topology` instance.
///
/// # The drain memo
///
/// A BSP job also re-drains the same network work every iteration, so the
/// cache keeps each request set's last **noise-free** drain (`rate_noise`
/// 0 and no CNP model: such a drain reads neither the RNG nor `epoch`),
/// with one slot per set of plan keys. [`run_concurrent_cached`] replays
/// the recorded report, its times shifted to the new start, when a call
/// presents exactly the inputs the recorded drain read:
///
/// * the same flow specs (key, bytes and route, in order; the recorded
///   specs share the plans' routes, so a route of an unchanged plan
///   compares equal by pointer);
/// * the same effective capacity, to the bit, on every route link (a
///   down link reads 0);
/// * the same port count (the length of `cnp_per_port`).
///
/// Every link change moves [`Topology::version`], so the memo keeps the
/// version at which it last found the route capacities equal: at that
/// version they still are, and only a call at another version compares
/// their bits, re-stamping the version when they match. Only a drain that
/// completed every flow at least 1 ns before its deadline is recorded, and
/// it is replayed only when the shifted drain also ends 1 ns or more
/// before the call's deadline, so the deadline clamped neither run. Any
/// other call drains afresh. The memo checks these inputs itself; its
/// correctness does not rest on callers passing [`PlanCache::rebase`] a
/// complete set of changed links. A replayed report is the recorded one,
/// bit for bit, shifted in time: it shares the recorded report's
/// `link_bytes` table, and its `cnp_per_port` is all zeros, as a
/// noise-free drain's is. Its
/// [`DrainSolverStats`](c4_netsim::DrainSolverStats) are those of the drain
/// it replays. Debug builds drain every replayed call afresh as well and
/// assert that both reports are equal and that the RNG did not move.
/// [`PlanCache::drain_reuses`] counts the replays. Slots are dropped by
/// [`PlanCache::clear`], [`PlanCache::invalidate_comm`] and a
/// [`PlanCache::rebase`] that drops a plan. A plan rebuilt after a topology
/// or selector change keeps its slot: the next call replays only if the
/// rebuilt plan presents the recorded inputs, and otherwise drains and
/// overwrites the slot.
///
/// A noisy call cannot be replayed (its noise and CNP draws move the RNG),
/// but its drain's first allocation does not depend on them: the seed
/// solve, the event kernel's solve over every flow, reads only the routes,
/// their link capacities and which flows have zero bytes. So the slot also
/// keeps its last noisy drain's seed solve (per-flow rates, per-link
/// bottleneck levels and the kernel arena's high-water mark), stamped with
/// what it was solved over:
///
/// * the build stamp of each request's plan (a cache-wide count each
///   build advances, so equal stamps mean the same routes in the same
///   order);
/// * [`Topology::version`] (every link change moves it, so an equal
///   version means the same capacity on every link);
/// * the indices of the zero-byte flows (which the drain removes before it
///   seeds).
///
/// A noisy call whose stamp equals the kept one hands the seed solve to
/// [`c4_netsim::drain_seeded`], which restores it instead of running the
/// kernel and otherwise drains as usual; any other noisy call runs the
/// kernel. Either way the drain's seed solve replaces the kept one, so a
/// slot holds at most one. Stamps compare exactly, not by hash, and do not
/// rest on [`PlanCache::rebase`] receiving a complete set of changed links:
/// a re-stamped plan still fails the version check. The report is
/// bit-identical to a fresh drain's, its solver counters and
/// `arena_hwm_bytes` included, and the RNG moves as it would; debug builds
/// run the kernel on every restore anyway and assert that both agree bit
/// for bit. Seeds go with their slots.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    entries: FastMap<PlanKey, PlanEntry>,
    /// The drain memo, one slot per request set (its plan keys, in
    /// request order).
    drains: FastMap<Vec<PlanKey>, DrainSlot>,
    /// Plans built so far: the source of [`PlanEntry::build`].
    builds: u64,
    hits: u64,
    misses: u64,
    drain_reuses: u64,
    /// Seed solves handed to a drain to restore.
    seed_restores: u64,
    build_wall_ms: f64,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Plans served from cache so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Plans (re)built so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Noise-free drains replayed from the drain memo instead of drained
    /// (see [the drain memo](PlanCache#the-drain-memo)).
    pub fn drain_reuses(&self) -> u64 {
        self.drain_reuses
    }

    /// Wall-clock milliseconds spent building cache-missed plans (ring
    /// planning, path selection, route assembly) through this cache — the
    /// plan-build cost a BSP loop actually paid, which is what the scale
    /// benchmarks record.
    pub fn build_wall_ms(&self) -> f64 {
        self.build_wall_ms
    }

    /// Cached plan count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every cached plan, recorded drain and kept seed solve
    /// (explicit fault/steering invalidation).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.drains.clear();
    }

    /// Drops the cached plans of one communicator id (all incarnations),
    /// and every recorded drain and kept seed solve.
    pub fn invalidate_comm(&mut self, comm: u64) {
        self.entries.retain(|k, _| k.comm != comm);
        self.drains.clear();
    }

    /// Surgically re-validates cached plans after a topology mutation.
    ///
    /// [`Topology::version`] is a *global* counter: isolating one node
    /// bumps it and every cached entry — including plans of jobs nowhere
    /// near the fault — would miss on its next lookup. `rebase` restores
    /// the hits of the unaffected plans: entries whose routes touch any of
    /// the `affected` links are dropped, every other stale entry is
    /// re-stamped to the topology's current version and keeps serving
    /// hits. Returns the number of entries dropped.
    ///
    /// The caller must pass the union of **all** links whose state changed
    /// since the cache last matched the topology version, counting a
    /// node-health change (which bumps the version but changes no link) as
    /// a change of that node's host links: a fleet controller calls this
    /// after every batch of fault and repair events, node repairs
    /// included. Passing an incomplete set cannot route traffic through a
    /// dead link — a wrongly re-stamped entry is simply a plan the selector
    /// would no longer pick, not an invalid route — but for *down* links
    /// the set must be complete or [`PlanCache::any_route_through`] audits
    /// will flag the stale route. Dropping any plan drops every recorded drain
    /// and kept seed solve too; those of re-stamped plans stay, since the
    /// drain memo checks the route capacities itself and a seed solve's
    /// stamp holds the topology version it was solved at.
    ///
    /// Cost: one pass over `affected` builds a bitset of
    /// `max(affected) / 64 + 1` words; then each hop of a stale entry's
    /// routes costs one word test, whatever the length of `affected`.
    pub fn rebase(&mut self, topo: &Topology, affected: &[LinkId]) -> usize {
        let version = topo.version();
        let before = self.entries.len();
        let affected = LinkSet::new(affected);
        self.entries.retain(|_, entry| {
            if entry.topo_version == version {
                return true;
            }
            if plan_routes_through(&entry.plan, &affected) {
                return false;
            }
            entry.topo_version = version;
            true
        });
        let dropped = before - self.entries.len();
        if dropped > 0 {
            self.drains.clear();
        }
        dropped
    }

    /// Drains `specs` under the noise-free `cfg` for the request set
    /// `slot`: replays the slot's recorded drain when every input it read
    /// is unchanged, otherwise drains and records the result (see [the
    /// drain memo](PlanCache#the-drain-memo)).
    fn drain_memoized(
        &mut self,
        slot: Vec<PlanKey>,
        topo: &Topology,
        specs: &[FlowSpec],
        cfg: &DrainConfig,
        rng: &mut DetRng,
    ) -> DrainReport {
        debug_assert!(memo::replayable(cfg), "noisy drains are never memoized");
        if let Some(report) = self
            .drains
            .get_mut(&slot)
            .and_then(|s| s.memo.as_mut())
            .and_then(|m| m.replay(topo, specs, cfg))
        {
            self.drain_reuses += 1;
            #[cfg(debug_assertions)]
            {
                let mut probe = rng.clone();
                assert_eq!(
                    report,
                    drain(topo, specs, cfg, &mut probe),
                    "a replayed drain equals a fresh one"
                );
                assert_eq!(
                    probe.uniform().to_bits(),
                    rng.clone().uniform().to_bits(),
                    "a noise-free drain draws nothing from the RNG"
                );
            }
            return report;
        }
        let report = drain(topo, specs, cfg, rng);
        if let Some(m) = DrainMemo::record(topo, specs, cfg, &report) {
            self.drains.entry(slot).or_default().memo = Some(m);
        }
        report
    }

    /// Drains `specs` under the noisy `cfg` for the request set `slot`,
    /// restoring the slot's seed solve when its stamp still matches and
    /// keeping this drain's in its place (see [the drain
    /// memo](PlanCache#the-drain-memo)).
    fn drain_seeded(
        &mut self,
        slot: Vec<PlanKey>,
        topo: &Topology,
        specs: &[FlowSpec],
        cfg: &DrainConfig,
        rng: &mut DetRng,
    ) -> DrainReport {
        let plans = slot.iter().map(|k| self.entries[k].build).collect();
        let stamp = SeedStamp::new(plans, topo, specs);
        let kept = &mut self.drains.entry(slot).or_default().seed;
        let mut seed = kept
            .take()
            .and_then(|(was, seed)| (was == stamp).then_some(seed));
        self.seed_restores += u64::from(seed.is_some());
        let report = drain_seeded(topo, specs, cfg, rng, &mut seed);
        *kept = seed.map(|seed| (stamp, seed));
        report
    }

    /// True when any cached plan routes through one of `links`.
    ///
    /// Audit hook for the fleet controller's zero-stale-route invariant:
    /// after isolating a node and rebasing, no cache may still hold a plan
    /// through the victim's host links.
    ///
    /// Cost: like [`PlanCache::rebase`], one bitset build over `links`,
    /// then one word test per hop of every cached route until a hop hits.
    pub fn any_route_through(&self, links: &[LinkId]) -> bool {
        let links = LinkSet::new(links);
        self.entries
            .values()
            .any(|e| plan_routes_through(&e.plan, &links))
    }
}

/// A set of links as a bitset over link ids: word `id / 64`, bit `id % 64`.
/// It has as many words as its largest id needs; any larger id is absent.
struct LinkSet(Vec<u64>);

impl LinkSet {
    fn new(links: &[LinkId]) -> LinkSet {
        let words = links.iter().map(|l| l.index() / 64 + 1).max().unwrap_or(0);
        let mut bits = vec![0u64; words];
        for l in links {
            bits[l.index() / 64] |= 1 << (l.index() % 64);
        }
        LinkSet(bits)
    }

    fn contains(&self, link: LinkId) -> bool {
        let i = link.index();
        self.0.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }
}

/// True when any route of `plan` (intra-node or network) uses one of
/// `links`.
fn plan_routes_through(plan: &PlanSpec, links: &LinkSet) -> bool {
    plan.intra
        .iter()
        .chain(&plan.inter)
        .any(|(_, route)| route.iter().any(|&l| links.contains(l)))
}

/// Where a request's plan lives after [`plan_requests`]: in the cache (by
/// key) or in the call-local overflow vector (uncacheable selectors).
enum PlanSource {
    Cached(PlanKey),
    Owned(usize),
}

/// A cache-missed request awaiting plan construction.
struct PendingPlan {
    source_idx: usize,
    key: PlanKey,
    /// Intra-node flow keys; the network keys sit in the call's batch
    /// from `key_start` on.
    intra: Vec<FlowKey>,
    parallel: ParallelPolicy,
    key_start: usize,
}

/// A flow key of `comm`'s current incarnation.
fn comm_key(comm: &Communicator, src: GpuId, dst: GpuId, channel: u16, qp: u16) -> FlowKey {
    FlowKey {
        src_gpu: src,
        dst_gpu: dst,
        comm: comm.id(),
        channel,
        qp,
        incarnation: comm.incarnation(),
    }
}

/// Builds the boundary-stream flow keys of one ring plan in the canonical
/// (stream, qp) order — the order selectors have always been called in.
fn boundary_keys(ring: &RingPlan, comm: &Communicator, out: &mut Vec<FlowKey>) {
    for stream in &ring.boundaries {
        for q in 0..QPS_PER_STREAM {
            let channel = stream.boundary as u16;
            out.push(comm_key(comm, stream.src_gpu, stream.dst_gpu, channel, q));
        }
    }
}

/// Builds the inter-node flow keys of one all-to-all plan in the canonical
/// `(src, dst)` pair order. The channel encodes the rank pair
/// ([`pair_channel`]) so the byte-share of a cached flow is recoverable
/// without the communicator; all-to-all pins one QP per pair.
fn a2a_keys(plan: &AllToAllPlan, comm: &Communicator, out: &mut Vec<FlowKey>) {
    for e in &plan.inter {
        let channel = pair_channel(e.src_rank, e.dst_rank);
        out.push(comm_key(comm, e.src_gpu, e.dst_gpu, channel, 0));
    }
}

/// Assembles one plan, ring or all-to-all, from its flow keys and the
/// selector's choices: an NVLink route per intra-node key and an
/// inter-node route per network key through its choice, fanned out over
/// `parallel` scoped threads (bit-identical at any thread count).
fn assemble_plan(
    topo: &Topology,
    intra: &[FlowKey],
    keys: &[FlowKey],
    choices: &[PathChoice],
    qps: u16,
    parallel: ParallelPolicy,
) -> PlanSpec {
    let parallel = if intra.len() + keys.len() < PARALLEL_MIN_ROUTES {
        ParallelPolicy::SERIAL
    } else {
        parallel
    };
    let intra = scoped_map(parallel, intra, |&k| {
        (k, topo.intra_node_route(k.src_gpu, k.dst_gpu).into())
    });
    // The expensive per-flow topology walk, a pure function of (topology,
    // key, choice).
    let pairs: Vec<(&FlowKey, &PathChoice)> = keys.iter().zip(choices).collect();
    let inter = scoped_map(parallel, &pairs, |&(&k, choice)| {
        let src_port = topo.port_of_gpu(k.src_gpu, choice.src_side);
        let dst_port = topo.port_of_gpu(k.dst_gpu, choice.dst_side);
        let route = topo.inter_node_route(
            k.src_gpu,
            src_port,
            choice.fabric.as_ref(),
            dst_port,
            k.dst_gpu,
        );
        (k, route.into())
    });
    PlanSpec { intra, inter, qps }
}

/// RDMA QPs per rail stream of the ring family: the paper's ACCL opens
/// several QPs per connection and balances them over the bonded ports.
const QPS_PER_STREAM: u16 = 2;

/// Resolves every request's route plan: cache hits are served directly;
/// **all** cache misses are planned together — their flow keys concatenate
/// in request order and go through one [`PathSelector::select_batch`] call,
/// so a stateful selector sees exactly the key sequence the per-request
/// serial builds produced, while batch-capable selectors (C4P) fan the
/// selection over worker threads. Uncacheable selectors (token `None`)
/// bypass the cache entirely rather than fill it with unservable entries.
fn plan_requests(
    topo: &Topology,
    reqs: &[CollectiveRequest<'_>],
    selector: &mut dyn PathSelector,
    mut cache: Option<&mut PlanCache>,
) -> (Vec<PlanSource>, Vec<PlanSpec>) {
    let token = selector.cache_token();
    let cacheable = cache.is_some() && token.is_some();
    let build_start = Instant::now();
    let mut sources: Vec<PlanSource> = Vec::with_capacity(reqs.len());
    let mut pending: Vec<PendingPlan> = Vec::new();
    let mut all_keys: Vec<FlowKey> = Vec::new();

    for req in reqs {
        let comm = req.comm;
        let alltoall = req.kind == CollKind::AllToAll;
        let key = PlanKey {
            comm: comm.id(),
            incarnation: comm.incarnation(),
            alltoall,
        };
        let usable = match (cache.as_deref(), token) {
            (Some(c), Some(token)) => c
                .entries
                .get(&key)
                .is_some_and(|e| e.topo_version == topo.version() && e.selector_token == token),
            _ => false,
        };
        // A duplicate of a plan already pending in THIS call is a hit too:
        // the earlier request's build will populate the cache before
        // flow-spec assembly reads it (the old per-request get_or_build
        // served the second request the same way).
        if usable || (cacheable && pending.iter().any(|p| p.key == key)) {
            if let Some(c) = cache.as_deref_mut() {
                c.hits += 1;
            }
            sources.push(PlanSource::Cached(key));
            continue;
        }
        if let (Some(c), Some(_)) = (cache.as_deref_mut(), token) {
            c.misses += 1;
        }
        // Intra-node keys next to the network keys: ring edges carry
        // channel `u16::MAX`, all-to-all pairs their pair channel.
        let key_start = all_keys.len();
        let intra = if alltoall {
            let a2a = AllToAllPlan::build(topo, comm);
            a2a_keys(&a2a, comm, &mut all_keys);
            a2a.intra
                .iter()
                .map(|e| {
                    let channel = pair_channel(e.src_rank, e.dst_rank);
                    comm_key(comm, e.src_gpu, e.dst_gpu, channel, 0)
                })
                .collect()
        } else {
            let ring = RingPlan::build(topo, comm);
            boundary_keys(&ring, comm, &mut all_keys);
            ring.intra_edges
                .iter()
                .map(|&(src, dst)| comm_key(comm, src, dst, u16::MAX, 0))
                .collect()
        };
        pending.push(PendingPlan {
            source_idx: sources.len(),
            key,
            intra,
            parallel: req.drain.parallel,
            key_start,
        });
        sources.push(PlanSource::Owned(usize::MAX)); // patched below
    }

    // One batched selection across every missing plan.
    let choices: Vec<PathChoice> = if all_keys.is_empty() {
        Vec::new()
    } else {
        selector.select_batch(topo, &all_keys)
    };

    let mut owned: Vec<PlanSpec> = Vec::with_capacity(pending.len());
    for (i, p) in pending.iter().enumerate() {
        let keys = p.key_start..pending.get(i + 1).map_or(all_keys.len(), |n| n.key_start);
        // All-to-all pins one QP per ordered pair; the ring family splits
        // each rail stream over QPS_PER_STREAM.
        let qps = if p.key.alltoall { 1 } else { QPS_PER_STREAM };
        let plan = assemble_plan(
            topo,
            &p.intra,
            &all_keys[keys.clone()],
            &choices[keys],
            qps,
            p.parallel,
        );
        match (cache.as_deref_mut(), token) {
            (Some(c), Some(token)) => {
                c.builds += 1;
                c.entries.insert(
                    p.key.clone(),
                    PlanEntry {
                        topo_version: topo.version(),
                        selector_token: token,
                        build: c.builds,
                        plan,
                    },
                );
                sources[p.source_idx] = PlanSource::Cached(p.key.clone());
            }
            _ => {
                sources[p.source_idx] = PlanSource::Owned(owned.len());
                owned.push(plan);
            }
        }
    }
    if !pending.is_empty() {
        if let Some(c) = cache {
            c.build_wall_ms += build_start.elapsed().as_secs_f64() * 1e3;
        }
    }
    (sources, owned)
}

/// Appends a resolved plan's flow specs to `specs` and returns the
/// request's range of them plus its timing metadata.
fn build_request(
    req: &CollectiveRequest<'_>,
    plan: &PlanSpec,
    weight_of: &dyn Fn(&FlowKey) -> f64,
    specs: &mut Vec<FlowSpec>,
) -> BuiltRequest {
    let comm = req.comm;
    let nranks = comm.nranks();
    if let Some(ready) = req.rank_ready {
        assert_eq!(ready.len(), nranks, "rank_ready length mismatch");
    }

    let message_bytes = ByteSize::from_bytes(req.count * req.dtype.size_bytes());
    let factor = bus_factor(req.kind, nranks);
    let edge_bytes = message_bytes.scaled(factor);

    // The request starts when its last rank arrives; the call's drain
    // starts at the earliest request start (see `run_concurrent_cached`).
    let min_ready = req
        .rank_ready
        .map(|r| r.iter().copied().min().unwrap_or(req.start))
        .unwrap_or(req.start);
    let started = req
        .rank_ready
        .map(|r| r.iter().copied().max().unwrap_or(req.start))
        .unwrap_or(req.start)
        .max(req.start);

    specs.reserve(plan.intra.len() + plan.inter.len());
    let first = specs.len();

    if req.kind == CollKind::AllToAll {
        // Pairwise exchange: every flow (NVLink or fabric) carries its
        // rank pair's skewed share of the source's message. The pair is
        // decoded from the channel, so cached plans stay byte-independent
        // and the skew can rotate per iteration.
        let skew = req.config.ep_skew;
        let pair_bytes = |key: &FlowKey| {
            let (src, dst) = channel_pair(key.channel);
            message_bytes.scaled(skew.share(src, dst, nranks))
        };
        for (key, route) in &plan.intra {
            specs.push(FlowSpec::new(*key, pair_bytes(key), Arc::clone(route)));
        }
        let intra_count = specs.len() - first;
        for (key, route) in &plan.inter {
            specs.push(FlowSpec::new(*key, pair_bytes(key), Arc::clone(route)));
        }
        return BuiltRequest {
            specs: first..specs.len(),
            intra_count,
            message_bytes,
            edge_bytes,
            started,
            min_ready,
        };
    }

    for (key, route) in &plan.intra {
        specs.push(FlowSpec::new(*key, edge_bytes, Arc::clone(route)));
    }
    let intra_count = specs.len() - first;

    // Boundary streams: B bytes per rail, split across Q QPs by weight.
    let weight = |k: &FlowKey| {
        let w = weight_of(k);
        if w.is_finite() && w > 0.0 {
            w
        } else {
            1e-3
        }
    };
    for stream in plan.inter.chunks(plan.qps as usize) {
        let total: f64 = stream.iter().map(|(k, _)| weight(k)).sum();
        for (k, route) in stream {
            specs.push(FlowSpec::new(
                *k,
                edge_bytes.scaled(weight(k) / total),
                Arc::clone(route),
            ));
        }
    }

    BuiltRequest {
        specs: first..specs.len(),
        intra_count,
        message_bytes,
        edge_bytes,
        started,
        min_ready,
    }
}

/// Records telemetry for one completed/hung request: `specs` and
/// `outcomes` are its range of the call's flows.
fn emit_telemetry(
    topo: &Topology,
    req: &CollectiveRequest<'_>,
    built: &BuiltRequest,
    specs: &[FlowSpec],
    outcomes: &[c4_netsim::FlowOutcome],
    finished: Option<SimTime>,
    tel: &mut [WorkerTelemetry],
) {
    let comm = req.comm;
    for (rank, &gpu) in comm.devices().iter().enumerate() {
        tel[gpu.index()].record_coll(CollRecord {
            comm: comm.id(),
            seq: req.seq,
            rank: rank as u32,
            kind: req.kind,
            algo: AlgoKind::Ring,
            dtype: req.dtype,
            count: req.count,
            start: built.started,
            end: finished,
        });
        if let Some(ready) = req.rank_ready {
            tel[gpu.index()].record_rank(RankRecord {
                comm: comm.id(),
                rank: rank as u32,
                step: req.seq,
                compute: ready[rank] - req.start,
                ready_delay: ready[rank] - built.min_ready,
                arrived: ready[rank],
            });
        }
    }
    for (spec, outcome) in specs.iter().zip(outcomes).skip(built.intra_count) {
        if let (Some(finish), Some(start_port)) = (
            outcome.finish,
            spec.route.iter().find_map(|&l| match topo.link(l).kind() {
                c4_topology::LinkKind::HostUp(p) => Some(p),
                _ => None,
            }),
        ) {
            let key = ConnKey {
                comm: comm.id(),
                channel: spec.key.channel,
                qp: spec.key.qp,
                src_gpu: spec.key.src_gpu,
                dst_gpu: spec.key.dst_gpu,
            };
            tel[spec.key.src_gpu.index()].record_message(
                key,
                start_port,
                spec.bytes.as_bytes(),
                finish - outcome.start,
                finish,
            );
        }
    }
}

/// Executes several collectives concurrently in one shared network drain.
///
/// Equivalent to [`run_concurrent_cached`] without a plan cache; see there
/// for the drain-config merge rule.
///
/// # Panics
///
/// Panics if `reqs` is empty, a `rank_ready` length mismatches, or
/// `telemetry` is too short to index a member GPU.
pub fn run_concurrent(
    topo: &Topology,
    reqs: &[CollectiveRequest<'_>],
    selector: &mut dyn PathSelector,
    qp_weights: Option<&QpWeightFn<'_>>,
    rng: &mut DetRng,
    telemetry: Option<&mut [WorkerTelemetry]>,
) -> Vec<CollectiveResult> {
    run_concurrent_cached(topo, reqs, selector, qp_weights, rng, telemetry, None)
}

/// Executes several collectives concurrently in one shared network drain,
/// optionally reusing cached flow plans across calls (BSP iterations).
///
/// Drain-config merge rule for the shared drain: `start` is the earliest
/// request start (a request starts when its last rank arrives), and every
/// flow of the call moves from it, a later-starting request's included;
/// `deadline` is the **earliest** deadline of any request
/// (requests without a deadline don't constrain it) — the shared drain
/// cannot outlive any one participant's give-up horizon, so the tightest
/// caller wins; all remaining knobs (epoch, rate noise, CNP model) come
/// from the first request. Results come back in request order.
///
/// With a cache and every plan served from it, the call goes through the
/// request set's slot in the cache's [drain memo](PlanCache#the-drain-memo).
/// A noise-free call replays the slot's recorded report, shifted to the new
/// start, instead of draining, when the specs, route-link capacities and
/// port count equal those of its last recorded drain and the deadline
/// leaves room; the RNG is untouched either way. A noisy call always
/// drains, from the slot's kept seed solve when no plan was rebuilt since,
/// the topology version is unchanged and the same flows have zero bytes.
/// The results are bit-identical either way, the report's solver counters
/// included (a replay carries those of the drain it replays, a restored
/// seed solve counts as the solve it restores).
///
/// # Panics
///
/// Panics if `reqs` is empty, a `rank_ready` length mismatches, or
/// `telemetry` is too short to index a member GPU.
pub fn run_concurrent_cached(
    topo: &Topology,
    reqs: &[CollectiveRequest<'_>],
    selector: &mut dyn PathSelector,
    qp_weights: Option<&QpWeightFn<'_>>,
    rng: &mut DetRng,
    mut telemetry: Option<&mut [WorkerTelemetry]>,
    mut cache: Option<&mut PlanCache>,
) -> Vec<CollectiveResult> {
    assert!(
        !reqs.is_empty(),
        "run_concurrent needs at least one request"
    );
    if let Some(tel) = telemetry.as_deref() {
        let max_gpu = reqs
            .iter()
            .flat_map(|r| r.comm.devices())
            .map(|g| g.index())
            .max()
            .unwrap_or(0);
        assert!(tel.len() > max_gpu, "telemetry slice too short");
    }

    // Resolve all route plans first (cache hits + one batched build for
    // the misses), then apply message bytes and QP weights per request.
    let (sources, owned) = plan_requests(topo, reqs, selector, cache.as_deref_mut());
    let cache_ref = cache.as_deref();
    let sel_ref: &dyn PathSelector = &*selector;
    let weight_of = |k: &FlowKey| qp_weights.map_or_else(|| sel_ref.byte_split_weight(k), |f| f(k));
    // Every request's flows, built once into the vector the drain reads.
    let mut specs: Vec<FlowSpec> = Vec::new();
    let built: Vec<BuiltRequest> = reqs
        .iter()
        .zip(&sources)
        .map(|(r, source)| {
            let plan: &PlanSpec = match source {
                PlanSource::Cached(key) => {
                    &cache_ref.expect("cached source implies a cache").entries[key].plan
                }
                PlanSource::Owned(i) => &owned[*i],
            };
            build_request(r, plan, &weight_of, &mut specs)
        })
        .collect();

    // One shared drain over all flows, from the earliest request start: the
    // fluid model has no per-flow start offsets, so the flows of a request
    // that starts later move before it starts.
    let common_start = built
        .iter()
        .map(|b| b.started)
        .min()
        .expect("non-empty requests");
    let deadline = reqs.iter().filter_map(|r| r.drain.deadline).min();
    let drain_cfg = DrainConfig {
        start: common_start,
        deadline,
        ..reqs[0].drain.clone()
    };
    // The drain memo's slot: the request set's plan keys, when every plan
    // came from the cache.
    let slot: Option<Vec<PlanKey>> = sources
        .iter()
        .map(|s| match s {
            PlanSource::Cached(key) => Some(key.clone()),
            PlanSource::Owned(_) => None,
        })
        .collect();
    let report = Arc::new(match (cache, slot) {
        (Some(c), Some(slot)) if memo::replayable(&drain_cfg) => {
            c.drain_memoized(slot, topo, &specs, &drain_cfg, rng)
        }
        (Some(c), Some(slot)) => c.drain_seeded(slot, topo, &specs, &drain_cfg, rng),
        _ => drain(topo, &specs, &drain_cfg, rng),
    });

    // Split outcomes back per request.
    let mut results = Vec::with_capacity(reqs.len());
    for (req, b) in reqs.iter().zip(&built) {
        let n = b.specs.len();
        let outcomes = &report.outcomes[b.specs.clone()];
        let all_done = outcomes.iter().all(|o| o.completed());
        let finished = if n == 0 {
            Some(b.started)
        } else if all_done {
            outcomes.iter().filter_map(|o| o.finish).max()
        } else {
            None
        };
        if let Some(tel) = telemetry.as_deref_mut() {
            emit_telemetry(
                topo,
                req,
                b,
                &specs[b.specs.clone()],
                outcomes,
                finished,
                tel,
            );
        }
        results.push(CollectiveResult {
            comm: req.comm.id(),
            seq: req.seq,
            kind: req.kind,
            message_bytes: b.message_bytes,
            edge_bytes: b.edge_bytes,
            started: b.started,
            finished,
            intra_outcomes: outcomes[..b.intra_count].to_vec(),
            qp_outcomes: outcomes[b.intra_count..].to_vec(),
            report: Arc::clone(&report),
        });
    }
    results
}

/// Executes one collective on an otherwise idle network and optionally
/// records telemetry into per-worker stores (indexed by global GPU id).
///
/// # Panics
///
/// Panics if `rank_ready` is provided with a length different from the
/// communicator's rank count, or if `telemetry` is too short to index every
/// member GPU.
pub fn run_collective(
    topo: &Topology,
    req: &CollectiveRequest<'_>,
    selector: &mut dyn PathSelector,
    qp_weights: Option<&QpWeightFn<'_>>,
    rng: &mut DetRng,
    telemetry: Option<&mut [WorkerTelemetry]>,
) -> CollectiveResult {
    run_concurrent(
        topo,
        std::slice::from_ref(req),
        selector,
        qp_weights,
        rng,
        telemetry,
    )
    .pop()
    .expect("one request yields one result")
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4_netsim::{EcmpSelector, RailLocalSelector};
    use c4_simcore::SimDuration;
    use c4_topology::{ClosConfig, GpuId, LinkKind, NodeId};

    use crate::alltoall::EpSkew;

    fn topo() -> Topology {
        Topology::build(&ClosConfig::testbed_128())
    }

    fn full_comm(t: &Topology, nodes: usize) -> Communicator {
        full_comm_at(t, 0, nodes, 1)
    }

    fn full_comm_at(t: &Topology, first: usize, nodes: usize, id: u64) -> Communicator {
        let devices: Vec<GpuId> = (first..first + nodes)
            .flat_map(|n| t.node(NodeId::from_index(n)).gpus.clone())
            .collect();
        Communicator::new(id, devices, t).unwrap()
    }

    fn request<'a>(comm: &'a Communicator) -> CollectiveRequest<'a> {
        CollectiveRequest {
            comm,
            seq: 0,
            kind: CollKind::AllReduce,
            dtype: DataType::F16,
            count: 512 * 1024 * 1024, // 1 GiB message
            config: CommConfig::default(),
            start: SimTime::ZERO,
            rank_ready: None,
            drain: DrainConfig::default(),
        }
    }

    #[test]
    fn balanced_allreduce_hits_nvlink_cap() {
        let t = topo();
        let comm = full_comm(&t, 2);
        let req = request(&comm);
        let mut sel = RailLocalSelector::new();
        let mut rng = DetRng::seed_from(1);
        let res = run_collective(&t, &req, &mut sel, None, &mut rng, None);
        let busbw = res.busbw_gbps().expect("completed");
        assert!(
            (busbw - 362.0).abs() < 2.0,
            "balanced 2-node allreduce should be NVLink-capped: {busbw}"
        );
    }

    #[test]
    fn ecmp_allreduce_suffers_port_collisions() {
        let t = topo();
        let comm = full_comm(&t, 2);
        let req = request(&comm);
        let mut sel = EcmpSelector::new(3);
        let mut rng = DetRng::seed_from(2);
        let res = run_collective(&t, &req, &mut sel, None, &mut rng, None);
        let busbw = res.busbw_gbps().expect("completed");
        assert!(
            busbw < 240.0,
            "ECMP baseline should collide below 240 Gbps: {busbw}"
        );
        assert!(busbw >= 90.0, "but not collapse: {busbw}");
    }

    #[test]
    fn single_node_allreduce_is_nvlink_bound() {
        let t = topo();
        let comm = full_comm(&t, 1);
        let req = request(&comm);
        let mut sel = RailLocalSelector::new();
        let mut rng = DetRng::seed_from(3);
        let res = run_collective(&t, &req, &mut sel, None, &mut rng, None);
        let busbw = res.busbw_gbps().unwrap();
        assert!((busbw - 362.0).abs() < 2.0, "busbw {busbw}");
        assert!(res.qp_outcomes.is_empty());
    }

    #[test]
    fn straggler_delays_start() {
        let t = topo();
        let comm = full_comm(&t, 2);
        let mut ready: Vec<SimTime> = vec![SimTime::from_secs(1); comm.nranks()];
        ready[5] = SimTime::from_secs(4);
        let mut req = request(&comm);
        req.rank_ready = Some(&ready);
        let mut sel = RailLocalSelector::new();
        let mut rng = DetRng::seed_from(4);
        let res = run_collective(&t, &req, &mut sel, None, &mut rng, None);
        assert_eq!(res.started, SimTime::from_secs(4));
    }

    #[test]
    fn dead_uplink_hangs_the_collective() {
        let mut t = topo();
        let comm = full_comm(&t, 2);
        // Kill the left host uplink of rail 0 on node 0.
        let g = t.gpu_at(NodeId::from_index(0), 0);
        let port = t.port_of_gpu(g, c4_topology::PortSide::Left);
        let up = t.port(port).host_up;
        t.link_mut(up).set_up(false);
        let mut req = request(&comm);
        req.drain.deadline = Some(SimTime::from_secs(30));
        let mut sel = RailLocalSelector::new();
        let mut rng = DetRng::seed_from(5);
        let res = run_collective(&t, &req, &mut sel, None, &mut rng, None);
        assert!(res.hung());
        assert_eq!(res.busbw_gbps(), None);
    }

    #[test]
    fn telemetry_records_colls_and_conns() {
        let t = topo();
        let comm = full_comm(&t, 2);
        let ready: Vec<SimTime> = (0..comm.nranks())
            .map(|r| SimTime::from_nanos(r as u64))
            .collect();
        let mut req = request(&comm);
        req.rank_ready = Some(&ready);
        let mut tel: Vec<WorkerTelemetry> = t
            .gpus()
            .iter()
            .map(|g| WorkerTelemetry::new(g.id))
            .collect();
        let mut sel = RailLocalSelector::new();
        let mut rng = DetRng::seed_from(6);
        let res = run_collective(&t, &req, &mut sel, None, &mut rng, Some(&mut tel));
        assert!(!res.hung());
        for &g in comm.devices() {
            let snap = tel[g.index()].snapshot(SimTime::ZERO);
            assert_eq!(snap.colls.len(), 1);
            assert_eq!(snap.ranks.len(), 1);
            assert!(snap.colls[0].end.is_some());
        }
        let senders: usize = tel.iter().map(|w| w.conns().count()).sum();
        assert_eq!(senders, 16 * 2); // 16 streams × 2 QPs
    }

    #[test]
    fn qp_weights_shift_bytes() {
        let t = topo();
        let comm = full_comm(&t, 2);
        let req = request(&comm);
        let mut sel = RailLocalSelector::new();
        let mut rng = DetRng::seed_from(7);
        let weights: Box<QpWeightFn<'_>> =
            Box::new(|k: &FlowKey| if k.qp == 0 { 3.0 } else { 1.0 });
        let res = run_collective(&t, &req, &mut sel, Some(&*weights), &mut rng, None);
        let qp0: u64 = res
            .qp_outcomes
            .iter()
            .filter(|o| o.key.qp == 0)
            .map(|o| o.bytes.as_bytes())
            .sum();
        let qp1: u64 = res
            .qp_outcomes
            .iter()
            .filter(|o| o.key.qp == 1)
            .map(|o| o.bytes.as_bytes())
            .sum();
        let ratio = qp0 as f64 / qp1 as f64;
        assert!((ratio - 3.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn zero_ranks_edge_cases() {
        let t = topo();
        let comm = Communicator::new(1, vec![t.gpus()[0].id], &t).unwrap();
        let req = request(&comm);
        let mut sel = RailLocalSelector::new();
        let mut rng = DetRng::seed_from(8);
        let res = run_collective(&t, &req, &mut sel, None, &mut rng, None);
        assert!(!res.hung());
        assert_eq!(res.finished, Some(SimTime::ZERO));
    }

    #[test]
    fn reduce_scatter_uses_smaller_edge_bytes() {
        let t = topo();
        let comm = full_comm(&t, 2);
        let mut req = request(&comm);
        req.kind = CollKind::ReduceScatter;
        let mut sel = RailLocalSelector::new();
        let mut rng = DetRng::seed_from(9);
        let res = run_collective(&t, &req, &mut sel, None, &mut rng, None);
        let expect = req.count * 2 * 15 / 16; // S × (R−1)/R
        let got = res.edge_bytes.as_bytes();
        assert!(
            (got as f64 - expect as f64).abs() < 2.0,
            "edge bytes {got} vs {expect}"
        );
        assert!(res.duration().unwrap() < SimDuration::from_secs(1));
    }

    #[test]
    fn concurrent_disjoint_jobs_do_not_interfere() {
        let t = topo();
        // Two 2-node jobs on disjoint nodes with balanced paths: both reach
        // the NVLink cap despite sharing one drain.
        let c1 = full_comm_at(&t, 0, 2, 1);
        let c2 = full_comm_at(&t, 2, 2, 2);
        let r1 = request(&c1);
        let r2 = request(&c2);
        let mut sel = RailLocalSelector::new();
        let mut rng = DetRng::seed_from(10);
        let results = run_concurrent(&t, &[r1, r2], &mut sel, None, &mut rng, None);
        assert_eq!(results.len(), 2);
        for res in &results {
            let busbw = res.busbw_gbps().unwrap();
            assert!((busbw - 362.0).abs() < 2.0, "busbw {busbw}");
        }
    }

    #[test]
    fn concurrent_heterogeneous_deadlines_take_the_earliest() {
        // Regression: the shared drain used to take reqs[0]'s deadline,
        // silently ignoring tighter ones on later requests. A 1 GiB
        // allreduce needs ~50 ms; request 1 allows 100 s but request 2 only
        // 10 ms, so the merged drain must cut off at 10 ms and hang both.
        let t = topo();
        let c1 = full_comm_at(&t, 0, 2, 1);
        let c2 = full_comm_at(&t, 2, 2, 2);
        let mut r1 = request(&c1);
        r1.drain.deadline = Some(SimTime::from_secs(100));
        let mut r2 = request(&c2);
        r2.drain.deadline = Some(SimTime::from_nanos(10_000_000));
        let mut sel = RailLocalSelector::new();
        let mut rng = DetRng::seed_from(20);
        let results = run_concurrent(&t, &[r1, r2], &mut sel, None, &mut rng, None);
        for res in &results {
            assert!(res.hung(), "10 ms deadline must cut the shared drain");
            assert_eq!(res.report.end, SimTime::from_nanos(10_000_000));
        }
        // Requests without a deadline leave the tight one in force.
        let mut r1 = request(&c1);
        r1.drain.deadline = None;
        let mut r2 = request(&c2);
        r2.drain.deadline = Some(SimTime::from_nanos(10_000_000));
        let mut sel = RailLocalSelector::new();
        let mut rng = DetRng::seed_from(21);
        let results = run_concurrent(&t, &[r1, r2], &mut sel, None, &mut rng, None);
        assert!(results.iter().all(|r| r.hung()));
    }

    #[test]
    fn plan_cache_hits_across_iterations_and_matches_uncached() {
        let t = topo();
        let comm = full_comm(&t, 2);
        let req = request(&comm);
        let mut cache = PlanCache::new();
        let mut cached_results = Vec::new();
        for seq in 0..3u64 {
            let mut r = request(&comm);
            r.seq = seq;
            let mut sel = EcmpSelector::new(9);
            let mut rng = DetRng::seed_from(100 + seq);
            cached_results.push(run_concurrent_cached(
                &t,
                std::slice::from_ref(&r),
                &mut sel,
                None,
                &mut rng,
                None,
                Some(&mut cache),
            ));
        }
        assert_eq!(cache.misses(), 1, "one build");
        assert_eq!(cache.hits(), 2, "two reuses");

        // The cached run must be indistinguishable from the uncached one.
        let mut sel = EcmpSelector::new(9);
        let mut rng = DetRng::seed_from(100);
        let uncached = run_collective(&t, &req, &mut sel, None, &mut rng, None);
        let cached = &cached_results[0][0];
        assert_eq!(cached.finished, uncached.finished);
        assert_eq!(cached.qp_outcomes.len(), uncached.qp_outcomes.len());
        for (a, b) in cached.qp_outcomes.iter().zip(&uncached.qp_outcomes) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.bytes, b.bytes);
        }
    }

    #[test]
    fn plan_cache_invalidates_on_topology_and_selector_change() {
        let mut t = topo();
        let comm = full_comm(&t, 2);
        let mut cache = PlanCache::new();
        let run_once = |t: &Topology, salt: u64, cache: &mut PlanCache| {
            let req = request(&comm);
            let mut sel = EcmpSelector::new(salt);
            let mut rng = DetRng::seed_from(7);
            run_concurrent_cached(
                t,
                std::slice::from_ref(&req),
                &mut sel,
                None,
                &mut rng,
                None,
                Some(cache),
            );
        };
        run_once(&t, 1, &mut cache);
        run_once(&t, 1, &mut cache);
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        // Fault injection bumps the topology version → rebuild.
        let g = t.gpu_at(NodeId::from_index(0), 0);
        let up = t
            .port(t.port_of_gpu(g, c4_topology::PortSide::Left))
            .host_up;
        t.link_mut(up).set_up(false);
        run_once(&t, 1, &mut cache);
        assert_eq!((cache.misses(), cache.hits()), (2, 1));
        // A different ECMP salt is a different selector state → rebuild.
        run_once(&t, 2, &mut cache);
        assert_eq!((cache.misses(), cache.hits()), (3, 1));
        // RailLocal declines caching entirely (round-robin state drifts).
        let req = request(&comm);
        let mut sel = RailLocalSelector::new();
        let mut rng = DetRng::seed_from(7);
        run_concurrent_cached(
            &t,
            std::slice::from_ref(&req),
            &mut sel,
            None,
            &mut rng,
            None,
            Some(&mut cache),
        );
        run_concurrent_cached(
            &t,
            std::slice::from_ref(&req),
            &mut sel,
            None,
            &mut rng,
            None,
            Some(&mut cache),
        );
        assert_eq!(cache.hits(), 1, "uncacheable selector never hits");
    }

    #[test]
    fn duplicate_requests_in_one_call_build_their_plan_once() {
        // Two requests on the same (comm, incarnation, shape) in a single
        // run_concurrent_cached call: the first builds the plan, the
        // second must be served from it — one miss, one hit, exactly as
        // the per-request cache lookup behaved.
        let t = topo();
        let comm = full_comm(&t, 2);
        let r1 = request(&comm);
        let mut r2 = request(&comm);
        r2.seq = 1;
        let mut cache = PlanCache::new();
        let mut sel = EcmpSelector::new(5);
        let mut rng = DetRng::seed_from(31);
        let results = run_concurrent_cached(
            &t,
            &[r1, r2],
            &mut sel,
            None,
            &mut rng,
            None,
            Some(&mut cache),
        );
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        assert_eq!(results.len(), 2);
        // Identical plans ⇒ identical flow sets for both requests.
        assert_eq!(results[0].qp_outcomes.len(), results[1].qp_outcomes.len());
        for (a, b) in results[0].qp_outcomes.iter().zip(&results[1].qp_outcomes) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.bytes, b.bytes);
        }
    }

    #[test]
    fn parallel_plan_build_is_identical_to_serial() {
        // Route assembly fans out across threads; the resulting flow set,
        // drain and report must match the serial build bit for bit.
        let t = topo();
        let comm = full_comm(&t, 4);
        let run_with = |threads: usize| {
            let mut req = request(&comm);
            req.drain.parallel = ParallelPolicy::with_threads(threads);
            let mut sel = EcmpSelector::new(17);
            let mut rng = DetRng::seed_from(23);
            run_collective(&t, &req, &mut sel, None, &mut rng, None)
        };
        let serial = run_with(1);
        for threads in [2, 4] {
            let par = run_with(threads);
            assert_eq!(par.finished, serial.finished, "{threads} threads");
            assert_eq!(par.qp_outcomes.len(), serial.qp_outcomes.len());
            for (a, b) in par.qp_outcomes.iter().zip(&serial.qp_outcomes) {
                assert_eq!(a.key, b.key);
                assert_eq!(a.bytes, b.bytes);
                assert_eq!(a.finish, b.finish);
                assert_eq!(a.mean_rate, b.mean_rate);
            }
            assert_eq!(par.report.link_bytes, serial.report.link_bytes);
        }
    }

    /// Two overlapping 2-node allreduces (they contend on node 1): one
    /// drain memo slot holding two plan keys.
    fn overlapping_pair(t: &Topology) -> (Communicator, Communicator) {
        (full_comm_at(t, 0, 2, 1), full_comm_at(t, 1, 2, 2))
    }

    /// Runs `reqs` through `cache` and through a cache-less engine from
    /// the same RNG state, asserts the results are equal and leave the RNG
    /// at the same position, and returns the cached results.
    fn cached_matches_uncached(
        t: &Topology,
        reqs: &[CollectiveRequest<'_>],
        cache: &mut PlanCache,
        rng: &mut DetRng,
    ) -> Vec<CollectiveResult> {
        cached_matches_uncached_salted(t, reqs, 9, cache, rng)
    }

    /// [`cached_matches_uncached`] under ECMP salt `salt`.
    fn cached_matches_uncached_salted(
        t: &Topology,
        reqs: &[CollectiveRequest<'_>],
        salt: u64,
        cache: &mut PlanCache,
        rng: &mut DetRng,
    ) -> Vec<CollectiveResult> {
        let mut uncached_rng = rng.clone();
        let cached = run_concurrent_cached(
            t,
            reqs,
            &mut EcmpSelector::new(salt),
            None,
            rng,
            None,
            Some(cache),
        );
        let uncached = run_concurrent(
            t,
            reqs,
            &mut EcmpSelector::new(salt),
            None,
            &mut uncached_rng,
            None,
        );
        assert_eq!(cached, uncached, "cached and cache-less results");
        assert_eq!(
            rng.uniform().to_bits(),
            uncached_rng.uniform().to_bits(),
            "RNG parity"
        );
        cached
    }

    #[test]
    fn noise_free_repeat_is_replayed_bit_identically() {
        let t = topo();
        let (c1, c2) = overlapping_pair(&t);
        let mut cache = PlanCache::new();
        let mut rng = DetRng::seed_from(40);
        let first =
            cached_matches_uncached(&t, &[request(&c1), request(&c2)], &mut cache, &mut rng);
        assert_eq!(cache.drain_reuses(), 0, "the first call drains");
        let later = SimTime::from_secs(5);
        let reqs: Vec<CollectiveRequest<'_>> = [&c1, &c2]
            .map(|c| CollectiveRequest {
                seq: 1,
                start: later,
                ..request(c)
            })
            .to_vec();
        let replayed = cached_matches_uncached(&t, &reqs, &mut cache, &mut rng);
        assert_eq!(cache.drain_reuses(), 1, "the repeat is replayed");
        assert_eq!((cache.misses(), cache.hits()), (2, 2));
        assert!(
            Arc::ptr_eq(&first[0].report.link_bytes, &replayed[0].report.link_bytes),
            "the replay shares the recorded table"
        );
        for (a, b) in first.iter().zip(&replayed) {
            assert_eq!(b.started, later);
            assert_eq!(a.duration(), b.duration(), "shifted, not changed");
        }
    }

    /// The host uplink that carried the most bytes in `r`'s drain.
    fn busiest_host_uplink(t: &Topology, r: &CollectiveResult) -> LinkId {
        (0..t.num_links())
            .map(LinkId::from_index)
            .filter(|&l| matches!(t.link(l).kind(), c4_topology::LinkKind::HostUp(_)))
            .max_by(|&a, &b| r.report.bytes_on(a).total_cmp(&r.report.bytes_on(b)))
            .expect("the fabric has host uplinks")
    }

    #[test]
    fn a_changed_route_capacity_is_drained_afresh_without_rebase() {
        let mut t = topo();
        let (c1, c2) = overlapping_pair(&t);
        let mut cache = PlanCache::new();
        let mut rng = DetRng::seed_from(41);
        let reqs = [request(&c1), request(&c2)];
        let first = cached_matches_uncached(&t, &reqs, &mut cache, &mut rng);
        // Halve one host uplink the drain used, then re-stamp every plan
        // without naming that link: the plans still hit, and only the
        // memo's own capacity check can tell the drain changed.
        let link = busiest_host_uplink(&t, &first[0]);
        t.link_mut(link).set_degradation(0.5);
        assert_eq!(cache.rebase(&t, &[]), 0, "no plan dropped");
        cached_matches_uncached(&t, &reqs, &mut cache, &mut rng);
        assert_eq!((cache.misses(), cache.hits()), (2, 2), "plans still hit");
        assert_eq!(cache.drain_reuses(), 0, "the memo saw the capacity change");
        // The fresh drain replaced the record: the next call replays it.
        cached_matches_uncached(&t, &reqs, &mut cache, &mut rng);
        assert_eq!(cache.drain_reuses(), 1);
    }

    #[test]
    fn noisy_drains_are_never_replayed() {
        let t = topo();
        let (c1, c2) = overlapping_pair(&t);
        let noisy = [
            DrainConfig {
                rate_noise: 0.1,
                ..DrainConfig::default()
            },
            DrainConfig {
                cnp: Some(c4_netsim::CnpModel::paper_default()),
                ..DrainConfig::default()
            },
        ];
        for drain in noisy {
            let mut cache = PlanCache::new();
            let mut rng = DetRng::seed_from(42);
            let reqs = [&c1, &c2].map(|c| CollectiveRequest {
                drain: drain.clone(),
                ..request(c)
            });
            for _ in 0..2 {
                cached_matches_uncached(&t, &reqs, &mut cache, &mut rng);
            }
            assert_eq!(cache.hits(), 2, "plans are cached");
            assert_eq!(cache.drain_reuses(), 0, "noisy drains always drain");
        }
    }

    #[test]
    fn hung_and_deadline_cut_drains_are_not_replayed() {
        // A dead host uplink under every port of node 0: the drain hangs
        // until its deadline, twice, and is never recorded.
        let t = topo();
        let (c1, c2) = overlapping_pair(&t);
        let mut dead = t.clone();
        for &nic in &dead.node(NodeId::from_index(0)).nics.clone() {
            for p in dead.nic(nic).ports {
                let up = dead.port(p).host_up;
                dead.link_mut(up).set_up(false);
            }
        }
        let mut cache = PlanCache::new();
        let mut rng = DetRng::seed_from(43);
        let reqs = [&c1, &c2].map(|c| {
            let mut r = request(c);
            r.drain.deadline = Some(SimTime::from_secs(30));
            r
        });
        for _ in 0..2 {
            let res = cached_matches_uncached(&dead, &reqs, &mut cache, &mut rng);
            assert!(res[0].hung());
        }
        assert_eq!(cache.drain_reuses(), 0, "a hung drain is not recorded");

        // A healthy drain is recorded; a deadline at its shifted end could
        // have cut it, so it drains afresh; one nanosecond later replays.
        let mut cache = PlanCache::new();
        let reqs = [request(&c1), request(&c2)];
        let first = cached_matches_uncached(&t, &reqs, &mut cache, &mut rng);
        let span = first[0].report.end - SimTime::ZERO;
        let start = SimTime::from_secs(7);
        for (slack_ns, reuses) in [(0, 0), (1, 1)] {
            let deadline = start + span + SimDuration::from_nanos(slack_ns);
            let reqs = [&c1, &c2].map(|c| {
                let mut r = request(c);
                r.start = start;
                r.drain.deadline = Some(deadline);
                r
            });
            cached_matches_uncached(&t, &reqs, &mut cache, &mut rng);
            assert_eq!(cache.drain_reuses(), reuses, "{slack_ns} ns of slack");
        }

        // A drain that completes exactly at its deadline is not recorded:
        // the deadline may have clamped its last step. On host links slowed
        // to 4 Gbps a clamped last step falls inside the one-byte
        // completion tolerance, so the drain still completes.
        let mut slow = t.clone();
        for l in 0..slow.num_links() {
            let l = LinkId::from_index(l);
            if matches!(slow.link(l).kind(), c4_topology::LinkKind::HostUp(_)) {
                slow.link_mut(l).set_degradation(0.02);
            }
        }
        let mut cache = PlanCache::new();
        let end = cached_matches_uncached(&slow, &reqs, &mut PlanCache::new(), &mut rng)[0]
            .report
            .end;
        let at_deadline = [&c1, &c2].map(|c| {
            let mut r = request(c);
            r.drain.deadline = Some(end);
            r
        });
        let res = cached_matches_uncached(&slow, &at_deadline, &mut cache, &mut rng);
        assert!(res.iter().all(|r| !r.hung()), "it still completes");
        cached_matches_uncached(&slow, &reqs, &mut cache, &mut rng);
        assert_eq!(cache.drain_reuses(), 0, "nothing was recorded");
    }

    #[test]
    fn a_plan_rebuilt_into_the_same_inputs_is_replayed() {
        let mut t = topo();
        let (c1, c2) = overlapping_pair(&t);
        let mut cache = PlanCache::new();
        let mut rng = DetRng::seed_from(44);
        let reqs = [request(&c1), request(&c2)];
        let first = cached_matches_uncached(&t, &reqs, &mut cache, &mut rng);
        // Degrade a host uplink of node 10, which neither communicator
        // uses, without a rebase: the topology version moves, so both
        // plans rebuild, into the same routes over the same capacities.
        let idle = t
            .port(t.nic(t.node(NodeId::from_index(10)).nics[0]).ports[0])
            .host_up;
        assert_eq!(first[0].report.bytes_on(idle), 0.0, "no route uses it");
        t.link_mut(idle).set_degradation(0.5);
        cached_matches_uncached(&t, &reqs, &mut cache, &mut rng);
        assert_eq!((cache.misses(), cache.hits()), (4, 0), "both plans rebuilt");
        assert_eq!(cache.drain_reuses(), 1, "the rebuild kept the slot");
    }

    #[test]
    fn a_plan_rebuilt_over_a_changed_route_capacity_is_drained_afresh() {
        let mut t = topo();
        let (c1, c2) = overlapping_pair(&t);
        let mut cache = PlanCache::new();
        let mut rng = DetRng::seed_from(45);
        let reqs = [request(&c1), request(&c2)];
        let first = cached_matches_uncached(&t, &reqs, &mut cache, &mut rng);
        // Halve a host uplink the drain used, without a rebase: both plans
        // rebuild, and the memo sees the changed capacity.
        let link = busiest_host_uplink(&t, &first[0]);
        t.link_mut(link).set_degradation(0.5);
        cached_matches_uncached(&t, &reqs, &mut cache, &mut rng);
        assert_eq!((cache.misses(), cache.hits()), (4, 0), "both plans rebuilt");
        assert_eq!(cache.drain_reuses(), 0, "the memo saw the capacity change");
        // The fresh drain overwrote the slot: the next call replays it.
        cached_matches_uncached(&t, &reqs, &mut cache, &mut rng);
        assert_eq!(cache.drain_reuses(), 1);
    }

    #[test]
    fn a_route_link_degraded_and_restored_still_replays() {
        let mut t = topo();
        let (c1, c2) = overlapping_pair(&t);
        let mut cache = PlanCache::new();
        let mut rng = DetRng::seed_from(46);
        let reqs = [request(&c1), request(&c2)];
        let first = cached_matches_uncached(&t, &reqs, &mut cache, &mut rng);
        // Halve a route link and restore it before the next call: the
        // version moved twice, but every route capacity is bit-equal again.
        let link = busiest_host_uplink(&t, &first[0]);
        let version = t.version();
        t.link_mut(link).set_degradation(0.5);
        t.link_mut(link).set_degradation(1.0);
        assert_eq!(t.version(), version + 2);
        assert_eq!(cache.rebase(&t, &[]), 0, "no plan dropped");
        cached_matches_uncached(&t, &reqs, &mut cache, &mut rng);
        assert_eq!(cache.drain_reuses(), 1, "equal capacities replay");
        // After that replay, degrading a route link drains afresh.
        t.link_mut(link).set_degradation(0.5);
        assert_eq!(cache.rebase(&t, &[]), 0, "no plan dropped");
        cached_matches_uncached(&t, &reqs, &mut cache, &mut rng);
        assert_eq!(cache.drain_reuses(), 1, "the memo saw the capacity change");
        assert_eq!((cache.misses(), cache.hits()), (2, 4), "plans still hit");
    }

    #[test]
    fn a_route_capacity_change_is_checked_until_a_drain_replaces_the_record() {
        let mut t = topo();
        let (c1, c2) = overlapping_pair(&t);
        let mut cache = PlanCache::new();
        let mut rng = DetRng::seed_from(47);
        let reqs = [request(&c1), request(&c2)];
        let first = cached_matches_uncached(&t, &reqs, &mut cache, &mut rng);
        // Take a route link down: the fresh drain hangs, so it does not
        // replace the record, and a second call at the same topology
        // version must still see the changed capacity.
        let link = busiest_host_uplink(&t, &first[0]);
        t.link_mut(link).set_up(false);
        assert_eq!(cache.rebase(&t, &[]), 0, "no plan dropped");
        for _ in 0..2 {
            let res = cached_matches_uncached(&t, &reqs, &mut cache, &mut rng);
            assert!(res[0].hung(), "the downed link stalls the drain");
        }
        assert_eq!(cache.drain_reuses(), 0, "a changed capacity drains afresh");
        // Bring it back: the kept record matches again and replays.
        t.link_mut(link).set_up(true);
        cached_matches_uncached(&t, &reqs, &mut cache, &mut rng);
        assert_eq!(cache.drain_reuses(), 1, "the old record replays");
    }

    /// `request(comm)` under 10 % rate noise and paper CNP accounting.
    fn noisy_request(comm: &Communicator) -> CollectiveRequest<'_> {
        CollectiveRequest {
            drain: DrainConfig {
                rate_noise: 0.1,
                cnp: Some(c4_netsim::CnpModel::paper_default()),
                ..DrainConfig::default()
            },
            ..request(comm)
        }
    }

    /// Runs `reqs` through `cache` under ECMP salt `salt` (checked against
    /// a cache-less run) and returns whether the call restored a seed
    /// solve rather than running the kernel.
    fn restores(
        t: &Topology,
        reqs: &[CollectiveRequest<'_>],
        salt: u64,
        cache: &mut PlanCache,
        rng: &mut DetRng,
    ) -> bool {
        let before = cache.seed_restores;
        cached_matches_uncached_salted(t, reqs, salt, cache, rng);
        cache.seed_restores > before
    }

    #[test]
    fn warm_noisy_calls_restore_their_seed_solve_bit_identically() {
        let t = topo();
        let (c1, c2) = overlapping_pair(&t);
        let mut cache = PlanCache::new();
        let mut rng = DetRng::seed_from(47);
        let mut results = Vec::new();
        for seq in 0..3 {
            let reqs = [&c1, &c2].map(|c| CollectiveRequest {
                seq,
                start: SimTime::from_secs(seq),
                ..noisy_request(c)
            });
            results.push(cached_matches_uncached(&t, &reqs, &mut cache, &mut rng));
        }
        assert_eq!(cache.seed_restores, 2, "the second and third calls restore");
        assert_eq!(cache.drain_reuses(), 0, "noisy drains are not replayed");
        assert_ne!(
            results[1][0].report.outcomes, results[2][0].report.outcomes,
            "fresh noise"
        );
    }

    #[test]
    fn a_changed_route_link_runs_the_kernel() {
        let mut t = topo();
        let (c1, c2) = overlapping_pair(&t);
        let reqs = [noisy_request(&c1), noisy_request(&c2)];
        let mut cache = PlanCache::new();
        let mut rng = DetRng::seed_from(48);
        let first = cached_matches_uncached(&t, &reqs, &mut cache, &mut rng);
        assert!(restores(&t, &reqs, 9, &mut cache, &mut rng));
        // Degrade, then down, a host uplink the drain used, each time
        // re-stamping the plans without naming the link: the plans still
        // hit, and only the topology version tells the seed solve is stale.
        let link = busiest_host_uplink(&t, &first[0]);
        let changes: [fn(&mut c4_topology::Link); 2] =
            [|l| l.set_degradation(0.5), |l| l.set_up(false)];
        for change in changes {
            change(t.link_mut(link));
            assert_eq!(cache.rebase(&t, &[]), 0, "no plan dropped");
            assert!(!restores(&t, &reqs, 9, &mut cache, &mut rng), "kernel");
            assert!(restores(&t, &reqs, 9, &mut cache, &mut rng), "kept anew");
        }
        assert_eq!((cache.misses(), cache.hits()), (2, 10), "plans always hit");
    }

    #[test]
    fn a_rebuilt_plan_runs_the_kernel() {
        let t = topo();
        let (c1, c2) = overlapping_pair(&t);
        let reqs = [noisy_request(&c1), noisy_request(&c2)];
        let mut cache = PlanCache::new();
        let mut rng = DetRng::seed_from(49);
        for (salt, restored) in [(9, false), (9, true), (10, false), (10, true)] {
            assert_eq!(
                restores(&t, &reqs, salt, &mut cache, &mut rng),
                restored,
                "salt {salt}"
            );
        }
        assert_eq!(cache.misses(), 4, "a new salt rebuilds both plans");
    }

    #[test]
    fn a_flow_whose_bytes_turn_zero_runs_the_kernel() {
        let t = topo();
        let (c1, c2) = overlapping_pair(&t);
        // A hot expert of weight 0 draws no bytes: the pairs into rank 1
        // become zero-byte flows, which a drain removes before it seeds.
        let reqs = |skew: EpSkew| {
            [&c1, &c2].map(|c| CollectiveRequest {
                kind: CollKind::AllToAll,
                count: 64 * 1024 * 1024,
                config: CommConfig { ep_skew: skew },
                ..noisy_request(c)
            })
        };
        let mut cache = PlanCache::new();
        let mut rng = DetRng::seed_from(50);
        let (uniform, cold) = (EpSkew::default(), EpSkew::hot(1, 0.0));
        let zero_byte = cached_matches_uncached(&t, &reqs(cold), &mut PlanCache::new(), &mut rng)
            [0]
        .qp_outcomes
        .iter()
        .filter(|o| o.bytes == ByteSize::ZERO)
        .count();
        assert!(zero_byte > 0, "rank 1 receives nothing");
        for (skew, restored) in [
            (EpSkew::hot(1, 3.0), false),
            (uniform, true),
            (cold, false),
            (cold, true),
            (uniform, false),
        ] {
            assert_eq!(
                restores(&t, &reqs(skew), 9, &mut cache, &mut rng),
                restored,
                "{skew:?}"
            );
        }
        assert_eq!(cache.misses(), 2, "bytes never re-plan");
    }

    #[test]
    fn clear_invalidate_and_a_plan_dropping_rebase_run_the_kernel() {
        let mut t = topo();
        let (c1, c2) = overlapping_pair(&t);
        let reqs = [noisy_request(&c1), noisy_request(&c2)];
        let mut cache = PlanCache::new();
        let mut rng = DetRng::seed_from(51);
        let first = cached_matches_uncached(&t, &reqs, &mut cache, &mut rng);
        let link = busiest_host_uplink(&t, &first[0]);
        type Invalidate = fn(&mut PlanCache, &mut Topology, LinkId);
        let invalidations: [(&str, Invalidate); 3] = [
            ("clear", |cache, _, _| cache.clear()),
            ("invalidate_comm", |cache, _, _| cache.invalidate_comm(1)),
            ("rebase", |cache, t, link| {
                t.link_mut(link).set_degradation(0.5);
                assert!(cache.rebase(t, &[link]) > 0, "a plan dropped");
            }),
        ];
        for (what, invalidate) in invalidations {
            assert!(restores(&t, &reqs, 9, &mut cache, &mut rng), "{what}");
            invalidate(&mut cache, &mut t, link);
            assert!(!restores(&t, &reqs, 9, &mut cache, &mut rng), "{what}");
        }
    }

    #[test]
    fn one_call_shares_one_report_across_its_results() {
        let t = topo();
        let (c1, c2) = overlapping_pair(&t);
        // A smaller second message, so the two requests finish apart.
        let reqs = [
            request(&c1),
            CollectiveRequest {
                count: 64 * 1024 * 1024,
                ..request(&c2)
            },
        ];
        let mut rng = DetRng::seed_from(46);
        let results = cached_matches_uncached(&t, &reqs, &mut PlanCache::new(), &mut rng);
        let report = &results[0].report;
        assert!(
            Arc::ptr_eq(report, &results[1].report),
            "one report per call"
        );
        let mut own = report.outcomes.as_slice();
        for r in &results {
            let (intra, rest) = own.split_at(r.intra_outcomes.len());
            let (qp, rest) = rest.split_at(r.qp_outcomes.len());
            assert_eq!((intra, qp), (&r.intra_outcomes[..], &r.qp_outcomes[..]));
            assert_eq!(
                r.finished,
                intra.iter().chain(qp).filter_map(|o| o.finish).max()
            );
            own = rest;
        }
        assert!(own.is_empty(), "the report holds exactly the call's flows");
        assert!(results[1].finished < results[0].finished);
        assert_eq!(Some(report.end), results[0].finished, "the call's end");
    }

    #[test]
    fn concurrent_jobs_sharing_a_port_contend() {
        let t = topo();
        // Job A: nodes 0-1; Job B: nodes 1-2 — both traverse node 1's rails.
        let c1 = full_comm_at(&t, 0, 2, 1);
        let c2 = full_comm_at(&t, 1, 2, 2);
        let r1 = request(&c1);
        let r2 = request(&c2);
        let mut sel = RailLocalSelector::new();
        let mut rng = DetRng::seed_from(11);
        let results = run_concurrent(&t, &[r1, r2], &mut sel, None, &mut rng, None);
        for res in &results {
            let busbw = res.busbw_gbps().unwrap();
            assert!(
                busbw < 362.0 - 2.0,
                "sharing node 1's NVLink/ports must cost bandwidth: {busbw}"
            );
        }
    }

    /// The stale-route rule against a brute-force scan of every hop, over
    /// random changed-link sets: ids across several 64-bit words, ids above
    /// every route link, duplicates, the empty set and PCIe links. `rebase`
    /// drops exactly the stale entries with a hop in the set, re-stamps the
    /// other stale ones and leaves current ones alone; `any_route_through`
    /// answers what the scan answers.
    #[test]
    fn rebase_and_the_route_audit_agree_with_a_hop_scan() {
        let mut t = topo();
        let comms: Vec<Communicator> = [(0, 2, 1), (2, 4, 2), (6, 2, 3), (8, 4, 4), (12, 4, 5)]
            .into_iter()
            .map(|(first, nodes, id)| full_comm_at(&t, first, nodes, id))
            .collect();
        let mut cache = PlanCache::new();
        let build = |t: &Topology, comms: &[Communicator], cache: &mut PlanCache| {
            for comm in comms {
                for kind in [CollKind::AllReduce, CollKind::AllToAll] {
                    let req = CollectiveRequest {
                        kind,
                        ..request(comm)
                    };
                    plan_requests(t, &[req], &mut EcmpSelector::new(3), Some(cache));
                }
            }
        };
        // Three communicators' plans go stale; two are built at the new
        // version and stay current.
        build(&t, &comms[..3], &mut cache);
        t.link_mut(LinkId::from_index(0));
        build(&t, &comms[3..], &mut cache);
        let version = t.version();
        assert_eq!(cache.len(), 10);

        let hops = |e: &PlanEntry| -> Vec<LinkId> {
            let routes = e.plan.intra.iter().chain(&e.plan.inter);
            routes.flat_map(|(_, r)| r.iter().copied()).collect()
        };
        let mut route_links: Vec<LinkId> = cache.entries.values().flat_map(hops).collect();
        route_links.sort_unstable();
        route_links.dedup();
        let above = route_links.last().unwrap().index() + 1;
        assert!(above > 4 * 64, "route links span several words");
        let pcie: Vec<LinkId> = (0..t.num_links())
            .map(LinkId::from_index)
            .filter(|&l| matches!(t.link(l).kind(), LinkKind::PcieTx(_) | LinkKind::PcieRx(_)))
            .collect();
        assert!(pcie.iter().any(|l| route_links.contains(l)), "PCIe hops");

        let mut rng = DetRng::seed_from(37);
        let mut sets: Vec<Vec<LinkId>> = vec![Vec::new()];
        for _ in 0..300 {
            let mut set = Vec::new();
            for _ in 0..rng.index(8) {
                let link = match rng.index(4) {
                    0 => route_links[rng.index(route_links.len())],
                    1 => LinkId::from_index(rng.index(t.num_links())),
                    2 => LinkId::from_index(above + rng.index(300)),
                    _ => pcie[rng.index(pcie.len())],
                };
                set.push(link);
                if rng.chance(0.25) {
                    set.push(link);
                }
            }
            sets.push(set);
        }

        let (mut some_dropped, mut some_kept) = (0, 0);
        for set in &sets {
            let through = |e: &PlanEntry| hops(e).iter().any(|l| set.contains(l));
            assert_eq!(
                cache.any_route_through(set),
                cache.entries.values().any(through),
                "audit of {set:?}"
            );
            let mut rebased = cache.clone();
            let dropped = rebased.rebase(&t, set);
            let mut expect_dropped = 0;
            for (key, entry) in &cache.entries {
                let stale = entry.topo_version != version;
                match rebased.entries.get(key) {
                    None => {
                        assert!(stale && through(entry), "{key:?} dropped by {set:?}");
                        expect_dropped += 1;
                    }
                    Some(kept) => {
                        assert!(!(stale && through(entry)), "{key:?} kept by {set:?}");
                        assert_eq!(kept.topo_version, version, "{key:?} re-stamped");
                        assert_eq!(kept.build, entry.build, "{key:?} not rebuilt");
                    }
                }
            }
            assert_eq!(dropped, expect_dropped, "drop count of {set:?}");
            assert_eq!(rebased.len(), cache.len() - dropped);
            some_dropped += usize::from(dropped > 0);
            some_kept += usize::from(dropped < 6);
        }
        assert!(
            some_dropped > 100 && some_kept > 100,
            "{some_dropped} {some_kept}"
        );
    }
}
