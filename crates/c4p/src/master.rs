//! The C4P master: QP path allocation with dual-port balance, spine
//! spreading, faulty-link elimination, and dynamic load rebalancing.
//!
//! ## Batched, deterministically parallel selection
//!
//! Path selection is stateful (the ledger's counts decide every choice), so
//! historically each plan build walked its keys one `select` at a time. At
//! thousands of GPUs that serial walk is the plan-build bottleneck — but it
//! has exploitable structure: a key's decision reads and writes **only the
//! fabric links of its own (src_leaf, dst_leaf) pair** (its candidate
//! uplinks belong to the source leaf, its downlinks to the destination
//! leaf). Two leaf pairs share links only when they share the source leaf
//! (same uplink row) or the destination leaf (same downlink column), so
//! grouping keys by leaf pair and partitioning groups into connected
//! components of that share-a-leaf relation yields partitions whose link
//! sets are disjoint. Selections in different partitions commute, which is
//! why [`C4pMaster::select_batch`] can fan partitions over worker threads
//! and still produce **bit-identical** choices, ledger counts and sticky
//! entries to the serial key order (pinned by `tests/c4p_differential.rs`).

use c4_netsim::{mix64, FlowKey, PathChoice, PathSelector};
use c4_simcore::{scoped_map, Bandwidth, FastMap, ParallelPolicy, UnionFind};
use c4_topology::{FabricPath, PortSide, SwitchId, Topology};

use crate::ledger::PathLoadLedger;
use crate::probe::PathCatalog;

/// Default minimum batch size before [`C4pMaster::select_batch`]
/// partitions and spawns workers; below it the serial loop wins on wall
/// clock (the dense ledger makes one selection ~100 ns, so the fan-out
/// only pays for very large connection bursts). Decisions are identical
/// either way; [`C4pMaster::set_batch_min_keys`] tunes the crossover.
const PARALLEL_MIN_KEYS: usize = 4096;

/// C4P behaviour knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct C4pConfig {
    /// When true, the master reallocates paths after network changes
    /// ([`C4pMaster::rebalance`]) and ACCL re-splits stream bytes across QPs
    /// in proportion to observed rates. When false (static traffic
    /// engineering, the Fig 12a baseline), initial allocations stay put and
    /// flows on dead links fall back to uncoordinated ECMP rerouting.
    pub dynamic: bool,
}

impl Default for C4pConfig {
    fn default() -> Self {
        C4pConfig { dynamic: true }
    }
}

/// The sticky-allocation table a selection works against: the serial path
/// mutates the master's map directly; batch workers overlay local writes on
/// a shared read-only base (`None` = removed) so partitions never touch
/// each other's entries.
enum StickyView<'a> {
    /// Direct mutable access (serial selection).
    Direct(&'a mut FastMap<FlowKey, PathChoice>),
    /// Copy-on-write overlay (one per batch worker).
    Overlay {
        base: &'a FastMap<FlowKey, PathChoice>,
        local: FastMap<FlowKey, Option<PathChoice>>,
    },
}

impl StickyView<'_> {
    fn get(&self, key: &FlowKey) -> Option<PathChoice> {
        match self {
            StickyView::Direct(map) => map.get(key).copied(),
            StickyView::Overlay { base, local } => match local.get(key) {
                Some(over) => *over,
                None => base.get(key).copied(),
            },
        }
    }

    fn insert(&mut self, key: FlowKey, choice: PathChoice) {
        match self {
            StickyView::Direct(map) => {
                map.insert(key, choice);
            }
            StickyView::Overlay { local, .. } => {
                local.insert(key, Some(choice));
            }
        }
    }

    fn remove(&mut self, key: &FlowKey) {
        match self {
            StickyView::Direct(map) => {
                map.remove(key);
            }
            StickyView::Overlay { local, .. } => {
                local.insert(*key, None);
            }
        }
    }
}

/// One ledger mutation of a batch worker: `true` = allocate, `false` =
/// release. Replayed on the master ledger at merge time; operations of
/// different partitions touch disjoint links, so replay order across
/// partitions cannot change the final counts.
type LedgerOp = (FabricPath, bool);

/// The cluster-wide traffic-engineering master.
///
/// Implements [`PathSelector`], so it drops into the collective engine in
/// place of the ECMP baseline.
#[derive(Debug, Clone)]
pub struct C4pMaster {
    cfg: C4pConfig,
    catalog: PathCatalog,
    ledger: PathLoadLedger,
    sticky: FastMap<FlowKey, PathChoice>,
    rate_ema: FastMap<FlowKey, f64>,
    reroute_salt: u64,
    /// Bumped whenever allocations are dropped (rebalance/reset), so plan
    /// caches keyed on [`PathSelector::cache_token`] invalidate.
    generation: u64,
    /// Worker-thread budget for [`C4pMaster::select_batch`]. Defaults to
    /// the `C4_THREADS` environment selection (unset ⇒ serial); choices are
    /// bit-identical at any value.
    parallel: ParallelPolicy,
    /// Batch-size floor below which `select_batch` stays serial.
    batch_min_keys: usize,
}

impl C4pMaster {
    /// Creates a master and performs the start-up full-mesh probe.
    pub fn new(topo: &Topology, cfg: C4pConfig) -> Self {
        C4pMaster {
            cfg,
            catalog: PathCatalog::probe(topo),
            ledger: PathLoadLedger::for_topology(topo),
            sticky: FastMap::default(),
            rate_ema: FastMap::default(),
            reroute_salt: 0xC4B0_5EED,
            generation: 0,
            parallel: ParallelPolicy::default(),
            batch_min_keys: PARALLEL_MIN_KEYS,
        }
    }

    /// Overrides the batch-size floor below which [`select_batch`] stays
    /// serial (differential tests drop it to force the partitioned path on
    /// small inputs; selections are bit-identical either way).
    ///
    /// [`select_batch`]: PathSelector::select_batch
    pub fn set_batch_min_keys(&mut self, min_keys: usize) {
        self.batch_min_keys = min_keys;
    }

    /// Sets the batch-selection thread budget, builder style.
    pub fn with_parallel(mut self, parallel: ParallelPolicy) -> Self {
        self.parallel = parallel;
        self
    }

    /// The current path catalog.
    pub fn catalog(&self) -> &PathCatalog {
        &self.catalog
    }

    /// The current allocation ledger.
    pub fn ledger(&self) -> &PathLoadLedger {
        &self.ledger
    }

    /// Re-probes the fabric and, in dynamic mode, drops all allocations so
    /// subsequent selections spread evenly over the surviving paths. Call
    /// after a topology change (the paper's "dynamically adapting QP
    /// workloads in response to network changes"). The dense ledger is
    /// rebuilt to the topology's current link table.
    pub fn rebalance(&mut self, topo: &Topology) {
        self.catalog = PathCatalog::probe(topo);
        self.generation += 1;
        if self.cfg.dynamic {
            self.sticky.clear();
            self.ledger = PathLoadLedger::for_topology(topo);
        }
    }

    /// Feeds back observed per-QP mean rates (from
    /// `CollectiveResult::qp_outcomes`) for dynamic byte-splitting.
    pub fn observe(&mut self, outcomes: &[c4_netsim::FlowOutcome]) {
        if !self.cfg.dynamic {
            return;
        }
        // EMA factor: each observation moves a QP's weight halfway to its
        // new rate.
        const ALPHA: f64 = 0.5;
        for o in outcomes {
            let rate = if o.mean_rate > Bandwidth::ZERO {
                o.mean_rate.as_gbps()
            } else {
                // A stalled QP keeps a small weight so it can recover.
                1.0
            };
            let e = self.rate_ema.entry(o.key).or_insert(rate);
            *e = ALPHA * rate + (1.0 - ALPHA) * *e;
        }
    }

    /// The QP byte-split weight for a key: its observed rate EMA, or 1
    /// before any observation. The collective engine reads this through
    /// [`PathSelector::byte_split_weight`] — a borrow, not a table clone —
    /// so faster paths carry more of each stream.
    pub fn qp_weight(&self, key: &FlowKey) -> f64 {
        if !self.cfg.dynamic {
            return 1.0;
        }
        self.rate_ema.get(key).copied().unwrap_or(1.0)
    }

    /// The sticky allocation for a key, if one exists.
    pub fn allocation(&self, key: &FlowKey) -> Option<PathChoice> {
        self.sticky.get(key).copied()
    }

    /// Sides rule: QP *q* uses the same physical-port side on both ends
    /// (left↔left / right↔right), which is what keeps receive traffic
    /// balanced between the bonded ports.
    fn side_for(key: &FlowKey) -> PortSide {
        PortSide::from_index(key.qp as usize)
    }

    /// The (src_leaf, dst_leaf) pair a key's selection works against — the
    /// batch-partitioning coordinate. Every ledger link the selection can
    /// read or write (candidates, releases of a dead sticky path) belongs
    /// to this pair's uplink row / downlink column.
    fn leaf_pair(topo: &Topology, key: &FlowKey) -> (SwitchId, SwitchId) {
        let side = Self::side_for(key);
        let sp = topo.port_of_gpu(key.src_gpu, side);
        let dp = topo.port_of_gpu(key.dst_gpu, side);
        (topo.port(sp).leaf, topo.port(dp).leaf)
    }

    fn choice_is_live(topo: &Topology, choice: &PathChoice) -> bool {
        match &choice.fabric {
            None => true,
            Some(p) => topo.link(p.up).is_up() && topo.link(p.down).is_up(),
        }
    }

    /// ECMP-style fallback over live paths — what the switches do to a
    /// static allocation when its link dies (uncoordinated, hash-based).
    fn ecmp_fallback(salt: u64, key: &FlowKey, live: &[FabricPath]) -> Option<FabricPath> {
        if live.is_empty() {
            return None;
        }
        let h = mix64(key.digest(salt));
        Some(live[(h % live.len() as u64) as usize])
    }

    /// Hash-threshold reroute: when an ECMP group member dies, the switch
    /// shifts that bucket's flows onto the *next* member rather than
    /// re-hashing everything — so all orphans of one dead uplink pile onto
    /// one survivor (the Fig 12a/13a static-TE pathology).
    fn neighbor_takeover(
        topo: &Topology,
        dead: &FabricPath,
        all: &[FabricPath],
    ) -> Option<FabricPath> {
        let dead_idx = all
            .iter()
            .position(|p| p.up == dead.up && p.down == dead.down)?;
        let n = all.len();
        (1..n)
            .map(|i| all[(dead_idx + i) % n])
            .find(|p| topo.link(p.up).is_up() && topo.link(p.down).is_up())
    }

    /// The single decision procedure behind both [`PathSelector::select`]
    /// and the batch workers: identical code ⇒ identical choices. `ledger`
    /// and `sticky` abstract over "the master's own state" (serial) vs "a
    /// worker's private copy/overlay" (batch); `log`, when present, records
    /// every ledger mutation for merge-time replay.
    #[allow(clippy::too_many_arguments)]
    fn select_core(
        cfg: &C4pConfig,
        catalog: &PathCatalog,
        reroute_salt: u64,
        topo: &Topology,
        key: &FlowKey,
        ledger: &mut PathLoadLedger,
        sticky: &mut StickyView<'_>,
        mut log: Option<&mut Vec<LedgerOp>>,
    ) -> PathChoice {
        if let Some(existing) = sticky.get(key) {
            if Self::choice_is_live(topo, &existing) {
                return existing;
            }
            // Allocation's path died.
            if !cfg.dynamic {
                // Static TE: the switches reroute without consulting the
                // master (ledger untouched). Hash-threshold ECMP shifts the
                // dead bucket onto its neighbour, concentrating orphans.
                let side = existing.src_side;
                let sp = topo.port_of_gpu(key.src_gpu, side);
                let dp = topo.port_of_gpu(key.dst_gpu, existing.dst_side);
                let src_leaf = topo.port(sp).leaf;
                let dst_leaf = topo.port(dp).leaf;
                let all = topo.fabric_paths(src_leaf, dst_leaf);
                let fabric = existing
                    .fabric
                    .and_then(|dead| Self::neighbor_takeover(topo, &dead, &all))
                    .or_else(|| {
                        let live: Vec<FabricPath> = all
                            .iter()
                            .copied()
                            .filter(|p| topo.link(p.up).is_up() && topo.link(p.down).is_up())
                            .collect();
                        Self::ecmp_fallback(reroute_salt, key, &live)
                    });
                return PathChoice {
                    src_side: existing.src_side,
                    dst_side: existing.dst_side,
                    fabric,
                };
            }
            // Dynamic: fall through to a fresh allocation.
            if let Some(p) = existing.fabric {
                ledger.release(&p);
                if let Some(log) = log.as_deref_mut() {
                    log.push((p, false));
                }
            }
            sticky.remove(key);
        }

        let side = Self::side_for(key);
        let sp = topo.port_of_gpu(key.src_gpu, side);
        let dp = topo.port_of_gpu(key.dst_gpu, side);
        let src_leaf = topo.port(sp).leaf;
        let dst_leaf = topo.port(dp).leaf;
        let fabric = if src_leaf == dst_leaf {
            None
        } else {
            let (healthy, pairs) = catalog.candidates(src_leaf, dst_leaf);
            // Rotate the tie-break start per leaf pair so one spine failure
            // doesn't strike the same allocation slots on every leaf.
            let offset = (mix64(src_leaf.0 as u64 ^ (dst_leaf.0 as u64) << 17)
                % healthy.len().max(1) as u64) as usize;
            match ledger.least_loaded_indexed(pairs, offset) {
                Some(i) => {
                    let p = healthy[i];
                    ledger.allocate(&p);
                    if let Some(log) = log {
                        log.push((p, true));
                    }
                    Some(p)
                }
                None => {
                    // Catalog stale or fabric fully dead: last-resort live
                    // path straight from the topology.
                    let live: Vec<FabricPath> = topo
                        .fabric_paths(src_leaf, dst_leaf)
                        .into_iter()
                        .filter(|p| topo.link(p.up).is_up() && topo.link(p.down).is_up())
                        .collect();
                    Self::ecmp_fallback(reroute_salt, key, &live)
                }
            }
        };
        let choice = PathChoice {
            src_side: side,
            dst_side: side,
            fabric,
        };
        sticky.insert(*key, choice);
        choice
    }
}

impl PathSelector for C4pMaster {
    fn select(&mut self, topo: &Topology, key: &FlowKey) -> PathChoice {
        let mut sticky = StickyView::Direct(&mut self.sticky);
        Self::select_core(
            &self.cfg,
            &self.catalog,
            self.reroute_salt,
            topo,
            key,
            &mut self.ledger,
            &mut sticky,
            None,
        )
    }

    /// Batched selection, bit-identical to calling [`PathSelector::select`]
    /// per key in slice order (see the module docs for why disjoint-link
    /// partitions commute). Serial policies and small batches take the
    /// plain loop.
    fn select_batch(&mut self, topo: &Topology, keys: &[FlowKey]) -> Vec<PathChoice> {
        if self.parallel.is_serial() || keys.len() < self.batch_min_keys {
            return keys.iter().map(|k| self.select(topo, k)).collect();
        }

        // Resolve every key's leaf pair — pure per-key topology lookups,
        // fanned out — then assign group ids with a cheap serial pass over
        // a dense src×dst index (leaves are the first `num_leaves` switch
        // ids).
        let nl = topo.num_leaves();
        let pairs: Vec<(SwitchId, SwitchId)> =
            scoped_map(self.parallel, keys, |key| Self::leaf_pair(topo, key));
        let mut group_at: Vec<u32> = vec![u32::MAX; nl * nl];
        let mut group_pairs: Vec<(SwitchId, SwitchId)> = Vec::new();
        let mut group_of_key: Vec<u32> = Vec::with_capacity(keys.len());
        for &pair in &pairs {
            let slot = pair.0.index() * nl + pair.1.index();
            let mut g = group_at[slot];
            if g == u32::MAX {
                g = group_pairs.len() as u32;
                group_at[slot] = g;
                group_pairs.push(pair);
            }
            group_of_key.push(g);
        }

        // Partition groups: union by shared source leaf or destination
        // leaf (the only ways two leaf pairs can share a fabric link) —
        // ids 0..nl are source (uplink-row) leaves, nl..2nl destination
        // (downlink-column) leaves. Same-leaf groups touch no links and
        // stay singleton partitions.
        let mut uf = UnionFind::new(2 * nl);
        for &(src, dst) in &group_pairs {
            if src != dst {
                uf.union(src.0, nl as u32 + dst.0);
            }
        }
        // Root id space: union-find roots (< 2·nl) then one solo id per
        // same-leaf group.
        let mut part_at: Vec<u32> = vec![u32::MAX; 2 * nl + group_pairs.len()];
        let mut part_of_group: Vec<u32> = Vec::with_capacity(group_pairs.len());
        let mut nparts = 0usize;
        for (g, &(src, dst)) in group_pairs.iter().enumerate() {
            let root = if src == dst {
                2 * nl + g
            } else {
                uf.find(src.0) as usize
            };
            let mut p = part_at[root];
            if p == u32::MAX {
                p = nparts as u32;
                part_at[root] = p;
                nparts += 1;
            }
            part_of_group.push(p);
        }

        // Per-partition key indices, original order preserved.
        let mut part_keys: Vec<Vec<u32>> = vec![Vec::new(); nparts];
        for (i, &g) in group_of_key.iter().enumerate() {
            part_keys[part_of_group[g as usize] as usize].push(i as u32);
        }

        // Pack partitions into one contiguous chunk per worker thread,
        // balanced by key count, so each worker pays for exactly one
        // ledger copy and one sticky overlay. Partitions are mutually
        // link- and key-disjoint, so partitions sharing a worker's view
        // cannot influence each other any more than separated ones.
        let workers = self.parallel.threads().min(nparts).max(1);
        let target = keys.len().div_ceil(workers);
        let mut chunks: Vec<Vec<u32>> = Vec::with_capacity(workers);
        let mut cur: Vec<u32> = Vec::new();
        let mut cur_keys = 0usize;
        for (p, indices) in part_keys.iter().enumerate() {
            cur.push(p as u32);
            cur_keys += indices.len();
            if cur_keys >= target && chunks.len() + 1 < workers {
                chunks.push(std::mem::take(&mut cur));
                cur_keys = 0;
            }
        }
        if !cur.is_empty() {
            chunks.push(cur);
        }

        // Fan the chunks out. A worker's decisions depend only on its own
        // partitions' links and keys, so they match what the serial
        // interleaving would have produced.
        let cfg = self.cfg;
        let reroute_salt = self.reroute_salt;
        let catalog = &self.catalog;
        let base_ledger = &self.ledger;
        let base_sticky = &self.sticky;
        type WorkerOut = (
            Vec<PathChoice>,
            Vec<LedgerOp>,
            Vec<(FlowKey, Option<PathChoice>)>,
        );
        let results: Vec<WorkerOut> = scoped_map(self.parallel, &chunks, |parts| {
            let mut ledger = base_ledger.clone();
            let mut sticky = StickyView::Overlay {
                base: base_sticky,
                local: FastMap::default(),
            };
            let mut ops: Vec<LedgerOp> = Vec::new();
            let mut choices: Vec<PathChoice> = Vec::new();
            for &p in parts {
                for &i in &part_keys[p as usize] {
                    choices.push(Self::select_core(
                        &cfg,
                        catalog,
                        reroute_salt,
                        topo,
                        &keys[i as usize],
                        &mut ledger,
                        &mut sticky,
                        Some(&mut ops),
                    ));
                }
            }
            let sticky_ops = match sticky {
                StickyView::Overlay { local, .. } => local.into_iter().collect(),
                StickyView::Direct(_) => unreachable!("workers use overlays"),
            };
            (choices, ops, sticky_ops)
        });

        // Merge: replay ledger ops and sticky writes (disjoint across
        // partitions, so replay order is immaterial to the outcome) and
        // scatter choices back to input positions.
        let mut out = vec![
            PathChoice {
                src_side: PortSide::Left,
                dst_side: PortSide::Left,
                fabric: None,
            };
            keys.len()
        ];
        for (parts, (choices, ops, sticky_ops)) in chunks.iter().zip(results) {
            let mut next = choices.into_iter();
            for &p in parts {
                for &i in &part_keys[p as usize] {
                    out[i as usize] = next.next().expect("one choice per key");
                }
            }
            for (path, alloc) in ops {
                if alloc {
                    self.ledger.allocate(&path);
                } else {
                    self.ledger.release(&path);
                }
            }
            for (key, entry) in sticky_ops {
                match entry {
                    Some(choice) => {
                        self.sticky.insert(key, choice);
                    }
                    None => {
                        self.sticky.remove(&key);
                    }
                }
            }
        }
        out
    }

    fn byte_split_weight(&self, key: &FlowKey) -> f64 {
        self.qp_weight(key)
    }

    fn name(&self) -> &'static str {
        if self.cfg.dynamic {
            "c4p-dynamic"
        } else {
            "c4p-static"
        }
    }

    fn reset(&mut self) {
        self.generation += 1;
        self.sticky.clear();
        self.ledger.clear();
        self.rate_ema.clear();
    }

    /// Sticky allocations make C4P cacheable between generation bumps: the
    /// same key re-selects the same path until rebalance/reset (topology
    /// changes are covered by the cache's topology-version key).
    fn cache_token(&self) -> Option<u64> {
        Some(mix64(self.generation ^ 0xC4B0_70CE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4_topology::{ClosConfig, NodeId};

    fn topo_grouped() -> Topology {
        Topology::build(&ClosConfig::testbed_128_grouped(2))
    }

    fn key(t: &Topology, src_node: usize, dst_node: usize, rail: usize, qp: u16) -> FlowKey {
        FlowKey {
            src_gpu: t.gpu_at(NodeId::from_index(src_node), rail),
            dst_gpu: t.gpu_at(NodeId::from_index(dst_node), rail),
            comm: 1,
            channel: 0,
            qp,
            incarnation: 0,
        }
    }

    #[test]
    fn sides_are_mirrored_per_qp() {
        let t = topo_grouped();
        let mut m = C4pMaster::new(&t, C4pConfig::default());
        let c0 = m.select(&t, &key(&t, 0, 8, 0, 0));
        let c1 = m.select(&t, &key(&t, 0, 8, 0, 1));
        assert_eq!(c0.src_side, PortSide::Left);
        assert_eq!(c0.dst_side, PortSide::Left);
        assert_eq!(c1.src_side, PortSide::Right);
        assert_eq!(c1.dst_side, PortSide::Right);
    }

    #[test]
    fn allocations_spread_over_spines() {
        let t = topo_grouped();
        let mut m = C4pMaster::new(&t, C4pConfig::default());
        // 32 QPs between the same leaf pair → 32 distinct uplinks.
        let mut ups = Vec::new();
        for i in 0..16 {
            for qp in 0..2u16 {
                // vary src/dst nodes within groups to vary keys; same rail 0
                let k = key(&t, i % 8, 8 + (i % 8), 0, qp);
                let mut k = k;
                k.comm = i as u64; // distinct communicators → distinct QPs
                let c = m.select(&t, &k);
                if let Some(p) = c.fabric {
                    ups.push(p.up);
                }
            }
        }
        // Left-side QPs share a leaf pair, right-side another.
        let mut dedup = ups.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ups.len(), "no uplink reused before all used");
    }

    #[test]
    fn selection_is_sticky() {
        let t = topo_grouped();
        let mut m = C4pMaster::new(&t, C4pConfig::default());
        let k = key(&t, 0, 8, 3, 0);
        let a = m.select(&t, &k);
        let b = m.select(&t, &k);
        assert_eq!(a, b);
        assert_eq!(m.ledger().total_allocations(), 1, "allocated once");
    }

    #[test]
    fn static_mode_falls_back_to_ecmp_on_dead_path() {
        let t0 = topo_grouped();
        let mut m = C4pMaster::new(&t0, C4pConfig { dynamic: false });
        let k = key(&t0, 0, 8, 0, 0);
        let a = m.select(&t0, &k);
        let path = a.fabric.unwrap();
        let mut t = t0.clone();
        t.link_mut(path.up).set_up(false);
        let b = m.select(&t, &k);
        let rerouted = b.fabric.unwrap();
        assert_ne!(rerouted.up, path.up, "must leave the dead link");
        assert!(t.link(rerouted.up).is_up());
        // Sides preserved (reroute happens in the fabric, not at the NIC).
        assert_eq!(b.src_side, a.src_side);
    }

    #[test]
    fn dynamic_rebalance_reallocates_evenly() {
        let t0 = topo_grouped();
        let mut m = C4pMaster::new(&t0, C4pConfig::default());
        let keys: Vec<FlowKey> = (0..8)
            .flat_map(|i| (0..2u16).map(move |qp| (i, qp)))
            .map(|(i, qp)| {
                let mut k = key(&t0, i, 8 + i, 0, qp);
                k.comm = i as u64;
                k
            })
            .collect();
        for k in &keys {
            m.select(&t0, k);
        }
        let before = m.ledger().total_allocations();
        assert_eq!(before, keys.len() as u32);
        // Kill a spine; rebalance must drop and respread allocations.
        let mut t = t0.clone();
        let spine = t.spines()[0];
        t.set_spine_up(spine, false);
        m.rebalance(&t);
        assert_eq!(m.ledger().total_allocations(), 0);
        for k in &keys {
            let c = m.select(&t, k);
            let p = c.fabric.unwrap();
            assert_ne!(p.spine, spine, "no allocation on the dead spine");
        }
        assert_eq!(m.ledger().total_allocations(), keys.len() as u32);
    }

    #[test]
    fn observe_updates_weights() {
        let t = topo_grouped();
        let mut m = C4pMaster::new(&t, C4pConfig::default());
        let k = key(&t, 0, 8, 0, 0);
        assert_eq!(m.qp_weight(&k), 1.0);
        let outcome = c4_netsim::FlowOutcome {
            key: k,
            bytes: c4_simcore::ByteSize::from_mib(1),
            start: c4_simcore::SimTime::ZERO,
            finish: Some(c4_simcore::SimTime::from_secs(1)),
            mean_rate: Bandwidth::from_gbps(100.0),
            min_rate: Bandwidth::from_gbps(100.0),
            max_rate: Bandwidth::from_gbps(100.0),
        };
        m.observe(std::slice::from_ref(&outcome));
        assert!((m.qp_weight(&k) - 100.0).abs() < 1e-9);
        // The engine-facing hook reads the same EMA, by borrow.
        assert!((m.byte_split_weight(&k) - 100.0).abs() < 1e-9);
        // EMA: a second observation at 200 moves halfway.
        let faster = c4_netsim::FlowOutcome {
            mean_rate: Bandwidth::from_gbps(200.0),
            ..outcome
        };
        m.observe(&[faster]);
        assert!((m.qp_weight(&k) - 150.0).abs() < 1e-9);
    }

    #[test]
    fn rail_optimized_same_leaf_stays_local() {
        let t = Topology::build(&ClosConfig::testbed_128());
        let mut m = C4pMaster::new(&t, C4pConfig::default());
        let c = m.select(&t, &key(&t, 0, 1, 0, 0));
        assert!(c.fabric.is_none());
    }

    #[test]
    fn batch_matches_serial_selects() {
        // A batch big enough to trip the parallel path, with repeated keys
        // (sticky hits) and same-leaf keys (no fabric) mixed in.
        let t = topo_grouped();
        let mut keys = Vec::new();
        for i in 0..48usize {
            for qp in 0..2u16 {
                let mut k = key(&t, i % 8, 8 + ((i + 3) % 8), i % 8, qp);
                k.comm = (i / 4) as u64;
                keys.push(k);
            }
        }
        keys.push(keys[0]); // sticky repeat
        keys.push(key(&t, 0, 1, 0, 0)); // same group → same leaf pair

        let mut serial = C4pMaster::new(&t, C4pConfig::default());
        let expected: Vec<PathChoice> = keys.iter().map(|k| serial.select(&t, k)).collect();

        for threads in [2usize, 4] {
            let mut batch = C4pMaster::new(&t, C4pConfig::default())
                .with_parallel(ParallelPolicy::with_threads(threads));
            batch.set_batch_min_keys(1);
            let got = batch.select_batch(&t, &keys);
            assert_eq!(got, expected, "{threads} threads");
            assert_eq!(
                batch.ledger().total_allocations(),
                serial.ledger().total_allocations()
            );
            for l in 0..t.num_links() {
                let l = c4_topology::LinkId::from_index(l);
                assert_eq!(batch.ledger().load(l), serial.ledger().load(l), "{l}");
            }
            for k in &keys {
                assert_eq!(batch.allocation(k), serial.allocation(k));
            }
        }
    }
}
