//! The per-path connection ledger: C4P's record of how many QPs it has
//! placed on each fabric link, used to pick the least-loaded path for every
//! new connection ("the C4P master records the numbers of allocated
//! connections on each path, and allocates path for new connections
//! considering the occupied network resources", §III-B).
//!
//! Counts live in a **dense, topology-indexed `Vec<u32>`** (link ids are
//! dense indices assigned by the topology builder), so the least-loaded
//! scan over a leaf pair's candidate paths is a cache-friendly sweep of a
//! few machine words instead of two hash lookups per candidate — the inner
//! loop of every plan build at cluster scale. The footprint is fixed by the
//! topology (one counter per link ever touched), so allocate/release churn
//! across month-scale multi-job runs cannot grow it; the old `HashMap`
//! ledger leaked a zero-count entry per released link forever.

use c4_topology::{FabricPath, LinkId, Topology};

/// QP counts per directed fabric link, dense over link ids.
#[derive(Debug, Clone, Default)]
pub struct PathLoadLedger {
    load: Vec<u32>,
    allocations: u32,
}

impl PathLoadLedger {
    /// Creates an empty ledger that grows (once) to the highest link index
    /// it sees. Prefer [`PathLoadLedger::for_topology`] when a topology is
    /// at hand so no allocation happens on the selection hot path.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a ledger pre-sized for every link of `topo`.
    pub fn for_topology(topo: &Topology) -> Self {
        PathLoadLedger {
            load: vec![0; topo.num_links()],
            allocations: 0,
        }
    }

    /// Current QP count on a link.
    pub fn load(&self, link: LinkId) -> u32 {
        self.load.get(link.index()).copied().unwrap_or(0)
    }

    /// Combined load of a path (its uplink plus its downlink).
    pub fn path_load(&self, path: &FabricPath) -> u32 {
        self.load(path.up) + self.load(path.down)
    }

    /// Records one QP on the path.
    pub fn allocate(&mut self, path: &FabricPath) {
        let hi = path.up.index().max(path.down.index());
        if hi >= self.load.len() {
            self.load.resize(hi + 1, 0);
        }
        self.load[path.up.index()] += 1;
        self.load[path.down.index()] += 1;
        self.allocations += 1;
    }

    /// Releases one QP from the path (saturating).
    pub fn release(&mut self, path: &FabricPath) {
        for l in [path.up, path.down] {
            if let Some(c) = self.load.get_mut(l.index()) {
                *c = c.saturating_sub(1);
            }
        }
        self.allocations = self.allocations.saturating_sub(1);
    }

    /// Picks the least-loaded path, breaking ties in candidate order
    /// starting from `offset`, so the allocation is deterministic and
    /// naturally round-robins across spines. Different leaf pairs use
    /// different offsets so a single spine failure does not hit the same
    /// tenants on every leaf.
    pub fn least_loaded_rotated<'a>(
        &self,
        candidates: &'a [FabricPath],
        offset: usize,
    ) -> Option<&'a FabricPath> {
        if candidates.is_empty() {
            return None;
        }
        let n = candidates.len();
        (0..n)
            .map(|i| &candidates[(i + offset) % n])
            .min_by_key(|p| self.path_load(p))
    }

    /// The least-loaded scan over precomputed dense `[up, down]` link-index
    /// pairs (see `PathCatalog::link_pairs`): returns the winning position
    /// in `pairs`, with the same rotated deterministic tie-break as
    /// [`PathLoadLedger::least_loaded_rotated`]. This is the allocation
    /// inner loop — no hashing, just a linear sweep of the dense counts.
    pub fn least_loaded_indexed(&self, pairs: &[[u32; 2]], offset: usize) -> Option<usize> {
        let n = pairs.len();
        if n == 0 {
            return None;
        }
        let load_at = |i: usize| -> u32 {
            let [up, down] = pairs[i];
            self.load.get(up as usize).copied().unwrap_or(0)
                + self.load.get(down as usize).copied().unwrap_or(0)
        };
        let mut best = offset % n;
        let mut best_load = load_at(best);
        for j in 1..n {
            let i = (j + offset) % n;
            let l = load_at(i);
            if l < best_load {
                best = i;
                best_load = l;
            }
        }
        Some(best)
    }

    /// Zeroes all counts (job restart / rebalance). The footprint is kept:
    /// counters stay allocated for the links they cover.
    pub fn clear(&mut self) {
        self.load.fill(0);
        self.allocations = 0;
    }

    /// Total QPs currently recorded.
    pub fn total_allocations(&self) -> u32 {
        self.allocations
    }

    /// Links currently carrying a non-zero QP count. Unlike the former
    /// `HashMap` ledger, released links do not stay tracked: after full
    /// release this returns 0 whatever churn came before.
    pub fn tracked_links(&self) -> usize {
        self.load.iter().filter(|&&c| c > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4_topology::{ClosConfig, Topology};

    fn paths() -> (Topology, Vec<FabricPath>) {
        let t = Topology::build(&ClosConfig::testbed_128());
        let p = t.fabric_paths(t.leaves()[0], t.leaves()[4]);
        (t, p)
    }

    #[test]
    fn least_loaded_round_robins() {
        let (_t, paths) = paths();
        let mut ledger = PathLoadLedger::new();
        let mut chosen = Vec::new();
        for _ in 0..paths.len() {
            let p = *ledger.least_loaded_rotated(&paths, 0).unwrap();
            ledger.allocate(&p);
            chosen.push(p);
        }
        // All distinct: perfect spreading before any path is reused.
        let mut ups: Vec<_> = chosen.iter().map(|p| p.up).collect();
        ups.sort();
        ups.dedup();
        assert_eq!(ups.len(), paths.len());
        // Next allocation reuses a path but load stays balanced at 1→2.
        let p = *ledger.least_loaded_rotated(&paths, 0).unwrap();
        assert_eq!(ledger.path_load(&p), 2);
    }

    #[test]
    fn release_restores_capacity() {
        let (_t, paths) = paths();
        let mut ledger = PathLoadLedger::new();
        ledger.allocate(&paths[0]);
        assert_eq!(ledger.path_load(&paths[0]), 2);
        ledger.release(&paths[0]);
        assert_eq!(ledger.path_load(&paths[0]), 0);
        // Releasing again saturates at zero.
        ledger.release(&paths[0]);
        assert_eq!(ledger.path_load(&paths[0]), 0);
    }

    #[test]
    fn deterministic_tie_breaks() {
        let (_t, paths) = paths();
        let a = PathLoadLedger::new()
            .least_loaded_rotated(&paths, 0)
            .copied();
        let b = PathLoadLedger::new()
            .least_loaded_rotated(&paths, 0)
            .copied();
        assert_eq!(a, b);
        assert!(PathLoadLedger::new().least_loaded_rotated(&[], 0).is_none());
    }

    #[test]
    fn indexed_scan_matches_rotated_scan() {
        let (_t, paths) = paths();
        let pairs: Vec<[u32; 2]> = paths
            .iter()
            .map(|p| [p.up.index() as u32, p.down.index() as u32])
            .collect();
        let mut ledger = PathLoadLedger::new();
        // Load the ledger unevenly, checking agreement at every offset as
        // counts accumulate.
        for round in 0..40 {
            for offset in [0usize, 1, 5, paths.len() - 1, paths.len() + 3] {
                let by_path = ledger
                    .least_loaded_rotated(&paths, offset)
                    .map(|p| (p.up, p.down));
                let by_index = ledger
                    .least_loaded_indexed(&pairs, offset)
                    .map(|i| (paths[i].up, paths[i].down));
                assert_eq!(by_path, by_index, "round {round} offset {offset}");
            }
            ledger.allocate(&paths[(round * 7) % paths.len()]);
        }
        assert!(ledger.least_loaded_indexed(&[], 0).is_none());
    }

    #[test]
    fn clear_empties_ledger() {
        let (_t, paths) = paths();
        let mut ledger = PathLoadLedger::new();
        ledger.allocate(&paths[3]);
        ledger.clear();
        assert_eq!(ledger.path_load(&paths[3]), 0);
        assert_eq!(ledger.tracked_links(), 0);
    }

    #[test]
    fn churn_does_not_grow_the_footprint() {
        // Regression: the HashMap ledger kept a zero-count entry per
        // released link forever, so multi-job allocate/release churn grew
        // the map without bound. The dense ledger's footprint is pinned to
        // the topology.
        let (t, paths) = paths();
        let mut ledger = PathLoadLedger::for_topology(&t);
        let footprint = ledger.load.len();
        assert_eq!(footprint, t.num_links());
        for round in 0..1000 {
            let p = &paths[round % paths.len()];
            ledger.allocate(p);
            assert_eq!(ledger.tracked_links(), 2, "one path live at a time");
            ledger.release(p);
            assert_eq!(ledger.tracked_links(), 0, "release fully untracks");
            assert_eq!(ledger.load.len(), footprint, "round {round}");
        }
        assert_eq!(ledger.total_allocations(), 0);
    }
}
