//! Full-mesh path probing and faulty-link elimination.
//!
//! The paper's C4P master probes paths between randomly selected servers
//! under every leaf pair, cataloging which source ports reach which spine
//! paths intact (§III-B). Here probing reads link state directly — the
//! simulator's ground truth *is* what a probe packet would measure — and
//! classifies each leaf→spine→leaf path as healthy (both links up at full
//! capacity) or eliminated.
//!
//! The catalog is stored **dense**: healthy paths of all ordered leaf pairs
//! live in one flat vector with per-pair ranges, and each pair additionally
//! carries its candidates' `[up, down]` link indices in a contiguous slice
//! ([`PathCatalog::candidates`] returns both). The allocation hot loop
//! (`PathLoadLedger::least_loaded_indexed`) therefore runs over two small
//! dense arrays — no hash lookups per candidate — which is what keeps plan
//! builds fast at thousands of GPUs (hundreds of leaves ⇒ tens of
//! thousands of leaf pairs).

use c4_topology::{FabricPath, LinkId, SwitchId, Topology};

/// The probing result: healthy paths per ordered leaf pair, plus eliminated
/// links.
#[derive(Debug, Clone, Default)]
pub struct PathCatalog {
    num_leaves: usize,
    /// Healthy paths of every ordered leaf pair, flattened in
    /// (src tier index, dst tier index) row-major order.
    paths: Vec<FabricPath>,
    /// Dense `[up, down]` link indices, parallel to `paths`.
    link_pairs: Vec<[u32; 2]>,
    /// `pair_start[src * L + dst] .. pair_start[src * L + dst + 1]` is the
    /// pair's range into `paths` / `link_pairs`.
    pair_start: Vec<u32>,
    eliminated: Vec<LinkId>,
}

impl PathCatalog {
    /// Probes every ordered leaf pair of the topology.
    pub fn probe(topo: &Topology) -> Self {
        let leaves = topo.leaves();
        let nl = leaves.len();
        // Leaves are built first, so a leaf's switch id doubles as its tier
        // index — the invariant that lets lookups skip the topology.
        debug_assert!(leaves.iter().enumerate().all(|(i, l)| l.index() == i));
        let mut paths = Vec::new();
        let mut link_pairs = Vec::new();
        let mut pair_start = Vec::with_capacity(nl * nl + 1);
        pair_start.push(0u32);
        let mut eliminated = Vec::new();
        for &src in leaves {
            for &dst in leaves {
                if src != dst {
                    for p in topo.fabric_paths(src, dst) {
                        if p.is_healthy(topo) {
                            paths.push(p);
                            link_pairs.push([p.up.index() as u32, p.down.index() as u32]);
                        } else {
                            for l in [p.up, p.down] {
                                if (!topo.link(l).is_up() || topo.link(l).degradation() < 1.0)
                                    && !eliminated.contains(&l)
                                {
                                    eliminated.push(l);
                                }
                            }
                        }
                    }
                }
                pair_start.push(paths.len() as u32);
            }
        }
        PathCatalog {
            num_leaves: nl,
            paths,
            link_pairs,
            pair_start,
            eliminated,
        }
    }

    /// The pair's range into the flat path storage, empty for same-leaf or
    /// out-of-range ids.
    fn pair_range(&self, src: SwitchId, dst: SwitchId) -> std::ops::Range<usize> {
        let (s, d) = (src.index(), dst.index());
        if s >= self.num_leaves || d >= self.num_leaves {
            return 0..0;
        }
        let p = s * self.num_leaves + d;
        self.pair_start[p] as usize..self.pair_start[p + 1] as usize
    }

    /// The healthy paths between two leaves and their dense `[up, down]`
    /// link-index pairs, positions aligned (the scan input for
    /// `PathLoadLedger::least_loaded_indexed`); both empty if there are none,
    /// for the same leaf, or for out-of-range ids.
    pub fn candidates(&self, src: SwitchId, dst: SwitchId) -> (&[FabricPath], &[[u32; 2]]) {
        let range = self.pair_range(src, dst);
        (&self.paths[range.clone()], &self.link_pairs[range])
    }

    /// Links the prober eliminated from the allocation pool.
    pub fn eliminated_links(&self) -> &[LinkId] {
        &self.eliminated
    }

    /// Total healthy paths in the catalog.
    pub fn healthy_count(&self) -> usize {
        self.paths.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4_topology::ClosConfig;

    #[test]
    fn clean_fabric_catalogs_everything() {
        let t = Topology::build(&ClosConfig::testbed_128());
        let cat = PathCatalog::probe(&t);
        // 8 leaves × 7 peers × 8 spines × 4 slots.
        assert_eq!(cat.healthy_count(), 8 * 7 * 8 * 4);
        assert!(cat.eliminated_links().is_empty());
        let paths = cat.candidates(t.leaves()[0], t.leaves()[1]).0;
        assert_eq!(paths.len(), 32);
    }

    #[test]
    fn down_link_is_eliminated() {
        let mut t = Topology::build(&ClosConfig::testbed_128());
        let victim = t.fabric_up_links(0, 3)[1];
        t.link_mut(victim).set_up(false);
        let cat = PathCatalog::probe(&t);
        assert!(cat.eliminated_links().contains(&victim));
        // Paths from leaf 0 through that uplink are gone; one per dst leaf.
        let paths = cat.candidates(t.leaves()[0], t.leaves()[5]).0;
        assert_eq!(paths.len(), 31);
        assert!(paths.iter().all(|p| p.up != victim));
        // Reverse direction unaffected (directed links).
        assert_eq!(cat.candidates(t.leaves()[5], t.leaves()[0]).0.len(), 32);
    }

    #[test]
    fn degraded_link_is_also_eliminated() {
        // ECMP routing would still use a flapping link; the prober won't.
        let mut t = Topology::build(&ClosConfig::testbed_128());
        let victim = t.fabric_down_links(2, 4)[0];
        t.link_mut(victim).set_degradation(0.5);
        let cat = PathCatalog::probe(&t);
        assert!(cat.eliminated_links().contains(&victim));
    }

    #[test]
    fn same_leaf_has_no_paths() {
        let t = Topology::build(&ClosConfig::testbed_128());
        let cat = PathCatalog::probe(&t);
        assert!(cat.candidates(t.leaves()[0], t.leaves()[0]).0.is_empty());
    }

    #[test]
    fn link_pairs_align_with_paths() {
        let mut t = Topology::build(&ClosConfig::testbed_128());
        t.link_mut(t.fabric_up_links(2, 1)[0]).set_up(false);
        let cat = PathCatalog::probe(&t);
        for &src in t.leaves() {
            for &dst in t.leaves() {
                let (paths, pairs) = cat.candidates(src, dst);
                assert_eq!(paths.len(), pairs.len());
                for (p, pair) in paths.iter().zip(pairs) {
                    assert_eq!(p.up.index() as u32, pair[0]);
                    assert_eq!(p.down.index() as u32, pair[1]);
                }
            }
        }
        // Out-of-range switch ids (e.g. spines) yield empty slices.
        let spine = t.spines()[0];
        let (paths, pairs) = cat.candidates(spine, t.leaves()[0]);
        assert!(paths.is_empty() && pairs.is_empty());
    }

    #[test]
    fn default_catalog_is_empty() {
        let cat = PathCatalog::default();
        let t = Topology::build(&ClosConfig::tiny(2));
        assert!(cat.candidates(t.leaves()[0], t.leaves()[1]).0.is_empty());
        assert_eq!(cat.healthy_count(), 0);
    }
}
