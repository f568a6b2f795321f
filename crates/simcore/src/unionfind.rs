//! A minimal disjoint-set (union-find) over dense `u32` ids.
//!
//! C4P's leaf-pair batch partitioning (`c4_traffic::C4pMaster`) uses it to
//! split a selection batch into independent pieces before fanning them
//! out. The partition must be identical at any thread count, so it lives
//! here, next to the other deterministic fan-out primitives.

/// Disjoint sets over the ids `0..n`, with path-halving `find`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    /// The set representative of `x`, halving the path on the way up.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    /// Merges `a`'s set into `b`'s: afterwards `find(a) == find(b)`, and
    /// `b`'s previous representative is the surviving root (callers rely
    /// on that direction for deterministic component numbering).
    pub fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        self.parent[ra as usize] = rb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_then_unions() {
        let mut uf = UnionFind::new(6);
        for x in 0..6 {
            assert_eq!(uf.find(x), x);
        }
        uf.union(0, 1);
        uf.union(2, 3);
        assert_eq!(uf.find(0), uf.find(1));
        assert_eq!(uf.find(2), uf.find(3));
        assert_ne!(uf.find(0), uf.find(2));
        uf.union(1, 2);
        assert_eq!(uf.find(0), uf.find(3));
        assert_ne!(uf.find(0), uf.find(5));
    }

    #[test]
    fn union_direction_keeps_target_root() {
        // Callers number components by the surviving root, so the
        // direction is part of the contract.
        let mut uf = UnionFind::new(4);
        uf.union(0, 3);
        assert_eq!(uf.find(0), 3);
        uf.union(1, 0);
        assert_eq!(uf.find(1), 3);
    }

    #[test]
    fn repeated_and_self_unions_are_noops() {
        let mut uf = UnionFind::new(3);
        uf.union(0, 0);
        uf.union(1, 2);
        uf.union(1, 2);
        assert_eq!(uf.find(0), 0);
        assert_eq!(uf.find(1), 2);
    }
}
