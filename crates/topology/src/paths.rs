//! Fabric paths: the unit of C4P's traffic engineering.
//!
//! A [`FabricPath`] is one concrete way to cross the spine layer between two
//! leaves: an uplink, a spine, and a downlink. On hardware the path is
//! selected implicitly by the RDMA source port through ECMP hashing; here it
//! is selected explicitly, and the ECMP baseline reproduces the hashing on
//! top (see `c4-netsim`).

use crate::ids::{LinkId, SwitchId};
use crate::topology::Topology;

/// One leaf→spine→leaf crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FabricPath {
    /// The spine this path transits.
    pub spine: SwitchId,
    /// Leaf → spine uplink.
    pub up: LinkId,
    /// Spine → leaf downlink.
    pub down: LinkId,
    /// Parallel-link slot index (k-th uplink paired with k-th downlink).
    pub slot: u8,
}

impl FabricPath {
    /// True when both constituent links are up and undegraded below the
    /// given threshold (1.0 = fully healthy required).
    pub fn is_healthy(&self, topo: &Topology) -> bool {
        let up = topo.link(self.up);
        let down = topo.link(self.down);
        up.is_up() && down.is_up() && up.degradation() >= 1.0 && down.degradation() >= 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clos::ClosConfig;

    #[test]
    fn health_reflects_link_state() {
        let mut t = Topology::build(&ClosConfig::testbed_128());
        let paths = t.fabric_paths(t.leaves()[0], t.leaves()[4]);
        assert!(paths.iter().all(|p| p.is_healthy(&t)));
        let victim = paths[5];
        t.link_mut(victim.up).set_up(false);
        assert!(!victim.is_healthy(&t));
        // Sibling paths unaffected.
        assert!(paths
            .iter()
            .filter(|p| p.up != victim.up)
            .all(|p| p.is_healthy(&t)));
    }

    #[test]
    fn degradation_marks_unhealthy() {
        let mut t = Topology::build(&ClosConfig::testbed_128());
        let paths = t.fabric_paths(t.leaves()[1], t.leaves()[6]);
        let victim = paths[0];
        t.link_mut(victim.down).set_degradation(0.5);
        assert!(!victim.is_healthy(&t));
    }
}
