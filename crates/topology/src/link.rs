//! Directed links: the capacity-bearing edges of the topology graph.
//!
//! Every physical cable is modeled as *two* directed links (one per
//! direction) because traffic collisions — the phenomenon C4P exists to
//! eliminate — are per-direction: a congested leaf→spine uplink says nothing
//! about the reverse spine→leaf direction.
//!
//! Link kinds cover the whole data path of a collective transfer:
//! GPU NVLink egress/ingress (intra-node edges), GPU PCIe egress/ingress (to
//! reach the NIC), host links between NIC ports and leaves, and fabric links
//! between leaves and spines.

use serde::{Deserialize, Serialize};

use c4_simcore::Bandwidth;

use crate::ids::{GpuId, LinkId, PortId, SwitchId};

/// What a directed link connects, and therefore which failure/degradation
/// modes apply to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkKind {
    /// NVLink egress of a GPU: carries intra-node ring edges out of the GPU.
    NvlinkTx(GpuId),
    /// NVLink ingress of a GPU.
    NvlinkRx(GpuId),
    /// PCIe egress of a GPU towards its NIC (subject to PCIe downgrade
    /// faults).
    PcieTx(GpuId),
    /// PCIe ingress of a GPU from its NIC.
    PcieRx(GpuId),
    /// NIC physical port → leaf switch (host uplink).
    HostUp(PortId),
    /// Leaf switch → NIC physical port (host downlink). This is the link on
    /// which the paper's dual-port receive imbalance materializes.
    HostDown(PortId),
    /// Leaf → spine fabric uplink; `index` distinguishes parallel uplinks.
    FabricUp {
        /// Source leaf.
        leaf: SwitchId,
        /// Destination spine.
        spine: SwitchId,
        /// Parallel-uplink index within the (leaf, spine) pair.
        index: u8,
    },
    /// Spine → leaf fabric downlink; `index` distinguishes parallel links.
    FabricDown {
        /// Source spine.
        spine: SwitchId,
        /// Destination leaf.
        leaf: SwitchId,
        /// Parallel-downlink index within the (spine, leaf) pair.
        index: u8,
    },
}

impl LinkKind {
    /// True for leaf↔spine fabric links (the ones C4P path-probes).
    pub fn is_fabric(&self) -> bool {
        matches!(
            self,
            LinkKind::FabricUp { .. } | LinkKind::FabricDown { .. }
        )
    }
}

/// A directed, capacity-bearing link.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    id: LinkId,
    kind: LinkKind,
    capacity: Bandwidth,
    up: bool,
    degradation: f64,
}

impl Link {
    /// Creates a healthy link of the given kind and capacity.
    pub fn new(id: LinkId, kind: LinkKind, capacity: Bandwidth) -> Self {
        Link {
            id,
            kind,
            capacity,
            up: true,
            degradation: 1.0,
        }
    }

    /// The link identifier.
    pub fn id(&self) -> LinkId {
        self.id
    }

    /// The link kind.
    pub fn kind(&self) -> LinkKind {
        self.kind
    }

    /// Effective capacity: zero when down, otherwise nominal × degradation.
    pub fn capacity(&self) -> Bandwidth {
        if self.up {
            self.capacity * self.degradation
        } else {
            Bandwidth::ZERO
        }
    }

    /// True when the link is administratively and physically up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Brings the link up or down (down-links are what Fig 12/13 exercise).
    pub fn set_up(&mut self, up: bool) {
        self.up = up;
    }

    /// Degradation factor in `(0, 1]`; e.g. a PCIe ×16→×4 downgrade sets
    /// `0.25`. Values outside the range are clamped.
    pub fn set_degradation(&mut self, factor: f64) {
        self.degradation = if factor.is_finite() {
            factor.clamp(0.0, 1.0)
        } else {
            1.0
        };
    }

    /// Current degradation factor.
    pub fn degradation(&self) -> f64 {
        self.degradation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> Link {
        Link::new(
            LinkId::from_index(0),
            LinkKind::HostUp(PortId::from_index(3)),
            Bandwidth::from_gbps(200.0),
        )
    }

    #[test]
    fn healthy_link_has_nominal_capacity() {
        let l = link();
        assert!(l.is_up());
        assert_eq!(l.capacity().as_gbps(), 200.0);
    }

    #[test]
    fn down_link_has_zero_capacity() {
        let mut l = link();
        l.set_up(false);
        assert_eq!(l.capacity(), Bandwidth::ZERO);
        l.set_up(true);
        assert_eq!(l.capacity().as_gbps(), 200.0);
    }

    #[test]
    fn degradation_scales_capacity() {
        let mut l = link();
        l.set_degradation(0.25);
        assert!((l.capacity().as_gbps() - 50.0).abs() < 1e-9);
        l.set_degradation(7.0);
        assert_eq!(l.capacity().as_gbps(), 200.0);
        l.set_degradation(f64::NAN);
        assert_eq!(l.degradation(), 1.0);
    }

    #[test]
    fn kind_predicates() {
        assert!(LinkKind::FabricUp {
            leaf: SwitchId::from_index(0),
            spine: SwitchId::from_index(1),
            index: 0
        }
        .is_fabric());
        assert!(!LinkKind::HostDown(PortId::from_index(0)).is_fabric());
    }
}
