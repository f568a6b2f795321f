//! Typed identifiers for every topology entity.
//!
//! All identifiers are dense indices assigned by the builder, so they can be
//! used directly as `Vec` indices by the simulators. Newtypes keep a `GpuId`
//! from ever being confused with a `NicId` at compile time (C-NEWTYPE).

use std::fmt;

use serde::{Deserialize, Serialize};

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
            Serialize, Deserialize,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// The dense index value.
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Creates an identifier from a dense index.
            pub fn from_index(i: usize) -> Self {
                $name(u32::try_from(i).expect("id index exceeds u32"))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

define_id!(
    /// A server (host) in the cluster.
    NodeId,
    "node"
);
define_id!(
    /// A GPU, indexed globally across the cluster.
    GpuId,
    "gpu"
);
define_id!(
    /// A NIC (one rail of a node), indexed globally.
    NicId,
    "nic"
);
define_id!(
    /// One physical port of a dual-port NIC, indexed globally.
    PortId,
    "port"
);
define_id!(
    /// A leaf or spine switch.
    SwitchId,
    "sw"
);
define_id!(
    /// A directed capacity-bearing link.
    LinkId,
    "link"
);

/// Which of the two bonded physical ports of a NIC.
///
/// The paper's C4P balances receive traffic between the *left* and *right*
/// physical ports of each BlueField-3 NIC (§III-B), so the side is a
/// first-class concept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PortSide {
    /// The first bonded physical port.
    Left,
    /// The second bonded physical port.
    Right,
}

impl PortSide {
    /// Both sides, left first.
    pub const BOTH: [PortSide; 2] = [PortSide::Left, PortSide::Right];

    /// 0 for left, 1 for right.
    pub const fn index(self) -> usize {
        match self {
            PortSide::Left => 0,
            PortSide::Right => 1,
        }
    }

    /// Inverse of [`PortSide::index`] (any even value maps to left).
    pub fn from_index(i: usize) -> PortSide {
        if i.is_multiple_of(2) {
            PortSide::Left
        } else {
            PortSide::Right
        }
    }
}

impl fmt::Display for PortSide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortSide::Left => write!(f, "L"),
            PortSide::Right => write!(f, "R"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_and_display() {
        let g = GpuId::from_index(42);
        assert_eq!(g.index(), 42);
        assert_eq!(usize::from(g), 42);
        assert_eq!(g.to_string(), "gpu42");
        assert_eq!(LinkId::from_index(7).to_string(), "link7");
    }

    #[test]
    fn port_side_round_trip() {
        assert_eq!(PortSide::from_index(0), PortSide::Left);
        assert_eq!(PortSide::from_index(1), PortSide::Right);
        assert_eq!(PortSide::from_index(2), PortSide::Left);
        assert_eq!(PortSide::Left.index(), 0);
        assert_eq!(PortSide::Right.index(), 1);
        assert_eq!(PortSide::Left.to_string(), "L");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let a = NodeId::from_index(1);
        let b = NodeId::from_index(2);
        assert!(a < b);
        let set: HashSet<NodeId> = [a, b, a].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}
