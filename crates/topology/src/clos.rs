//! Parametric Clos / fat-tree configuration ([`ClosConfig`]) and the wiring
//! schemes that map NIC ports onto leaf switches.
//!
//! The defaults mirror Table II of the paper: nodes with 8 H800 GPUs and
//! 8 BlueField-3 NICs (2 × 200 Gbps ports bonded to a logical 400 Gbps port),
//! a fat-tree with 1:1 oversubscription, and an NVLink fabric that caps
//! collective bus bandwidth at 362 Gbps.

use serde::{Deserialize, Serialize};

/// How NIC ports are assigned to leaf switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WiringMode {
    /// Rail-optimized: rail `r` of *every* node lands on the same leaf pair
    /// (`r mod leaf_pairs`), so same-rail traffic between any two nodes can
    /// stay under one leaf. This is the dedicated-testbed wiring.
    RailOptimized,
    /// Leaves are partitioned into `groups` equal groups and nodes are
    /// assigned to groups in contiguous blocks; traffic between nodes of
    /// different groups must traverse the spine layer. Used to reproduce the
    /// multi-job experiments (Fig 10/12) where jobs span "distinct groups of
    /// leaf switches".
    NodeGrouped {
        /// Number of leaf groups; must divide the leaf count and leave at
        /// least two leaves per group.
        groups: usize,
    },
}

/// Full parametric description of a cluster.
///
/// # Example
///
/// ```
/// use c4_topology::ClosConfig;
/// let cfg = ClosConfig::testbed_128();
/// assert_eq!(cfg.nodes * cfg.gpus_per_node, 128);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClosConfig {
    /// Number of servers.
    pub nodes: usize,
    /// GPUs per server (testbed: 8).
    pub gpus_per_node: usize,
    /// NICs (rails) per server (testbed: 8); GPUs map to rails round-robin.
    pub nics_per_node: usize,
    /// Leaf switches; must be even (ports attach in left/right pairs).
    pub num_leaves: usize,
    /// Spine switches.
    pub num_spines: usize,
    /// Parallel uplinks between each leaf and each spine.
    pub uplinks_per_leaf_spine: u8,
    /// Capacity of one NIC physical port, Gbps (testbed: 200).
    pub port_gbps: f64,
    /// Capacity of one leaf↔spine fabric link, Gbps (testbed: 200).
    pub fabric_gbps: f64,
    /// Effective per-GPU NVLink bandwidth, Gbps. The paper measures the
    /// NVLink-fabric cap on allreduce bus bandwidth as 362 Gbps (§IV-B2).
    pub nvlink_gbps: f64,
    /// Effective per-GPU PCIe bandwidth towards the NIC, Gbps. Healthy PCIe
    /// is not a bottleneck; PCIe-downgrade faults scale this down.
    pub pcie_gbps: f64,
    /// Port→leaf wiring scheme.
    pub wiring: WiringMode,
}

impl ClosConfig {
    /// The 128-GPU dedicated testbed of §IV-A: 16 nodes × 8 GPUs, 8 dual-port
    /// NICs per node, 8 leaves, 8 spines, 1:1 oversubscription
    /// (32 × 200 Gbps host downlinks per leaf = 32 × 200 Gbps uplinks).
    pub fn testbed_128() -> Self {
        ClosConfig {
            nodes: 16,
            gpus_per_node: 8,
            nics_per_node: 8,
            num_leaves: 8,
            num_spines: 8,
            uplinks_per_leaf_spine: 4,
            port_gbps: 200.0,
            fabric_gbps: 200.0,
            nvlink_gbps: 362.0,
            pcie_gbps: 400.0,
            wiring: WiringMode::RailOptimized,
        }
    }

    /// The testbed re-wired into `groups` leaf groups so that jobs spanning
    /// groups must cross the spine layer (the Fig 10/12/13 setup).
    pub fn testbed_128_grouped(groups: usize) -> Self {
        ClosConfig {
            wiring: WiringMode::NodeGrouped { groups },
            ..Self::testbed_128()
        }
    }

    /// A small cluster for unit tests: `nodes` servers with 2 GPUs + 2 NICs
    /// each, 2 leaves, 2 spines.
    pub fn tiny(nodes: usize) -> Self {
        ClosConfig {
            nodes,
            gpus_per_node: 2,
            nics_per_node: 2,
            num_leaves: 2,
            num_spines: 2,
            uplinks_per_leaf_spine: 2,
            port_gbps: 200.0,
            fabric_gbps: 200.0,
            nvlink_gbps: 362.0,
            pcie_gbps: 400.0,
            wiring: WiringMode::RailOptimized,
        }
    }

    /// A shared production pod for the Fig 3 scaling experiment: 16 leaves
    /// but only half the spine capacity available to the job (concurrent
    /// tenants consume the rest on average), i.e. effective 2:1
    /// oversubscription — the regime in which traffic collisions grow with
    /// scale (§II-D).
    pub fn pod_shared(nodes: usize) -> Self {
        ClosConfig {
            num_spines: 4,
            uplinks_per_leaf_spine: 4,
            fabric_gbps: 400.0,
            ..Self::pod(nodes)
        }
    }

    /// A large production-style pod for scale experiments (Fig 3):
    /// `nodes` × 8 GPUs with 16 leaves and 8 spines.
    pub fn pod(nodes: usize) -> Self {
        ClosConfig {
            nodes,
            gpus_per_node: 8,
            nics_per_node: 8,
            num_leaves: 16,
            num_spines: 8,
            uplinks_per_leaf_spine: 8,
            port_gbps: 200.0,
            fabric_gbps: 200.0,
            nvlink_gbps: 362.0,
            pcie_gbps: 400.0,
            wiring: WiringMode::RailOptimized,
        }
    }

    /// A multi-pod production fabric for the multi-thousand-GPU scale sweep
    /// (the Fig 3 extension): `nodes` servers at testbed leaf density (each
    /// leaf terminates 32 × 200 Gbps host ports, so the leaf tier grows
    /// with the cluster instead of being fixed at 16), partitioned into
    /// `groups` leaf groups so jobs spanning groups must cross the spine
    /// layer, with trunked 400 Gbps spine uplinks at 2:1 oversubscription —
    /// the shared-pod regime in which traffic collisions grow with scale
    /// (§II-D).
    ///
    /// Valid whenever `nodes/2` leaves split into `groups` even-sized
    /// groups of ≥ 2 (e.g. 512 nodes / 8 groups → 256 leaves, 32 per
    /// group); [`ClosConfig::validate`] rejects the rest.
    pub fn pod_grouped(nodes: usize, groups: usize) -> Self {
        ClosConfig {
            nodes,
            gpus_per_node: 8,
            nics_per_node: 8,
            num_leaves: (nodes / 2).max(2),
            num_spines: 8,
            uplinks_per_leaf_spine: 1,
            port_gbps: 200.0,
            fabric_gbps: 400.0,
            nvlink_gbps: 362.0,
            pcie_gbps: 400.0,
            wiring: WiringMode::NodeGrouped { groups },
        }
    }

    /// The [`pod_grouped`](ClosConfig::pod_grouped) fabric with leaf density
    /// that tracks the **8 NIC rails**: past 256 nodes the plain variant's
    /// leaf tier outgrows the rail count (each group gets more leaf pairs
    /// than rails, so half its leaves terminate no ports while the wired
    /// half carries double density — the per-flow fair share halves at
    /// 4096 GPUs). This variant caps the leaf pairs per group at
    /// `nics_per_node` and widens the leaf↔spine trunks instead, keeping
    /// every leaf wired and the oversubscription at 2:1 at any scale.
    /// Identical to `pod_grouped` for `nodes ≤ 256` (with 8 groups).
    ///
    /// # Panics
    ///
    /// Panics when the wired-port capacity per leaf does not divide into
    /// whole 2:1 trunks (use power-of-two node counts).
    pub fn pod_grouped_railed(nodes: usize, groups: usize) -> Self {
        let mut cfg = Self::pod_grouped(nodes, groups);
        let max_leaves = groups * cfg.nics_per_node * 2;
        if cfg.num_leaves > max_leaves {
            cfg.num_leaves = max_leaves;
            // Hold the 2:1 ratio: each leaf now terminates
            // nodes×nics×2/num_leaves ports; uplink capacity must be half
            // the downlink.
            let down_gbps = cfg.downlink_gbps_per_leaf();
            let per_spine = down_gbps / 2.0 / cfg.num_spines as f64 / cfg.fabric_gbps;
            assert!(
                per_spine.fract() == 0.0 && per_spine >= 1.0 && per_spine <= u8::MAX as f64,
                "rail-dense pod needs whole 2:1 trunks, got {per_spine} per spine"
            );
            cfg.uplinks_per_leaf_spine = per_spine as u8;
        }
        cfg
    }

    /// Collapses parallel leaf↔spine links into one trunk of the same
    /// aggregate capacity (LAG/trunked uplinks, as on the testbed whose
    /// leaves expose 8 fat uplinks — "1 link error among the 8 uplinks",
    /// §IV-B2). Trunks absorb shallow ECMP collisions: two flows on a
    /// 4×-trunk still get full rate, which is why the paper's baseline
    /// degrades but does not collapse.
    pub fn trunked(self) -> Self {
        ClosConfig {
            fabric_gbps: self.fabric_gbps * self.uplinks_per_leaf_spine as f64,
            uplinks_per_leaf_spine: 1,
            ..self
        }
    }

    /// Total GPU count.
    pub fn total_gpus(&self) -> usize {
        self.nodes * self.gpus_per_node
    }

    /// Number of leaf groups (1 for rail-optimized wiring).
    pub fn groups(&self) -> usize {
        match self.wiring {
            WiringMode::RailOptimized => 1,
            WiringMode::NodeGrouped { groups } => groups,
        }
    }

    /// Leaf group of a node (contiguous blocks; 0 for rail-optimized wiring).
    pub fn group_of_node(&self, node: usize) -> usize {
        let groups = self.groups();
        if groups <= 1 {
            return 0;
        }
        let per_group = self.nodes.div_ceil(groups);
        (node / per_group).min(groups - 1)
    }

    /// Aggregate host-downlink capacity per leaf, Gbps (used to report the
    /// achieved oversubscription ratio).
    pub fn downlink_gbps_per_leaf(&self) -> f64 {
        let total_ports = self.nodes as f64 * self.nics_per_node as f64 * 2.0;
        total_ports * self.port_gbps / self.num_leaves as f64
    }

    /// Aggregate fabric-uplink capacity per leaf, Gbps.
    pub fn uplink_gbps_per_leaf(&self) -> f64 {
        self.num_spines as f64 * self.uplinks_per_leaf_spine as f64 * self.fabric_gbps
    }

    /// Downlink/uplink capacity ratio per leaf (1.0 = the paper's 1:1).
    pub fn oversubscription(&self) -> f64 {
        self.downlink_gbps_per_leaf() / self.uplink_gbps_per_leaf()
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant:
    /// zero-sized tiers, odd leaf counts, groups that do not divide the
    /// leaves, or fewer than two leaves per group.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("cluster must have at least one node".into());
        }
        if self.gpus_per_node == 0 || self.nics_per_node == 0 {
            return Err("nodes need at least one GPU and one NIC".into());
        }
        if !self.gpus_per_node.is_multiple_of(self.nics_per_node) {
            return Err(format!(
                "gpus_per_node ({}) must be a multiple of nics_per_node ({})",
                self.gpus_per_node, self.nics_per_node
            ));
        }
        if self.num_leaves == 0 || !self.num_leaves.is_multiple_of(2) {
            return Err("leaf count must be positive and even".into());
        }
        if self.num_spines == 0 || self.uplinks_per_leaf_spine == 0 {
            return Err("fabric needs at least one spine and one uplink".into());
        }
        let groups = self.groups();
        if groups == 0 || !self.num_leaves.is_multiple_of(groups) {
            return Err(format!(
                "groups ({groups}) must divide the leaf count ({})",
                self.num_leaves
            ));
        }
        if self.num_leaves / groups < 2 {
            return Err("each leaf group needs at least two leaves".into());
        }
        if !(self.num_leaves / groups).is_multiple_of(2) {
            return Err("leaves per group must be even".into());
        }
        for (name, v) in [
            ("port_gbps", self.port_gbps),
            ("fabric_gbps", self.fabric_gbps),
            ("nvlink_gbps", self.nvlink_gbps),
            ("pcie_gbps", self.pcie_gbps),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} must be positive and finite"));
            }
        }
        Ok(())
    }
}

impl Default for ClosConfig {
    fn default() -> Self {
        ClosConfig::testbed_128()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_is_valid_and_one_to_one() {
        let cfg = ClosConfig::testbed_128();
        cfg.validate().unwrap();
        assert_eq!(cfg.total_gpus(), 128);
        // 16 nodes × 8 NICs × 2 ports / 8 leaves = 32 ports/leaf × 200 G
        assert!((cfg.downlink_gbps_per_leaf() - 6400.0).abs() < 1e-9);
        assert!((cfg.uplink_gbps_per_leaf() - 6400.0).abs() < 1e-9);
        assert!((cfg.oversubscription() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn grouped_wiring_partitions_nodes() {
        let cfg = ClosConfig::testbed_128_grouped(2);
        cfg.validate().unwrap();
        assert_eq!(cfg.groups(), 2);
        assert_eq!(cfg.group_of_node(0), 0);
        assert_eq!(cfg.group_of_node(7), 0);
        assert_eq!(cfg.group_of_node(8), 1);
        assert_eq!(cfg.group_of_node(15), 1);
        assert_eq!(cfg.num_leaves / cfg.groups() / 2, 2, "leaf pairs per group");
    }

    #[test]
    fn pod_grouped_scales_leaves_with_nodes_at_two_to_one() {
        for (nodes, groups) in [(16usize, 2usize), (64, 4), (512, 8)] {
            let cfg = ClosConfig::pod_grouped(nodes, groups);
            cfg.validate().unwrap();
            assert_eq!(cfg.total_gpus(), nodes * 8);
            assert_eq!(cfg.num_leaves, nodes / 2);
            assert!(
                (cfg.oversubscription() - 2.0).abs() < 1e-9,
                "{nodes} nodes: oversub {}",
                cfg.oversubscription()
            );
        }
        // 512 nodes / 8 groups: jobs wider than 64 nodes must span groups.
        let cfg = ClosConfig::pod_grouped(512, 8);
        assert_eq!(cfg.group_of_node(63), 0);
        assert_eq!(cfg.group_of_node(64), 1);
        // Odd shapes fail validation instead of mis-wiring.
        assert!(ClosConfig::pod_grouped(6, 3).validate().is_err());
    }

    #[test]
    fn pod_grouped_railed_keeps_every_leaf_wired_at_two_to_one() {
        // ≤ 256 nodes: identical to the plain variant.
        for nodes in [64usize, 128, 256] {
            assert_eq!(
                ClosConfig::pod_grouped_railed(nodes, 8),
                ClosConfig::pod_grouped(nodes, 8),
                "{nodes} nodes"
            );
        }
        // Past 256 nodes the leaf tier pins to the rail count (16 leaves
        // per group) and the trunks widen to hold 2:1.
        let cfg = ClosConfig::pod_grouped_railed(512, 8);
        cfg.validate().unwrap();
        assert_eq!(cfg.num_leaves, 8 * 16);
        assert_eq!(cfg.uplinks_per_leaf_spine, 2);
        assert!(
            (cfg.oversubscription() - 2.0).abs() < 1e-9,
            "oversub {}",
            cfg.oversubscription()
        );
        // Leaf pairs per group match the 8 rails exactly: every leaf
        // terminates ports (no dark leaves, no double-density leaves).
        assert_eq!(cfg.num_leaves / cfg.groups() / 2, cfg.nics_per_node);
        let cfg = ClosConfig::pod_grouped_railed(1024, 8);
        cfg.validate().unwrap();
        assert_eq!(cfg.uplinks_per_leaf_spine, 4);
        assert!((cfg.oversubscription() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn pod_grouped_railed_scales_to_16k_and_32k_gpus() {
        // The 16384- and 32768-GPU cells of the scale sweep: the leaf tier
        // stays pinned at 8 rails × 8 groups while the trunks keep doubling,
        // so the 2:1 oversubscription and full leaf wiring hold through the
        // next two octaves past the 4096-GPU testbed extension.
        for (nodes, trunks) in [(2048usize, 8u8), (4096, 16)] {
            let cfg = ClosConfig::pod_grouped_railed(nodes, 8);
            cfg.validate().unwrap();
            assert_eq!(cfg.total_gpus(), nodes * 8, "{nodes} nodes");
            assert_eq!(cfg.num_leaves, 8 * 16, "{nodes} nodes");
            assert_eq!(cfg.uplinks_per_leaf_spine, trunks, "{nodes} nodes");
            assert!((cfg.oversubscription() - 2.0).abs() < 1e-9);
            assert_eq!(cfg.num_leaves / cfg.groups() / 2, cfg.nics_per_node);
        }
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = ClosConfig::tiny(2);
        cfg.num_leaves = 3;
        assert!(cfg.validate().is_err());

        let mut cfg = ClosConfig::tiny(2);
        cfg.gpus_per_node = 3;
        cfg.nics_per_node = 2;
        assert!(cfg.validate().is_err());

        let mut cfg = ClosConfig::tiny(2);
        cfg.wiring = WiringMode::NodeGrouped { groups: 3 };
        assert!(cfg.validate().is_err());

        let mut cfg = ClosConfig::tiny(0);
        cfg.nodes = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = ClosConfig::tiny(2);
        cfg.port_gbps = -1.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn group_of_node_handles_uneven_blocks() {
        let mut cfg = ClosConfig::testbed_128_grouped(4);
        cfg.nodes = 10; // blocks of ceil(10/4)=3 → groups 0,0,0,1,1,1,2,2,2,3
        assert_eq!(cfg.group_of_node(0), 0);
        assert_eq!(cfg.group_of_node(3), 1);
        assert_eq!(cfg.group_of_node(9), 3);
        // never exceeds groups-1
        assert_eq!(cfg.group_of_node(100), 3);
    }
}
