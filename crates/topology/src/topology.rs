//! The built topology: device inventory, switch tiers, directed links and
//! the structural queries used by the simulators.

use c4_simcore::Bandwidth;

use crate::clos::ClosConfig;
use crate::ids::{GpuId, LinkId, NicId, NodeId, PortId, PortSide, SwitchId};
use crate::link::{Link, LinkKind};
use crate::paths::FabricPath;

/// A server: a set of GPUs and NICs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// This node's identifier.
    pub id: NodeId,
    /// GPUs hosted on this node, in local-index order.
    pub gpus: Vec<GpuId>,
    /// NICs (rails) on this node, in local-index order.
    pub nics: Vec<NicId>,
    /// Leaf group this node's rails attach to.
    pub group: usize,
}

/// A GPU and its place in the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gpu {
    /// This GPU's identifier (global, dense).
    pub id: GpuId,
    /// Hosting node.
    pub node: NodeId,
    /// Index within the node (0..gpus_per_node).
    pub local_index: usize,
    /// The NIC (rail) this GPU uses for inter-node traffic.
    pub nic: NicId,
    /// NVLink egress link.
    pub nvlink_tx: LinkId,
    /// NVLink ingress link.
    pub nvlink_rx: LinkId,
    /// PCIe egress link (GPU → NIC).
    pub pcie_tx: LinkId,
    /// PCIe ingress link (NIC → GPU).
    pub pcie_rx: LinkId,
}

/// A dual-port NIC (one rail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Nic {
    /// This NIC's identifier.
    pub id: NicId,
    /// Hosting node.
    pub node: NodeId,
    /// Rail index within the node (0..nics_per_node).
    pub local_index: usize,
    /// The two bonded physical ports, `[left, right]`.
    pub ports: [PortId; 2],
}

/// One physical port of a NIC, attached to a leaf by a full-duplex cable
/// (modeled as an up link and a down link).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicPort {
    /// This port's identifier.
    pub id: PortId,
    /// Owning NIC.
    pub nic: NicId,
    /// Left or right bonded port.
    pub side: PortSide,
    /// The leaf switch this port attaches to.
    pub leaf: SwitchId,
    /// Port → leaf directed link.
    pub host_up: LinkId,
    /// Leaf → port directed link.
    pub host_down: LinkId,
}

/// Leaf or spine tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchTier {
    /// Leaf (ToR) switch; hosts NIC ports.
    Leaf,
    /// Spine switch; interconnects leaves.
    Spine,
}

/// A switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Switch {
    /// This switch's identifier (global across tiers).
    pub id: SwitchId,
    /// Leaf or spine.
    pub tier: SwitchTier,
    /// Index within its tier.
    pub tier_index: usize,
}

/// The complete built topology.
///
/// Construction happens once via [`Topology::build`]; afterwards the struct
/// is queried (immutably) by the simulators, with the narrow exception of
/// link state changes (failures, degradations) and node-health marking, both
/// of which are part of the phenomena under study.
#[derive(Debug, Clone)]
pub struct Topology {
    cfg: ClosConfig,
    nodes: Vec<Node>,
    gpus: Vec<Gpu>,
    nics: Vec<Nic>,
    ports: Vec<NicPort>,
    switches: Vec<Switch>,
    links: Vec<Link>,
    /// fabric_up[leaf_tier_idx][spine_tier_idx] → parallel uplink ids.
    fabric_up: Vec<Vec<Vec<LinkId>>>,
    /// fabric_down[spine_tier_idx][leaf_tier_idx] → parallel downlink ids.
    fabric_down: Vec<Vec<Vec<LinkId>>>,
    leaves: Vec<SwitchId>,
    spines: Vec<SwitchId>,
    node_healthy: Vec<bool>,
    /// Bumped on every mutation (link state, node health, spine toggles) so
    /// caches keyed on the topology know when their entries went stale.
    version: u64,
}

impl Topology {
    /// Builds the topology described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails; call it first for a `Result`.
    pub fn build(cfg: &ClosConfig) -> Topology {
        cfg.validate().expect("invalid ClosConfig");
        let mut links: Vec<Link> = Vec::new();
        let mut new_link = |kind: LinkKind, gbps: f64| -> LinkId {
            let id = LinkId::from_index(links.len());
            links.push(Link::new(id, kind, Bandwidth::from_gbps(gbps)));
            id
        };

        // Switches: leaves first, then spines.
        let mut switches = Vec::new();
        let mut leaves = Vec::new();
        let mut spines = Vec::new();
        for i in 0..cfg.num_leaves {
            let id = SwitchId::from_index(switches.len());
            switches.push(Switch {
                id,
                tier: SwitchTier::Leaf,
                tier_index: i,
            });
            leaves.push(id);
        }
        for i in 0..cfg.num_spines {
            let id = SwitchId::from_index(switches.len());
            switches.push(Switch {
                id,
                tier: SwitchTier::Spine,
                tier_index: i,
            });
            spines.push(id);
        }

        // Fabric links: full leaf×spine mesh with parallel uplinks.
        let mut fabric_up = vec![vec![Vec::new(); cfg.num_spines]; cfg.num_leaves];
        let mut fabric_down = vec![vec![Vec::new(); cfg.num_leaves]; cfg.num_spines];
        for (li, &leaf) in leaves.iter().enumerate() {
            for (si, &spine) in spines.iter().enumerate() {
                for k in 0..cfg.uplinks_per_leaf_spine {
                    let up = new_link(
                        LinkKind::FabricUp {
                            leaf,
                            spine,
                            index: k,
                        },
                        cfg.fabric_gbps,
                    );
                    let down = new_link(
                        LinkKind::FabricDown {
                            spine,
                            leaf,
                            index: k,
                        },
                        cfg.fabric_gbps,
                    );
                    fabric_up[li][si].push(up);
                    fabric_down[si][li].push(down);
                }
            }
        }

        // Nodes, GPUs, NICs, ports.
        let mut nodes = Vec::with_capacity(cfg.nodes);
        let mut gpus = Vec::with_capacity(cfg.total_gpus());
        let mut nics = Vec::new();
        let mut ports = Vec::new();
        let leaves_per_group = cfg.num_leaves / cfg.groups();
        let pairs_per_group = leaves_per_group / 2;

        for n in 0..cfg.nodes {
            let node_id = NodeId::from_index(n);
            let group = cfg.group_of_node(n);
            let mut node_nics = Vec::with_capacity(cfg.nics_per_node);
            for r in 0..cfg.nics_per_node {
                let nic_id = NicId::from_index(nics.len());
                // Rail r lands on pair (r mod pairs) within the node's group.
                let pair = r % pairs_per_group;
                let leaf_left = leaves[group * leaves_per_group + pair * 2];
                let leaf_right = leaves[group * leaves_per_group + pair * 2 + 1];
                let mut port_ids = [PortId::default(); 2];
                for (pi, (side, leaf)) in
                    [(PortSide::Left, leaf_left), (PortSide::Right, leaf_right)]
                        .into_iter()
                        .enumerate()
                {
                    let port_id = PortId::from_index(ports.len());
                    let host_up = new_link(LinkKind::HostUp(port_id), cfg.port_gbps);
                    let host_down = new_link(LinkKind::HostDown(port_id), cfg.port_gbps);
                    ports.push(NicPort {
                        id: port_id,
                        nic: nic_id,
                        side,
                        leaf,
                        host_up,
                        host_down,
                    });
                    port_ids[pi] = port_id;
                }
                nics.push(Nic {
                    id: nic_id,
                    node: node_id,
                    local_index: r,
                    ports: port_ids,
                });
                node_nics.push(nic_id);
            }

            let mut node_gpus = Vec::with_capacity(cfg.gpus_per_node);
            for g in 0..cfg.gpus_per_node {
                let gpu_id = GpuId::from_index(gpus.len());
                let nic = node_nics[g % cfg.nics_per_node];
                let nvlink_tx = new_link(LinkKind::NvlinkTx(gpu_id), cfg.nvlink_gbps);
                let nvlink_rx = new_link(LinkKind::NvlinkRx(gpu_id), cfg.nvlink_gbps);
                let pcie_tx = new_link(LinkKind::PcieTx(gpu_id), cfg.pcie_gbps);
                let pcie_rx = new_link(LinkKind::PcieRx(gpu_id), cfg.pcie_gbps);
                gpus.push(Gpu {
                    id: gpu_id,
                    node: node_id,
                    local_index: g,
                    nic,
                    nvlink_tx,
                    nvlink_rx,
                    pcie_tx,
                    pcie_rx,
                });
                node_gpus.push(gpu_id);
            }

            nodes.push(Node {
                id: node_id,
                gpus: node_gpus,
                nics: node_nics,
                group,
            });
        }

        let node_healthy = vec![true; cfg.nodes];
        Topology {
            cfg: cfg.clone(),
            nodes,
            gpus,
            nics,
            ports,
            switches,
            links,
            fabric_up,
            fabric_down,
            leaves,
            spines,
            node_healthy,
            version: 0,
        }
    }

    /// Mutation counter: changes whenever link state, node health or spine
    /// state is touched. Derived caches (e.g. the collective engine's
    /// flow-plan cache) compare versions to detect staleness. Versions are
    /// only meaningful within one `Topology` instance (clones included, as
    /// long as they share a mutation history).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The configuration this topology was built from.
    pub fn config(&self) -> &ClosConfig {
        &self.cfg
    }

    /// Total GPUs.
    pub fn num_gpus(&self) -> usize {
        self.gpus.len()
    }

    /// Total nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total leaf switches.
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Total spine switches.
    pub fn num_spines(&self) -> usize {
        self.spines.len()
    }

    /// Total directed links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Node record.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// GPU record.
    pub fn gpu(&self, id: GpuId) -> &Gpu {
        &self.gpus[id.index()]
    }

    /// NIC record.
    pub fn nic(&self, id: NicId) -> &Nic {
        &self.nics[id.index()]
    }

    /// Port record.
    pub fn port(&self, id: PortId) -> &NicPort {
        &self.ports[id.index()]
    }

    /// Switch record.
    pub fn switch(&self, id: SwitchId) -> &Switch {
        &self.switches[id.index()]
    }

    /// Link record.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Mutable link record (fault injection, C4P-driven administrative
    /// changes). Conservatively bumps [`Topology::version`] — callers take
    /// this to mutate.
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        self.version += 1;
        &mut self.links[id.index()]
    }

    /// All nodes in id order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All GPUs in id order.
    pub fn gpus(&self) -> &[Gpu] {
        &self.gpus
    }

    /// All ports in id order.
    pub fn ports(&self) -> &[NicPort] {
        &self.ports
    }

    /// Leaf switch ids in tier order.
    pub fn leaves(&self) -> &[SwitchId] {
        &self.leaves
    }

    /// Spine switch ids in tier order.
    pub fn spines(&self) -> &[SwitchId] {
        &self.spines
    }

    /// The GPU at `(node, local_index)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn gpu_at(&self, node: NodeId, local_index: usize) -> GpuId {
        self.nodes[node.index()].gpus[local_index]
    }

    /// The two ports of the NIC serving `gpu`, `[left, right]`.
    pub fn ports_of_gpu(&self, gpu: GpuId) -> [PortId; 2] {
        self.nics[self.gpus[gpu.index()].nic.index()].ports
    }

    /// The port of `gpu`'s NIC on the given side.
    pub fn port_of_gpu(&self, gpu: GpuId, side: PortSide) -> PortId {
        self.ports_of_gpu(gpu)[side.index()]
    }

    /// Parallel uplink ids between a leaf and a spine (tier indices).
    pub fn fabric_up_links(&self, leaf_idx: usize, spine_idx: usize) -> &[LinkId] {
        &self.fabric_up[leaf_idx][spine_idx]
    }

    /// Parallel downlink ids between a spine and a leaf (tier indices).
    pub fn fabric_down_links(&self, spine_idx: usize, leaf_idx: usize) -> &[LinkId] {
        &self.fabric_down[spine_idx][leaf_idx]
    }

    /// Every candidate spine path from `src_leaf` to `dst_leaf`: one entry
    /// per (spine, parallel-uplink k) pairing the k-th uplink with the k-th
    /// downlink. Includes paths over down links (callers filter on
    /// [`FabricPath::is_healthy`]).
    pub fn fabric_paths(&self, src_leaf: SwitchId, dst_leaf: SwitchId) -> Vec<FabricPath> {
        let li = self.switch(src_leaf).tier_index;
        let lj = self.switch(dst_leaf).tier_index;
        let mut out = Vec::new();
        for (si, &spine) in self.spines.iter().enumerate() {
            let ups = &self.fabric_up[li][si];
            let downs = &self.fabric_down[si][lj];
            for (k, (&up, &down)) in ups.iter().zip(downs.iter()).enumerate() {
                out.push(FabricPath {
                    spine,
                    up,
                    down,
                    slot: k as u8,
                });
            }
        }
        out
    }

    /// Route for an intra-node transfer: NVLink egress then ingress.
    ///
    /// # Panics
    ///
    /// Panics if the GPUs are on different nodes.
    pub fn intra_node_route(&self, src: GpuId, dst: GpuId) -> Vec<LinkId> {
        let (s, d) = (self.gpu(src), self.gpu(dst));
        assert_eq!(s.node, d.node, "intra-node route requires colocated GPUs");
        vec![s.nvlink_tx, d.nvlink_rx]
    }

    /// Route for an inter-node transfer through explicit ports and an
    /// optional fabric path (`None` when both ports share a leaf).
    ///
    /// # Panics
    ///
    /// Panics if the ports are on different leaves but no fabric path is
    /// given, or if a fabric path is given that does not connect the two
    /// leaves.
    pub fn inter_node_route(
        &self,
        src: GpuId,
        src_port: PortId,
        fabric: Option<&FabricPath>,
        dst_port: PortId,
        dst: GpuId,
    ) -> Vec<LinkId> {
        let sp = self.port(src_port);
        let dp = self.port(dst_port);
        let mut route = vec![self.gpu(src).pcie_tx, sp.host_up];
        match fabric {
            None => {
                assert_eq!(
                    sp.leaf, dp.leaf,
                    "cross-leaf transfer requires a fabric path"
                );
            }
            Some(p) => {
                let up_kind = self.link(p.up).kind();
                let down_kind = self.link(p.down).kind();
                match (up_kind, down_kind) {
                    (
                        LinkKind::FabricUp { leaf: ul, .. },
                        LinkKind::FabricDown { leaf: dl, .. },
                    ) => {
                        assert_eq!(ul, sp.leaf, "fabric path does not start at source leaf");
                        assert_eq!(dl, dp.leaf, "fabric path does not end at destination leaf");
                    }
                    _ => panic!("fabric path links are not fabric links"),
                }
                route.push(p.up);
                route.push(p.down);
            }
        }
        route.push(dp.host_down);
        route.push(self.gpu(dst).pcie_rx);
        route
    }

    /// Marks a node healthy/unhealthy (C4D isolation).
    pub fn set_node_healthy(&mut self, node: NodeId, healthy: bool) {
        self.version += 1;
        self.node_healthy[node.index()] = healthy;
    }

    /// True when the node has not been isolated.
    pub fn is_node_healthy(&self, node: NodeId) -> bool {
        self.node_healthy[node.index()]
    }

    /// Brings every fabric link touching `spine` up or down (used to halve
    /// the spine layer for the 2:1 oversubscription experiments).
    pub fn set_spine_up(&mut self, spine: SwitchId, up: bool) {
        self.version += 1;
        let si = self.switch(spine).tier_index;
        let affected: Vec<LinkId> = self
            .fabric_up
            .iter()
            .flat_map(|per_leaf| per_leaf[si].iter().copied())
            .chain(self.fabric_down[si].iter().flatten().copied())
            .collect();
        for id in affected {
            self.links[id.index()].set_up(up);
        }
    }

    /// All fabric link ids (up and down), for probing.
    pub fn fabric_links(&self) -> Vec<LinkId> {
        self.links
            .iter()
            .filter(|l| l.kind().is_fabric())
            .map(|l| l.id())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_counts() {
        let t = Topology::build(&ClosConfig::testbed_128());
        assert_eq!(t.num_gpus(), 128);
        assert_eq!(t.num_nodes(), 16);
        assert_eq!(t.num_leaves(), 8);
        assert_eq!(t.num_spines(), 8);
        assert_eq!(t.nics.len(), 16 * 8);
        assert_eq!(t.ports().len(), 16 * 8 * 2);
        // links: fabric 8*8*4*2 + host 256*2 + per-gpu 128*4
        assert_eq!(t.num_links(), 8 * 8 * 4 * 2 + 256 * 2 + 128 * 4);
    }

    #[test]
    fn gpu_rail_mapping_is_one_to_one_on_testbed() {
        let t = Topology::build(&ClosConfig::testbed_128());
        for node in t.nodes() {
            for (i, &g) in node.gpus.iter().enumerate() {
                assert_eq!(t.gpu(g).nic, node.nics[i]);
            }
        }
    }

    #[test]
    fn rail_optimized_ports_share_leaves_across_nodes() {
        let t = Topology::build(&ClosConfig::testbed_128());
        // Same rail, same side, different nodes → same leaf.
        let g0 = t.gpu_at(NodeId::from_index(0), 3);
        let g1 = t.gpu_at(NodeId::from_index(9), 3);
        let p0 = t.port_of_gpu(g0, PortSide::Left);
        let p1 = t.port_of_gpu(g1, PortSide::Left);
        assert_eq!(t.port(p0).leaf, t.port(p1).leaf);
        // Left and right of one NIC → different leaves.
        let pr = t.port_of_gpu(g0, PortSide::Right);
        assert_ne!(t.port(p0).leaf, t.port(pr).leaf);
    }

    #[test]
    fn grouped_wiring_separates_groups() {
        let t = Topology::build(&ClosConfig::testbed_128_grouped(2));
        let a = t.gpu_at(NodeId::from_index(0), 0);
        let b = t.gpu_at(NodeId::from_index(8), 0);
        let pa = t.port_of_gpu(a, PortSide::Left);
        let pb = t.port_of_gpu(b, PortSide::Left);
        assert_ne!(t.port(pa).leaf, t.port(pb).leaf);
        assert_eq!(t.node(NodeId::from_index(0)).group, 0);
        assert_eq!(t.node(NodeId::from_index(8)).group, 1);
    }

    #[test]
    fn fabric_paths_enumerate_spines_and_slots() {
        let t = Topology::build(&ClosConfig::testbed_128());
        let paths = t.fabric_paths(t.leaves()[0], t.leaves()[2]);
        assert_eq!(paths.len(), 8 * 4);
        for p in &paths {
            match t.link(p.up).kind() {
                LinkKind::FabricUp { leaf, spine, .. } => {
                    assert_eq!(leaf, t.leaves()[0]);
                    assert_eq!(spine, p.spine);
                }
                k => panic!("unexpected kind {k:?}"),
            }
            match t.link(p.down).kind() {
                LinkKind::FabricDown { leaf, spine, .. } => {
                    assert_eq!(leaf, t.leaves()[2]);
                    assert_eq!(spine, p.spine);
                }
                k => panic!("unexpected kind {k:?}"),
            }
        }
    }

    #[test]
    fn intra_node_route_uses_nvlink() {
        let t = Topology::build(&ClosConfig::tiny(2));
        let a = t.gpu_at(NodeId::from_index(0), 0);
        let b = t.gpu_at(NodeId::from_index(0), 1);
        let route = t.intra_node_route(a, b);
        assert_eq!(route.len(), 2);
        assert!(matches!(t.link(route[0]).kind(), LinkKind::NvlinkTx(g) if g == a));
        assert!(matches!(t.link(route[1]).kind(), LinkKind::NvlinkRx(g) if g == b));
    }

    #[test]
    #[should_panic(expected = "colocated")]
    fn intra_node_route_rejects_cross_node() {
        let t = Topology::build(&ClosConfig::tiny(2));
        let a = t.gpu_at(NodeId::from_index(0), 0);
        let b = t.gpu_at(NodeId::from_index(1), 0);
        let _ = t.intra_node_route(a, b);
    }

    #[test]
    fn inter_node_route_same_leaf_skips_fabric() {
        let t = Topology::build(&ClosConfig::testbed_128());
        // Same rail, same side → same leaf under rail-optimized wiring.
        let a = t.gpu_at(NodeId::from_index(0), 0);
        let b = t.gpu_at(NodeId::from_index(1), 0);
        let pa = t.port_of_gpu(a, PortSide::Left);
        let pb = t.port_of_gpu(b, PortSide::Left);
        let route = t.inter_node_route(a, pa, None, pb, b);
        assert_eq!(route.len(), 4); // pcie_tx, host_up, host_down, pcie_rx
    }

    #[test]
    fn inter_node_route_cross_leaf_includes_fabric() {
        let t = Topology::build(&ClosConfig::testbed_128_grouped(2));
        let a = t.gpu_at(NodeId::from_index(0), 0);
        let b = t.gpu_at(NodeId::from_index(8), 0);
        let pa = t.port_of_gpu(a, PortSide::Left);
        let pb = t.port_of_gpu(b, PortSide::Left);
        let paths = t.fabric_paths(t.port(pa).leaf, t.port(pb).leaf);
        let route = t.inter_node_route(a, pa, Some(&paths[0]), pb, b);
        assert_eq!(route.len(), 6);
    }

    #[test]
    #[should_panic(expected = "requires a fabric path")]
    fn cross_leaf_without_fabric_panics() {
        let t = Topology::build(&ClosConfig::testbed_128_grouped(2));
        let a = t.gpu_at(NodeId::from_index(0), 0);
        let b = t.gpu_at(NodeId::from_index(8), 0);
        let pa = t.port_of_gpu(a, PortSide::Left);
        let pb = t.port_of_gpu(b, PortSide::Left);
        let _ = t.inter_node_route(a, pa, None, pb, b);
    }

    #[test]
    fn spine_disable_downs_its_links() {
        let mut t = Topology::build(&ClosConfig::testbed_128());
        let spine = t.spines()[3];
        t.set_spine_up(spine, false);
        let li = 0;
        let si = 3;
        for &l in t.fabric_up_links(li, si) {
            assert!(!t.link(l).is_up());
        }
        for &l in t.fabric_down_links(si, li) {
            assert!(!t.link(l).is_up());
        }
        // Other spines unaffected.
        for &l in t.fabric_up_links(0, 0) {
            assert!(t.link(l).is_up());
        }
        t.set_spine_up(spine, true);
        for &l in t.fabric_up_links(li, si) {
            assert!(t.link(l).is_up());
        }
    }

    #[test]
    fn node_health_marking() {
        let mut t = Topology::build(&ClosConfig::tiny(4));
        let healthy = |t: &Topology| {
            (0..4)
                .filter(|&n| t.is_node_healthy(NodeId::from_index(n)))
                .count()
        };
        assert_eq!(healthy(&t), 4);
        t.set_node_healthy(NodeId::from_index(2), false);
        assert!(!t.is_node_healthy(NodeId::from_index(2)));
        assert_eq!(healthy(&t), 3);
    }
}
