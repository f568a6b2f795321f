//! Transfer plans: which flows a collective generates.
//!
//! See the crate docs for the rail-symmetric ring model. A [`RingPlan`] has
//! two flow families:
//!
//! * **intra-node NVLink edges** — one per adjacent participating GPU pair
//!   per node; each carries the full pipelined stream `B`;
//! * **boundary streams** ([`BoundaryStream`]) — one per cyclic node
//!   boundary per participating rail; each carries `B`, subdivided into `Q`
//!   QP flows at connection time.

use c4_telemetry::CollKind;
use c4_topology::{GpuId, NodeId, Topology};

use crate::comm::Communicator;

/// The `nccl-tests` bus-bandwidth factor: `busbw = algbw × factor`, i.e. the
/// per-edge byte multiplier `B = S × factor` for a ring schedule.
pub fn bus_factor(kind: CollKind, nranks: usize) -> f64 {
    let n = nranks as f64;
    if nranks <= 1 {
        return 0.0;
    }
    match kind {
        CollKind::AllReduce => 2.0 * (n - 1.0) / n,
        CollKind::AllGather | CollKind::ReduceScatter => (n - 1.0) / n,
        CollKind::Broadcast => 1.0,
        CollKind::SendRecv => 1.0,
        CollKind::AllToAll => (n - 1.0) / n,
    }
}

/// One inter-node stream: the full pipelined stream `B` crossing one rail of
/// one cyclic node boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryStream {
    /// Boundary index (position in the communicator's cyclic node order).
    pub boundary: usize,
    /// Rail (NIC local index) used on both ends.
    pub rail: usize,
    /// Sending node.
    pub src_node: NodeId,
    /// Receiving node.
    pub dst_node: NodeId,
    /// Sending GPU (the rail's proxy on the source node).
    pub src_gpu: GpuId,
    /// Receiving GPU (the rail's proxy on the destination node).
    pub dst_gpu: GpuId,
}

/// The complete flow plan of a ring collective.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RingPlan {
    /// Intra-node NVLink edges `(src, dst)`, each carrying `B` bytes.
    pub intra_edges: Vec<(GpuId, GpuId)>,
    /// Inter-node rail streams, each carrying `B` bytes via `Q` QPs.
    pub boundaries: Vec<BoundaryStream>,
}

impl RingPlan {
    /// Builds the plan for a communicator on a topology.
    ///
    /// Intra-node edges chain the node's participating GPUs in rank order.
    /// Boundary streams exist for every cyclic pair of adjacent nodes and
    /// every rail that has a participating GPU on the source node; the rail's
    /// *proxy* is its lowest-ranked participating GPU. On the destination
    /// node the stream terminates at the proxy of the same rail when present,
    /// falling back to a round-robin participating GPU otherwise (rail
    /// mismatch across heterogeneous groups).
    pub fn build(topo: &Topology, comm: &Communicator) -> RingPlan {
        let mut plan = RingPlan::default();
        let nodes = comm.nodes();

        // Group participating GPUs by node in ONE pass over the rank order
        // (the former per-node `devices_on` scans were quadratic in nodes,
        // a real cost in thousand-GPU plan builds).
        let mut pos_of_node: Vec<u32> = vec![u32::MAX; topo.num_nodes()];
        for (i, &n) in nodes.iter().enumerate() {
            pos_of_node[n.index()] = i as u32;
        }
        let mut members: Vec<Vec<GpuId>> = vec![Vec::new(); nodes.len()];
        for &g in comm.devices() {
            let pos = pos_of_node[topo.gpu(g).node.index()];
            members[pos as usize].push(g);
        }

        // Intra-node chains.
        for node_members in &members {
            for pair in node_members.windows(2) {
                plan.intra_edges.push((pair[0], pair[1]));
            }
        }

        // Boundary streams over the cyclic node order. Proxy per rail on
        // each side: lowest-ranked member.
        if nodes.len() > 1 {
            let rail_of = |g: GpuId| topo.nic(topo.gpu(g).nic).local_index;
            let by_rail: Vec<Vec<(usize, GpuId)>> = members
                .iter()
                .map(|ms| {
                    let mut v: Vec<(usize, GpuId)> = Vec::new();
                    for &g in ms {
                        let r = rail_of(g);
                        if !v.iter().any(|(rr, _)| *rr == r) {
                            v.push((r, g));
                        }
                    }
                    v
                })
                .collect();
            for (b, &src_node) in nodes.iter().enumerate() {
                let d = (b + 1) % nodes.len();
                let dst_node = nodes[d];
                let dst_members = &members[d];
                for (i, &(rail, src_gpu)) in by_rail[b].iter().enumerate() {
                    let dst_gpu = by_rail[d]
                        .iter()
                        .find(|(r, _)| *r == rail)
                        .map(|&(_, g)| g)
                        .unwrap_or(dst_members[i % dst_members.len()]);
                    plan.boundaries.push(BoundaryStream {
                        boundary: b,
                        rail,
                        src_node,
                        dst_node,
                        src_gpu,
                        dst_gpu,
                    });
                }
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4_topology::ClosConfig;

    fn topo() -> Topology {
        Topology::build(&ClosConfig::testbed_128())
    }

    fn full_comm(t: &Topology, nodes: usize) -> Communicator {
        let devices: Vec<GpuId> = (0..nodes)
            .flat_map(|n| t.node(NodeId::from_index(n)).gpus.clone())
            .collect();
        Communicator::new(1, devices, t).unwrap()
    }

    #[test]
    fn bus_factors_match_nccl_tests() {
        assert!((bus_factor(CollKind::AllReduce, 16) - 2.0 * 15.0 / 16.0).abs() < 1e-12);
        assert!((bus_factor(CollKind::AllGather, 8) - 7.0 / 8.0).abs() < 1e-12);
        assert!((bus_factor(CollKind::ReduceScatter, 8) - 7.0 / 8.0).abs() < 1e-12);
        assert_eq!(bus_factor(CollKind::Broadcast, 8), 1.0);
        assert_eq!(bus_factor(CollKind::AllReduce, 1), 0.0);
    }

    #[test]
    fn two_full_nodes_make_full_rail_plan() {
        let t = topo();
        let comm = full_comm(&t, 2);
        let plan = RingPlan::build(&t, &comm);
        // 7 intra edges per node × 2 nodes.
        assert_eq!(plan.intra_edges.len(), 14);
        // 2 cyclic boundaries × 8 rails.
        assert_eq!(plan.boundaries.len(), 16);
        // Same-rail proxies on both ends.
        for b in &plan.boundaries {
            let rail_src = t.nic(t.gpu(b.src_gpu).nic).local_index;
            let rail_dst = t.nic(t.gpu(b.dst_gpu).nic).local_index;
            assert_eq!(rail_src, b.rail);
            assert_eq!(rail_dst, b.rail);
        }
    }

    #[test]
    fn single_node_comm_has_no_boundaries() {
        let t = topo();
        let comm = full_comm(&t, 1);
        let plan = RingPlan::build(&t, &comm);
        assert_eq!(plan.intra_edges.len(), 7);
        assert!(plan.boundaries.is_empty());
    }

    #[test]
    fn one_gpu_per_node_dp_group_uses_one_rail() {
        let t = topo();
        // DP group: GPU local index 3 on each of 16 nodes.
        let devices: Vec<GpuId> = (0..16)
            .map(|n| t.gpu_at(NodeId::from_index(n), 3))
            .collect();
        let comm = Communicator::new(5, devices, &t).unwrap();
        let plan = RingPlan::build(&t, &comm);
        assert!(plan.intra_edges.is_empty());
        assert_eq!(plan.boundaries.len(), 16); // 16 cyclic boundaries × 1 rail
        assert!(plan.boundaries.iter().all(|b| b.rail == 3));
    }

    #[test]
    fn k_nodes_have_k_cyclic_boundaries() {
        let t = topo();
        let comm = full_comm(&t, 4);
        let plan = RingPlan::build(&t, &comm);
        assert_eq!(plan.boundaries.len(), 4 * 8);
        // Last boundary wraps to node 0.
        let wrap = plan
            .boundaries
            .iter()
            .find(|b| b.boundary == 3)
            .expect("wrap boundary");
        assert_eq!(wrap.src_node.index(), 3);
        assert_eq!(wrap.dst_node.index(), 0);
    }

    #[test]
    fn heterogeneous_rails_fall_back_round_robin() {
        let t = topo();
        // Source node contributes rails {0,1}; destination only rail 5.
        let a0 = t.gpu_at(NodeId::from_index(0), 0);
        let a1 = t.gpu_at(NodeId::from_index(0), 1);
        let b5 = t.gpu_at(NodeId::from_index(1), 5);
        let comm = Communicator::new(6, vec![a0, a1, b5], &t).unwrap();
        let plan = RingPlan::build(&t, &comm);
        // Boundary 0→1 has rails 0 and 1; dst falls back to b5 for both.
        let to_n1: Vec<_> = plan
            .boundaries
            .iter()
            .filter(|b| b.dst_node == NodeId::from_index(1))
            .collect();
        assert_eq!(to_n1.len(), 2);
        assert!(to_n1.iter().all(|b| b.dst_gpu == b5));
    }
}
