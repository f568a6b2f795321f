//! Property-based tests over the public API: bandwidth-sharing invariants,
//! delay-matrix localization, plan construction, and unit arithmetic.

use c4::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Max-min allocation is always feasible and leaves every flow
    /// bottlenecked somewhere (the definition of max-min fairness).
    #[test]
    fn maxmin_is_feasible_and_bottlenecked(
        caps in prop::collection::vec(1.0_f64..500.0, 2..24),
        routes in prop::collection::vec(
            prop::collection::vec(0usize..24, 1..5),
            1..40,
        ),
    ) {
        let nl = caps.len();
        let routes: Vec<Vec<u32>> = routes
            .into_iter()
            .map(|r| r.into_iter().map(|l| (l % nl) as u32).collect())
            .collect();
        let rates = maxmin::solve(&caps, &routes, None);
        prop_assert_eq!(rates.len(), routes.len());
        let residual = maxmin::residual(&caps, &routes, &rates);
        for (l, r) in residual.iter().enumerate() {
            prop_assert!(*r >= -1e-6, "link {} oversubscribed by {}", l, r);
        }
        for (f, route) in routes.iter().enumerate() {
            prop_assert!(rates[f] > 0.0, "flow {} starved", f);
            let tight = route
                .iter()
                .any(|&l| residual[l as usize] <= 1e-6 * caps[l as usize].max(1.0));
            prop_assert!(tight, "flow {} has slack everywhere", f);
        }
    }

    /// Rate caps are respected and never reduce another flow's allocation.
    #[test]
    fn maxmin_caps_only_help_others(
        cap_value in 1.0_f64..50.0,
        n_flows in 2usize..12,
    ) {
        let caps_links = vec![100.0_f64];
        let routes: Vec<Vec<u32>> = (0..n_flows).map(|_| vec![0u32]).collect();
        let uncapped = maxmin::solve(&caps_links, &routes, None);
        let mut flow_caps = vec![f64::INFINITY; n_flows];
        flow_caps[0] = cap_value;
        let capped = maxmin::solve(&caps_links, &routes, Some(&flow_caps));
        prop_assert!(capped[0] <= cap_value + 1e-9);
        for f in 1..n_flows {
            prop_assert!(capped[f] + 1e-9 >= uncapped[f]);
        }
    }

    /// A single anomalous cell is always localized as that connection (or
    /// escalated to its row/column when the matrix is tiny).
    #[test]
    fn delay_matrix_localizes_any_single_cell(
        n in 4usize..16,
        src in 0usize..16,
        dst in 0usize..16,
        factor in 3.0_f64..20.0,
    ) {
        let (src, dst) = (src % n, dst % n);
        prop_assume!(src != dst);
        let mut m = DelayMatrix::new(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    m.set(i, j, 0.01);
                }
            }
        }
        m.set(src, dst, 0.01 * factor);
        let findings = m.analyze(2.0, 0.7);
        prop_assert_eq!(findings.len(), 1);
        match findings[0] {
            MatrixFinding::ConnectionSlow { src: s, dst: d, ratio } => {
                prop_assert_eq!((s as usize, d as usize), (src, dst));
                prop_assert!((ratio - factor).abs() < 0.2);
            }
            f => prop_assert!(false, "unexpected finding {:?}", f),
        }
    }

    /// Ring plans conserve structure for any contiguous placement: every
    /// boundary stream's two proxies share a rail, and intra edges chain
    /// each node's members exactly once.
    #[test]
    fn ring_plan_structure_holds(nodes in 1usize..8, comm_id in 1u64..1000) {
        let topo = Topology::build(&ClosConfig::testbed_128());
        let devices: Vec<GpuId> = (0..nodes)
            .flat_map(|n| topo.node(NodeId::from_index(n)).gpus.clone())
            .collect();
        let comm = Communicator::new(comm_id, devices, &topo).unwrap();
        let plan = RingPlan::build(&topo, &comm);
        prop_assert_eq!(plan.intra_edges.len(), nodes * 7);
        let expected_boundaries = if nodes > 1 { nodes * 8 } else { 0 };
        prop_assert_eq!(plan.boundaries.len(), expected_boundaries);
        for b in &plan.boundaries {
            let rail_src = topo.nic(topo.gpu(b.src_gpu).nic).local_index;
            let rail_dst = topo.nic(topo.gpu(b.dst_gpu).nic).local_index;
            prop_assert_eq!(rail_src, b.rail);
            prop_assert_eq!(rail_dst, b.rail);
            prop_assert_ne!(b.src_node, b.dst_node);
        }
    }

    /// Byte sizes split without loss for any size/parts combination.
    #[test]
    fn byte_split_conserves_total(bytes in 0u64..1_000_000_000, parts in 1usize..64) {
        let total = ByteSize::from_bytes(bytes);
        let split = total.split(parts);
        prop_assert_eq!(split.len(), parts.max(1));
        prop_assert_eq!(split.iter().copied().sum::<ByteSize>(), total);
        let min = split.iter().min().unwrap().as_bytes();
        let max = split.iter().max().unwrap().as_bytes();
        prop_assert!(max - min <= 1);
    }

    /// Fault injection respects the horizon and keeps events ordered for
    /// any job size.
    #[test]
    fn fault_schedules_are_ordered_and_bounded(
        gpus in 64usize..8192,
        seed in 0u64..1000,
    ) {
        let nodes = gpus / 8;
        let mut inj = FaultInjector::new(FaultRates::june_2023(), seed);
        let horizon = SimDuration::from_hours(720);
        let events = inj.schedule_crashes(gpus, nodes, 8, SimTime::ZERO, horizon);
        for w in events.windows(2) {
            prop_assert!(w[0].time <= w[1].time);
        }
        for e in &events {
            prop_assert!(e.time < SimTime::ZERO + horizon);
            prop_assert!(e.kind.is_crash());
            if let Some(n) = e.node {
                prop_assert!(n.index() < nodes);
            }
        }
    }

    /// The ECMP digest is stable and salt-sensitive for arbitrary keys.
    #[test]
    fn flow_key_digest_properties(
        src in 0u32..4096,
        dst in 0u32..4096,
        comm in 0u64..u64::MAX,
        salt_a in 0u64..u64::MAX,
        salt_b in 0u64..u64::MAX,
    ) {
        prop_assume!(salt_a != salt_b);
        let key = FlowKey {
            src_gpu: GpuId(src),
            dst_gpu: GpuId(dst),
            comm,
            channel: 0,
            qp: 0,
            incarnation: 0,
        };
        prop_assert_eq!(key.digest(salt_a), key.digest(salt_a));
        // Not a cryptographic guarantee, but collisions between two salts
        // on the same key should be vanishingly rare for splitmix-quality
        // mixing.
        prop_assert_ne!(key.digest(salt_a), key.digest(salt_b));
    }
}
