//! Integration: the per-worker CSV artifacts of C4D's offline side, rendered
//! from a real simulated incident.

use c4::prelude::*;

/// Runs a job into a dead-NIC hang and returns the hung communicator's
/// snapshots, as C4D's master would collect them.
fn hang_incident() -> Vec<TelemetrySnapshot> {
    let mut topo = Topology::build(&ClosConfig::testbed_128().trunked());
    let spec = JobSpec::gpt22b_tp8_dp16();
    let nodes: Vec<NodeId> = (0..16).map(NodeId::from_index).collect();
    let layout = ParallelLayout::place(&topo, &spec, nodes).expect("placement");
    let mut job = TrainingJob::new(&topo, spec, layout, 300);
    job.comm_deadline = SimDuration::from_secs(45);
    let mut telemetry: Vec<WorkerTelemetry> = topo
        .gpus()
        .iter()
        .map(|g| WorkerTelemetry::new(g.id))
        .collect();
    job.register_telemetry(&mut telemetry);
    let mut sel = RailLocalSelector::new();
    let mut rng = DetRng::seed_from(21);
    for _ in 0..2 {
        job.run_iteration(&topo, &mut sel, None, &mut rng, &[], Some(&mut telemetry));
    }
    // Kill node 11's rail-6 NIC entirely.
    let g = topo.gpu_at(NodeId::from_index(11), 6);
    for side in PortSide::BOTH {
        Degradation::nic_half_down(topo.port_of_gpu(g, side)).apply(&mut topo);
    }
    let report = job.run_iteration(&topo, &mut sel, None, &mut rng, &[], Some(&mut telemetry));
    assert!(report.hung);
    let at = job.now() + SimDuration::from_secs(30);
    job.comms()[6]
        .devices()
        .iter()
        .map(|g| telemetry[g.index()].snapshot(at))
        .collect()
}

#[test]
fn csv_artifacts_render_for_every_stream() {
    let snaps = hang_incident();
    // The per-worker artifact set of Fig 5 renders without panicking and
    // with consistent column counts.
    let snap = &snaps[0];
    let comm_csv = to_csv_document(&snap.comms);
    let coll_csv = to_csv_document(&snap.colls);
    let conn_csv = to_csv_document(&snap.conns);
    let rank_csv = to_csv_document(&snap.ranks);
    for (doc, name) in [
        (&comm_csv, "comm"),
        (&coll_csv, "coll"),
        (&conn_csv, "conn"),
        (&rank_csv, "rank"),
    ] {
        let mut lines = doc.lines();
        let header_cols = lines.next().expect("header").split(',').count();
        for l in lines {
            assert_eq!(
                l.split(',').count(),
                header_cols,
                "{name}-stats.csv row width"
            );
        }
    }
}
