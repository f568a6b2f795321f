//! Integration: the offline side of C4D — background root-cause analysis
//! and the per-worker CSV artifacts — fed by a real simulated incident.

use c4::prelude::*;

/// Runs a job into a dead-NIC hang and returns what C4D's master saw.
fn hang_incident() -> (Topology, CommRecord, Vec<TelemetrySnapshot>, SimTime) {
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
    job.register_telemetry(&topo, &mut telemetry);
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
    let comm = &job.comms()[6];
    let rec = CommRecord {
        comm: comm.id(),
        devices: comm.devices().to_vec(),
        created: SimTime::ZERO,
    };
    let at = job.now() + SimDuration::from_secs(30);
    let snaps: Vec<TelemetrySnapshot> = comm
        .devices()
        .iter()
        .map(|g| telemetry[g.index()].snapshot(at))
        .collect();
    (topo, rec, snaps, at)
}

#[test]
fn rca_blames_the_transport_for_a_dead_nic() {
    let (topo, rec, snaps, at) = hang_incident();
    let mut master = C4dMaster::new(DetectorConfig::default());
    let diags = master.scan(at, &topo, &rec, &snaps);
    let hang = diags.iter().find(|d| d.critical).expect("hang detected");

    let rca = analyze_root_cause(&rec, &snaps, &hang.syndrome);
    // A NIC that died mid-run presents as an RDMA-transport loss, not a
    // library timeout and not user code.
    assert_eq!(rca.probable_cause(), FaultKind::AckTimeout);
    assert!(rca.hypotheses.len() >= 2, "alternatives listed");
    let total: f64 = rca.hypotheses.iter().map(|h| h.confidence).sum();
    assert!(total <= 1.0 + 1e-9);
    // Consistent with Table I: the user-facing string for this class is the
    // opaque NCCL error.
    assert_eq!(rca.probable_cause().user_view(), UserView::NcclError);
}

#[test]
fn csv_artifacts_render_for_every_stream() {
    let (_topo, _rec, snaps, _at) = hang_incident();
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
