//! C4D end-to-end: a training job develops (1) a straggler GPU and then
//! (2) a dead NIC port; C4D detects both from ACCL telemetry, localizes the
//! node, and the steering service swaps in a backup so the job restarts.
//!
//! Run with: `cargo run --release --example fault_detection`
//!
//! Expected output: the two injection announcements, a "non-communication
//! slow" diagnosis naming node5, a critical "communication hang" diagnosis
//! that isolates node5 and swaps in node15, and finally the merged
//! timestamped event log (WARN/CRIT lines from the C4D master plus the
//! isolation/restart entries from job steering).

use c4::prelude::*;

fn main() {
    let mut topo = Topology::build(&ClosConfig::testbed_128().trunked());
    let spec = JobSpec::gpt22b_tp8_dp16();
    let nodes: Vec<NodeId> = (0..16).map(NodeId::from_index).collect();
    let layout = ParallelLayout::place(&topo, &spec, nodes).expect("placement");
    let mut job = TrainingJob::new(&topo, spec, layout, 100);
    job.comm_deadline = SimDuration::from_secs(60);

    let mut telemetry: Vec<WorkerTelemetry> = topo
        .gpus()
        .iter()
        .map(|g| WorkerTelemetry::new(g.id))
        .collect();
    job.register_telemetry(&mut telemetry);

    let mut selector = RailLocalSelector::new();
    let mut rng = DetRng::seed_from(11);
    let mut master = C4dMaster::new();

    // Phase 1: a GPU starts running at half speed (non-communication slow).
    let victim_gpu = topo.gpu_at(NodeId::from_index(5), 3);
    let perturb = [ComputePerturbation::slow_gpu(victim_gpu, 2.0)];
    println!("injecting: slow GPU at {victim_gpu} (2× compute time)");
    for _ in 0..3 {
        job.run_iteration(
            &topo,
            &mut selector,
            None,
            &mut rng,
            &perturb,
            Some(&mut telemetry),
        );
    }
    let snapshots: Vec<TelemetrySnapshot> = diag_snapshots(&job, &telemetry);
    let comm_rec = comm_record(&job, 3); // victim's DP group (tp rank 3)
    let diagnoses = master.scan(job.now(), &topo, &comm_rec, &snapshots);
    for d in &diagnoses {
        println!("C4D: {:?} → suspect {:?}", kind_of(&d.syndrome), d.suspect);
    }

    // Phase 2: a NIC port dies — the next gradient sync hangs.
    let port = topo.port_of_gpu(topo.gpu_at(NodeId::from_index(5), 3), PortSide::Left);
    Degradation::nic_half_down(port).apply(&mut topo);
    // Right port too: the whole rail is gone → true hang.
    let port_r = topo.port_of_gpu(topo.gpu_at(NodeId::from_index(5), 3), PortSide::Right);
    Degradation::nic_half_down(port_r).apply(&mut topo);
    println!("\ninjecting: NIC fully down on node5 rail3");
    let report = job.run_iteration(
        &topo,
        &mut selector,
        None,
        &mut rng,
        &[],
        Some(&mut telemetry),
    );
    println!("iteration hung: {}", report.hung);

    let snapshots = diag_snapshots(&job, &telemetry);
    let scan_at = job.now() + SimDuration::from_secs(30);
    let diagnoses = master.scan(scan_at, &topo, &comm_rec, &snapshots);
    let hang = diagnoses
        .iter()
        .find(|d| d.critical)
        .expect("C4D must flag the hang");
    let suspect = hang.suspect.expect("localized to a node");
    println!(
        "C4D: critical {:?} → isolating {suspect}",
        kind_of(&hang.syndrome)
    );

    // Steering: isolate the node, pull a backup, restart the job.
    let mut steering = JobSteering::new(vec![NodeId::from_index(15)]); // one spare in the pool
    let plan = steering
        .isolate_and_replace(&mut topo, suspect, scan_at)
        .expect("backup available");
    println!(
        "steering: {} isolated, {} swapped in, job restart ready at {}",
        plan.victim, plan.replacement, plan.ready_at
    );
    job.restart();
    println!("\nevent log:");
    for e in master.log().events() {
        println!("  {e}");
    }
    for e in steering.log().events() {
        println!("  {e}");
    }
}

/// Per-rank snapshots for the victim's DP group.
fn diag_snapshots(job: &TrainingJob, tel: &[WorkerTelemetry]) -> Vec<TelemetrySnapshot> {
    let comm = &job.comms()[3];
    comm.devices()
        .iter()
        .map(|g| tel[g.index()].snapshot(job.now()))
        .collect()
}

fn comm_record(job: &TrainingJob, group: usize) -> CommRecord {
    let comm = &job.comms()[group];
    CommRecord {
        comm: comm.id(),
        devices: comm.devices().to_vec(),
        created: SimTime::ZERO,
    }
}

fn kind_of(s: &Syndrome) -> &'static str {
    match s {
        Syndrome::CommHang { .. } => "communication hang",
        Syndrome::NonCommHang { .. } => "non-communication hang",
        Syndrome::CommSlow { .. } => "communication slow",
        Syndrome::NonCommSlow { .. } => "non-communication slow",
    }
}
