//! Integration: the full C4D pipeline — train, inject a fault, collect
//! telemetry, detect, localize, steer, restart — for every fault family the
//! paper's Table I names.

use c4::prelude::*;

/// Builds the standard testbed job with telemetry plumbing.
struct Harness {
    topo: Topology,
    job: TrainingJob,
    telemetry: Vec<WorkerTelemetry>,
    rng: DetRng,
}

impl Harness {
    fn new(seed: u64) -> Self {
        let topo = Topology::build(&ClosConfig::testbed_128().trunked());
        let spec = JobSpec::gpt22b_tp8_dp16();
        let nodes: Vec<NodeId> = (0..16).map(NodeId::from_index).collect();
        let layout = ParallelLayout::place(&topo, &spec, nodes).expect("placement");
        let mut job = TrainingJob::new(&topo, spec, layout, 500);
        job.comm_deadline = SimDuration::from_secs(45);
        let mut telemetry: Vec<WorkerTelemetry> = topo
            .gpus()
            .iter()
            .map(|g| WorkerTelemetry::new(g.id))
            .collect();
        job.register_telemetry(&mut telemetry);
        Harness {
            topo,
            job,
            telemetry,
            rng: DetRng::seed_from(seed),
        }
    }

    fn run_iterations(
        &mut self,
        n: usize,
        perturb: &[ComputePerturbation],
    ) -> Vec<IterationReport> {
        let mut sel = RailLocalSelector::new();
        (0..n)
            .map(|_| {
                self.job.run_iteration(
                    &self.topo,
                    &mut sel,
                    None,
                    &mut self.rng,
                    perturb,
                    Some(&mut self.telemetry),
                )
            })
            .collect()
    }

    fn scan_group(&self, master: &mut C4dMaster, group: usize, at: SimTime) -> Vec<Diagnosis> {
        let comm = &self.job.comms()[group];
        let rec = CommRecord {
            comm: comm.id(),
            devices: comm.devices().to_vec(),
            created: SimTime::ZERO,
        };
        let snapshots: Vec<TelemetrySnapshot> = comm
            .devices()
            .iter()
            .map(|g| self.telemetry[g.index()].snapshot(at))
            .collect();
        master.scan(at, &self.topo, &rec, &snapshots)
    }
}

#[test]
fn healthy_training_raises_no_diagnoses() {
    let mut h = Harness::new(1);
    h.run_iterations(3, &[]);
    let mut master = C4dMaster::new();
    for group in 0..8 {
        let diags = h.scan_group(&mut master, group, h.job.now());
        assert!(diags.is_empty(), "group {group}: {diags:?}");
    }
}

#[test]
fn slow_gpu_is_localized_as_noncomm_slow() {
    let mut h = Harness::new(2);
    let victim = h.topo.gpu_at(NodeId::from_index(7), 2);
    let perturb = [ComputePerturbation::slow_gpu(victim, 2.0)];
    h.run_iterations(3, &perturb);
    let mut master = C4dMaster::new();
    // Victim sits in DP group 2 (tp rank = local index).
    let diags = h.scan_group(&mut master, 2, h.job.now());
    let slow = diags
        .iter()
        .find(|d| matches!(d.syndrome, Syndrome::NonCommSlow { .. }))
        .expect("straggler detected");
    assert_eq!(slow.suspect, Some(NodeId::from_index(7)));
    assert!(!slow.critical);
}

#[test]
fn gc_pause_is_visible_but_smoothing_separates_transients() {
    let mut h = Harness::new(3);
    let victim = h.topo.gpu_at(NodeId::from_index(2), 5);
    // A steady 60%-of-compute GC stall: systemic, must be flagged.
    let pause = h.job.spec().compute_per_iteration() * 0.6;
    let perturb = [ComputePerturbation::gc_pause(victim, pause)];
    h.run_iterations(4, &perturb);

    // The smoother sees the systemic change; a single-step spike would not
    // survive the window (see c4-diagnosis unit tests for the converse).
    let comm = &h.job.comms()[5];
    let mut smoother = LoadSmoother::new(comm.nranks(), 4);
    for (rank, &gpu) in comm.devices().iter().enumerate() {
        for rec in &h.telemetry[gpu.index()].snapshot(h.job.now()).ranks {
            smoother.push(rank, rec.compute.as_secs_f64());
        }
    }
    let (rank, ratio) = smoother.detect_straggler(1.5).expect("systemic straggler");
    assert_eq!(comm.devices()[rank], victim);
    assert!(ratio > 1.5);
}

#[test]
fn dead_nic_hangs_and_steering_replaces_node() {
    // A 14-node job (DP=14) leaves nodes 14/15 as the backup pool — the
    // paper reserves backup servers alongside every active block (§III-A).
    let mut topo = Topology::build(&ClosConfig::testbed_128().trunked());
    let spec = JobSpec::gpt22b_scaling(14);
    let job_nodes: Vec<NodeId> = (0..14).map(NodeId::from_index).collect();
    let layout = ParallelLayout::place(&topo, &spec, job_nodes).expect("placement");
    let mut job = TrainingJob::new(&topo, spec.clone(), layout, 500);
    job.comm_deadline = SimDuration::from_secs(45);
    let mut telemetry: Vec<WorkerTelemetry> = topo
        .gpus()
        .iter()
        .map(|g| WorkerTelemetry::new(g.id))
        .collect();
    job.register_telemetry(&mut telemetry);
    let mut sel = RailLocalSelector::new();
    let mut rng = DetRng::seed_from(4);
    for _ in 0..2 {
        job.run_iteration(&topo, &mut sel, None, &mut rng, &[], Some(&mut telemetry));
    }

    // Kill both ports of node 9's rail 4.
    let victim_node = NodeId::from_index(9);
    let g = topo.gpu_at(victim_node, 4);
    for side in PortSide::BOTH {
        let p = topo.port_of_gpu(g, side);
        Degradation::nic_half_down(p).apply(&mut topo);
    }
    let report = job.run_iteration(&topo, &mut sel, None, &mut rng, &[], Some(&mut telemetry));
    assert!(report.hung, "dead rail must hang the gradient sync");

    let mut master = C4dMaster::new();
    let at = job.now() + SimDuration::from_secs(30);
    let comm = &job.comms()[4];
    let rec = CommRecord {
        comm: comm.id(),
        devices: comm.devices().to_vec(),
        created: SimTime::ZERO,
    };
    let snapshots: Vec<TelemetrySnapshot> = comm
        .devices()
        .iter()
        .map(|g| telemetry[g.index()].snapshot(at))
        .collect();
    let diags = master.scan(at, &topo, &rec, &snapshots);
    let hang = diags.iter().find(|d| d.critical).expect("critical hang");
    assert_eq!(
        hang.suspect,
        Some(victim_node),
        "localizes the dead NIC's node"
    );

    // Steering isolates and swaps in a backup; placement then succeeds on
    // the replacement set.
    let mut steering = JobSteering::new(vec![NodeId::from_index(14), NodeId::from_index(15)]);
    let plan = steering
        .isolate_and_replace(&mut topo, victim_node, at)
        .expect("backup pool has nodes");
    assert!(!topo.is_node_healthy(victim_node));
    assert!(plan.ready_at > at);
    let mut nodes: Vec<NodeId> = (0..14)
        .map(NodeId::from_index)
        .filter(|&n| n != victim_node)
        .collect();
    nodes.push(plan.replacement);
    nodes.sort();
    let layout = ParallelLayout::place(&topo, &spec, nodes);
    assert!(
        layout.is_ok(),
        "job re-places on the healthy set: {layout:?}"
    );
}

#[test]
fn pcie_downgrade_shows_up_in_conn_stats() {
    let mut h = Harness::new(5);
    // Degrade PCIe of node 3's rail-6 GPU to a quarter.
    let victim = h.topo.gpu_at(NodeId::from_index(3), 6);
    Degradation::pcie_downgrade(victim, 0.25).apply(&mut h.topo);
    h.run_iterations(2, &[]);
    // The victim's boundary sends run at ≤100 Gbps while peers do 200.
    let comm = &h.job.comms()[6];
    let mut victim_rate = f64::INFINITY;
    let mut peer_best: f64 = 0.0;
    for &g in comm.devices() {
        for conn in h.telemetry[g.index()].conns() {
            let gbps = conn.effective_gbps();
            if conn.key.src_gpu == victim {
                victim_rate = victim_rate.min(gbps);
            } else {
                peer_best = peer_best.max(gbps);
            }
        }
    }
    assert!(
        victim_rate < peer_best / 1.8,
        "victim {victim_rate:.0} vs peers {peer_best:.0}"
    );
}

#[test]
fn pp_stage_stall_propagates_to_dp_syndrome() {
    // Paper §V: C4D cannot see inside PP send/recv, but a stalled stage
    // surfaces through the DP collective its workers never reach.
    let topo = Topology::build(&ClosConfig::testbed_128().trunked());
    let spec = JobSpec::gpt175b_tp8_pp8_ga16();
    let nodes: Vec<NodeId> = (0..16).map(NodeId::from_index).collect();
    let layout = ParallelLayout::place(&topo, &spec, nodes).expect("placement");
    let mut job = TrainingJob::new(&topo, spec, layout, 900);
    let mut telemetry: Vec<WorkerTelemetry> = topo
        .gpus()
        .iter()
        .map(|g| WorkerTelemetry::new(g.id))
        .collect();
    // Stage 3 (nodes 6-7) stalls: model as an extreme compute perturbation
    // on one of its workers (the PP recv that never arrives).
    let stalled = topo.gpu_at(NodeId::from_index(6), 0);
    let perturb = [ComputePerturbation::gc_pause(
        stalled,
        SimDuration::from_secs(600),
    )];
    let mut sel = RailLocalSelector::new();
    let mut rng = DetRng::seed_from(6);
    job.run_iteration(
        &topo,
        &mut sel,
        None,
        &mut rng,
        &perturb,
        Some(&mut telemetry),
    );

    // The DP group containing the stalled worker shows a huge straggler gap.
    let comm = job
        .comms()
        .iter()
        .find(|c| c.rank_of(stalled).is_some())
        .expect("stalled worker has a DP group");
    let rec = CommRecord {
        comm: comm.id(),
        devices: comm.devices().to_vec(),
        created: SimTime::ZERO,
    };
    let snaps: Vec<TelemetrySnapshot> = comm
        .devices()
        .iter()
        .map(|g| telemetry[g.index()].snapshot(job.now()))
        .collect();
    let syndrome = detect_noncomm_slow(&rec, &snaps).expect("stall visible through DP");
    match syndrome {
        Syndrome::NonCommSlow { straggler, .. } => {
            assert_eq!(comm.devices()[straggler as usize], stalled);
        }
        s => panic!("unexpected syndrome {s:?}"),
    }
}
