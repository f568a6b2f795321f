//! One-stop re-exports of the workspace's public API.

pub use c4_simcore::{
    scoped_map, Bandwidth, ByteSize, DetRng, JsonValue, ParallelPolicy, SimDuration, SimTime,
};

pub use c4_topology::{
    ClosConfig, FabricPath, Gpu, GpuId, Link, LinkId, LinkKind, Nic, NicId, NicPort, Node, NodeId,
    PortId, PortSide, Switch, SwitchId, SwitchTier, Topology, WiringMode,
};

pub use c4_netsim::maxmin;
pub use c4_netsim::{
    drain, drain_reference, mix64, CnpModel, DrainConfig, DrainReport, DrainSolverStats,
    EcmpSelector, FlowKey, FlowOutcome, FlowSpec, MaxMinState, PathChoice, PathSelector,
    RailLocalSelector,
};

pub use c4_telemetry::csv::{
    parse_csv_document, quote_field, split_fields, to_csv_document, FromCsv,
};
pub use c4_telemetry::pipeline::{
    events_from_snapshots, Aggregate, TimeAxis, WindowPane, WindowSpec, WindowedAggregate,
};
pub use c4_telemetry::{
    AlgoKind, C4Event, CollKind, CollRecord, CommRecord, ConnKey, ConnRecord, DataType, EventKind,
    EventLog, LoadSample, RankRecord, Severity, TelemetryEvent, TelemetrySnapshot, ToCsv,
    WorkerTelemetry,
};

pub use c4_collectives::{
    bus_factor, channel_pair, pair_channel, run_collective, run_concurrent, run_concurrent_cached,
    AllToAllPlan, BoundaryStream, CollectiveRequest, CollectiveResult, CommConfig, Communicator,
    EpSkew, PairEdge, PlanCache, QpWeightFn, RingPlan,
};

pub use c4_faults::{
    ComputePerturbation, Degradation, DegradeTarget, FaultEvent, FaultInjector, FaultKind,
    FaultRates, UserView,
};

pub use c4_diagnosis::{
    detect_hang, detect_noncomm_slow, raw_straggler, C4dMaster, CollHealthDetector, DelayMatrix,
    Diagnosis, JobSteering, LoadSmoother, MatrixFinding, ReplacementPlan, SteeringError,
    StepVerdict, StreamSmoother, StreamVerdict, StreamingC4dMaster, Syndrome,
};

pub use c4_traffic::{C4pConfig, C4pMaster, PathCatalog, PathLoadLedger};

pub use c4_fleet::{
    FaultCounts, FlapTracker, FleetConfig, FleetController, FleetReport, JobAccounting, JobOutcome,
    JobTemplate, Reconciliation, RecoveryPolicy,
};

pub use c4_trainsim::{
    simulate_operation, CrashRecord, DetectionModel, DiagnosisModel, HybridIterationReport,
    HybridJob, HybridSpec, IterationReport, JobSpec, OperationConfig, OperationReport,
    ParallelLayout, RecoveryConfig, TrainingJob,
};
