//! Benchmark harness for the C4 simulator.
//!
//! Two closed-loop workloads drive the simulator through its public API
//! only (`HybridJob::run_iteration`, `run_concurrent_cached`, the
//! `PathSelector` trait, `C4pMaster`, `FleetController`,
//! `simulate_operation`), serially:
//!
//! * `hybrid-exact-2k` ([`hybrid::HybridCell`]);
//! * `fleet-soak-512` ([`fleet::FleetSoak`]).
//!
//! An untraced run reports host-time end-to-end metrics; a traced run
//! times each layer from outside ([`trace`]) and reports the
//! [`layers::PER_LAYER`] table. `perfbench/METRICS.md` maps every metric
//! to its layer and the end-to-end metric it should move.

pub mod fleet;
pub mod hybrid;
pub mod layers;
pub mod probe;
pub mod report;
pub mod trace;

use report::RunResult;

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["hybrid-exact-2k", "fleet-soak-512"];

/// Runs one workload; `None` for an unknown name.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Option<RunResult> {
    use fleet::FleetSoak;
    use hybrid::HybridCell;
    Some(match (workload, trace) {
        ("hybrid-exact-2k", false) => HybridCell::exact_2k().run_untraced(workload, seed, seconds),
        ("hybrid-exact-2k", true) => HybridCell::exact_2k().run_traced(workload, seed),
        ("fleet-soak-512", false) => FleetSoak::soak_512().run_untraced(workload, seed, seconds),
        ("fleet-soak-512", true) => FleetSoak::soak_512().run_traced(workload, seed),
        _ => return None,
    })
}
