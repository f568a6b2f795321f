//! The per-layer metric table. Every traced run emits every entry, in
//! this order; a layer its workload never enters reads 0 (the C4P layer
//! on the ECMP-only fleet, the fleet layers on the hybrid cells).

use std::collections::BTreeMap;

use crate::report::RunResult;

/// `(name, unit, deterministic)` of every per-layer metric. Deterministic
/// entries are seed-determined work counts: they repeat exactly across
/// same-seed runs and `diff.py` flags any change.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("topology.build_ms", "ms", false),
    ("c4p.master_new_ms", "ms", false),
    ("c4p.select_ms", "ms", false),
    ("c4p.select_keys", "count", true),
    ("netsim.ecmp_select_ms", "ms", false),
    ("netsim.ecmp_select_keys", "count", true),
    ("collectives.plan_build_ms", "ms", false),
    ("collectives.plan_hits", "count", true),
    ("collectives.plan_misses", "count", true),
    ("collectives.tp_phase_ms", "ms", false),
    ("collectives.pp_phase_ms", "ms", false),
    ("collectives.ep_phase_ms", "ms", false),
    ("collectives.dp_phase_ms", "ms", false),
    ("netsim.tp_events", "count", true),
    ("netsim.pp_events", "count", true),
    ("netsim.ep_events", "count", true),
    ("netsim.dp_events", "count", true),
    ("netsim.flows", "count", true),
    ("netsim.full_solves", "count", true),
    ("netsim.component_solves", "count", true),
    ("netsim.sparse_solves", "count", true),
    ("netsim.spine_rounds", "count", true),
    ("netsim.spine_link_updates", "count", true),
    ("netsim.fallback_solves", "count", true),
    ("netsim.batched_instants", "count", true),
    ("netsim.batched_completions", "count", true),
    ("netsim.arena_hwm_bytes", "bytes", true),
    ("netsim.congested_flows", "count", true),
    ("netsim.cnp_total", "1/s", true),
    ("netsim.us_per_event", "us", false),
    ("netsim.drain_speedup_2t", "x", false),
    ("c4p.select_speedup_2t", "x", false),
    ("trainsim.operation_model_ms", "ms", false),
    ("fleet.soak_ms", "ms", false),
    ("fleet.rounds", "count", true),
    ("fleet.live_iterations", "count", true),
    ("fleet.ms_per_round", "ms", false),
    ("fleet.ms_per_live_iteration", "ms", false),
    ("fleet.rebased_drops", "count", true),
    ("fleet.faults_applied", "count", true),
    ("fleet.recoveries", "count", true),
    ("c4d.detections", "count", true),
    ("c4d.isolations", "count", true),
    ("c4d.replacements", "count", true),
    ("trace.overhead_frac", "1", false),
];

/// Per-layer values collected by a traced run.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Sets a value.
    pub fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), v);
    }

    /// Adds to a value (absent = 0).
    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_default() += v;
    }

    /// Raises a high-water mark.
    pub fn max(&mut self, name: &str, v: f64) {
        let e = self.0.entry(name.to_string()).or_default();
        *e = e.max(v);
    }

    /// A value (absent = 0).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Appends every [`PER_LAYER`] metric to `res`, in table order.
    ///
    /// # Panics
    ///
    /// Panics on a collected name missing from the table (a harness bug).
    pub fn emit(&self, res: &mut RunResult) {
        for name in self.0.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _, _)| n == name),
                "layer metric {name} is not in PER_LAYER"
            );
        }
        for &(name, unit, deterministic) in PER_LAYER {
            let v = self.get(name);
            if deterministic {
                res.count(name, v, unit);
            } else {
                res.wall(name, v, unit);
            }
        }
    }
}
