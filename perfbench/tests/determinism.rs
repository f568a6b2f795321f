//! The harness on shrunken configs (the 512-GPU hybrid cell with 16×
//! smaller messages, `FleetConfig::smoke`): every deterministic per-layer
//! count repeats exactly across two same-seed traced runs, untraced runs
//! report every end-to-end metric, and the metric names agree with
//! `BENCHMARK.json`. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use c4::prelude::JsonValue;
use c4_perfbench::fleet::FleetSoak;
use c4_perfbench::hybrid::HybridCell;
use c4_perfbench::layers::PER_LAYER;
use c4_perfbench::report::RunResult;

fn counts(r: &RunResult) -> Vec<(&'static str, f64)> {
    assert!(r.correct(), "traced run failed: {:?}", r.failures);
    r.metrics
        .iter()
        .filter(|m| m.deterministic)
        .map(|m| (m.name, m.value))
        .collect()
}

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &JsonValue, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(|v| v.as_array())
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str())
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn hybrid_counts_repeat_exactly() {
    let cell = HybridCell::small_512();
    let a = cell.run_traced("hybrid-small", 7);
    let b = cell.run_traced("hybrid-small", 7);
    let ca = counts(&a);
    assert_eq!(ca.len(), PER_LAYER.iter().filter(|l| l.2).count());
    for layer in [
        "netsim.ep_events",
        "c4p.select_keys",
        "collectives.plan_hits",
    ] {
        assert!(
            ca.iter().any(|&(n, v)| n == layer && v > 0.0),
            "{layer} must be measured"
        );
    }
    assert_eq!(ca, counts(&b));
    assert_eq!(a.digest, b.digest);
}

#[test]
fn fleet_counts_repeat_exactly() {
    let soak = FleetSoak::smoke();
    let a = soak.run_traced("fleet-smoke", 7);
    let b = soak.run_traced("fleet-smoke", 7);
    let ca = counts(&a);
    assert!(ca
        .iter()
        .any(|&(n, v)| n == "fleet.live_iterations" && v > 0.0));
    assert_eq!(ca, counts(&b));
    assert_eq!(a.digest, b.digest);
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    let doc = benchmark_json();
    let e2e = names(&doc, "end_to_end");
    for r in [
        HybridCell::small_512().run_untraced("hybrid-small", 3, 0.0),
        FleetSoak::smoke().run_untraced("fleet-smoke", 3, 0.0),
    ] {
        assert!(r.correct(), "{}: {:?}", r.workload, r.failures);
        assert!(r.attempted > 0 && r.failed == 0);
        for name in &e2e {
            let v = r.metric(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(v > 0.0, "{}: {name} = {v}", r.workload);
        }
    }
}

#[test]
fn benchmark_json_lists_the_harness_metrics() {
    let doc = benchmark_json();
    let table: Vec<String> = PER_LAYER.iter().map(|l| l.0.to_string()).collect();
    assert_eq!(names(&doc, "per_layer"), table);
    let workloads = names(&doc, "workloads");
    assert_eq!(workloads, c4_perfbench::WORKLOADS);
}
