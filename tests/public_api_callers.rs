//! Every `pub fn` and `pub const fn` in the library crates has a production
//! caller, or an entry in [`ALLOWED`] that names the rule keeping it.
//!
//! The scan is by name. Definitions come from the non-test part of
//! `crates/*/src/**/*.rs` (bins excluded): each file is cut at its first
//! `#[cfg(test)]`. The caller corpus is those same sources plus the bench
//! binaries (`crates/bench/src/bin`), the umbrella crate (`src/`) and the
//! benchmark harness (`perfbench/src`), each cut the same way, with `//`
//! lines and `use` statements dropped. A name counts as called only in call
//! syntax: `name(` not preceded by `fn`, or `::name`. A field, a local or a
//! binding that shares the name does not count.
//!
//! Tests and examples do not count as callers. An uncalled function stays
//! only under one of three rules, named in its [`ALLOWED`] entry:
//! (a) a differential, digest or round-trip harness calls it;
//! (b) a test or example needs it and has no other way in;
//! (c) a named open item needs it.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Uncalled public function names that stay: (name, keep rule and its user).
#[rustfmt::skip]
const ALLOWED: &[(&str, &str)] = &[
    ("parse_csv", "(a) EventLog::parse_csv: tests/csv_roundtrip.rs"),
    ("register_telemetry", "(a) TrainingJob::register_telemetry: tests/result_digest.rs"),
    ("total_allocations", "(a) PathLoadLedger::total_allocations: tests/c4p_differential.rs"),
    ("tracked_links", "(a) PathLoadLedger::tracked_links: tests/c4p_differential.rs"),
    ("fabric_down_links", "(a) Topology::fabric_down_links: tests/c4p_differential.rs"),
    ("uniform_range", "(a) DetRng::uniform_range: tests/{hybrid_differential,csv_roundtrip}.rs"),
    ("run_with_telemetry", "(a) fig12::run_with_telemetry: tests/streaming_differential.rs"),
    ("run_detection", "(a) fig12::run_detection: tests/streaming_differential.rs"),
    ("least_loaded_rotated", "(a) oracle for PathLoadLedger::least_loaded_indexed (ledger tests)"),
    ("ledger", "(a) C4pMaster::ledger: tests/c4p_differential.rs"),
    ("from_micros", "(a) SimDuration::from_micros: tests/maxmin_differential.rs"),
    ("flow_count", "(a) AllToAllPlan::flow_count: tests/hybrid_differential.rs"),
    ("set_batch_min_keys", "(a) C4pMaster::set_batch_min_keys: tests/c4p_differential.rs, until ROADMAP item 8 deletes the partition"),
    ("inject_event", "(b) FleetController::inject_event: fault set-up in recovery_paths.rs"),
    ("job_nodes", "(b) FleetController::job_nodes: aims faults at live jobs in recovery_paths.rs"),
    ("tiny", "(b) ClosConfig::tiny: the smallest fabric, set-up of most tests"),
    ("catalog", "(b) C4pMaster::catalog: read by tests/traffic_engineering.rs and its example"),
    ("eliminated_links", "(b) PathCatalog::eliminated_links: observed in traffic_engineering.rs"),
    ("healthy_count", "(b) PathCatalog::healthy_count: printed by examples/traffic_engineering"),
    ("residual", "(b) maxmin::residual: the feasibility check in tests/properties.rs"),
    ("stalled", "(b) DrainReport::stalled: observed in tests/{workspace_smoke,dead_port_no_deadline}.rs"),
    ("restart", "(b) TrainingJob::restart: examples/fault_detection restarts after the swap"),
    ("goodput_fraction", "(b) JobAccounting::goodput_fraction: printed by the fleet_soak example"),
    ("with_lateness", "(c) WindowSpec::with_lateness: ROADMAP item 6 (late-dropped durations)"),
];

/// Every `.rs` file under `dir`, in path order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The file's text above its first `#[cfg(test)]`.
fn non_test_part(path: &Path) -> String {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    match text.find("#[cfg(test)]") {
        Some(cut) => text[..cut].to_string(),
        None => text,
    }
}

/// `text` without `//` lines and `use` statements.
fn corpus_lines(text: &str) -> String {
    let mut out = String::new();
    let mut in_use = false;
    for line in text.lines() {
        let t = line.trim_start();
        if in_use {
            in_use = !t.contains(';');
            continue;
        }
        if t.starts_with("//") {
            continue;
        }
        if t.starts_with("use ") || t.starts_with("pub use ") {
            in_use = !t.contains(';');
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The names each `<prefix> fn <name>` in `text` defines.
fn defined_names<'a>(text: &'a str, prefix: &[&str]) -> Vec<&'a str> {
    let tokens: Vec<&str> = words(text).collect();
    let n = prefix.len();
    tokens
        .windows(n + 2)
        .filter(|w| w[..n] == *prefix && w[n] == "fn")
        .map(|w| w[n + 1])
        .collect()
}

/// The names `text` calls: `name(` not preceded by `fn`, or `::name`.
fn called_names(text: &str) -> BTreeSet<&str> {
    let is_word = |c: char| c.is_alphanumeric() || c == '_';
    let mut called = BTreeSet::new();
    let mut start = None;
    for (i, c) in text.char_indices().chain([(text.len(), ' ')]) {
        match (start, is_word(c)) {
            (None, true) => start = Some(i),
            (Some(s), false) => {
                start = None;
                let before = &text[..s];
                let defines = before
                    .trim_end()
                    .strip_suffix("fn")
                    .is_some_and(|b| !b.ends_with(is_word));
                if before.ends_with("::") || (c == '(' && !defines) {
                    called.insert(&text[s..i]);
                }
            }
            _ => {}
        }
    }
    called
}

/// Uncalled `pub fn` and `pub const fn` names, each with the files
/// defining it.
fn uncalled() -> BTreeMap<String, BTreeSet<String>> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut library = Vec::new();
    rust_files(&root.join("crates"), &mut library);
    library.retain(|p| {
        let rel = p.strip_prefix(&root).expect("under root");
        rel.components()
            .nth(2)
            .is_some_and(|c| c.as_os_str() == "src")
            && rel
                .components()
                .nth(3)
                .is_none_or(|c| c.as_os_str() != "bin")
    });
    let mut defined: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut corpus = String::new();
    for file in &library {
        let text = non_test_part(file);
        let rel = file.strip_prefix(&root).expect("under root").display();
        for prefix in [&["pub"][..], &["pub", "const"]] {
            for name in defined_names(&text, prefix) {
                defined
                    .entry(name.to_string())
                    .or_default()
                    .insert(rel.to_string());
            }
        }
        corpus.push_str(&corpus_lines(&text));
    }
    let mut callers = Vec::new();
    for dir in ["crates/bench/src/bin", "src", "perfbench/src"] {
        rust_files(&root.join(dir), &mut callers);
    }
    for file in &callers {
        corpus.push_str(&corpus_lines(&non_test_part(file)));
    }

    let called = called_names(&corpus);
    defined
        .into_iter()
        .filter(|(name, _)| !called.contains(name.as_str()))
        .collect()
}

#[test]
fn every_public_function_has_a_production_caller_or_a_keep_rule() {
    let uncalled = uncalled();
    let allowed: BTreeMap<&str, &str> = ALLOWED.iter().copied().collect();
    assert_eq!(allowed.len(), ALLOWED.len(), "duplicate ALLOWED entry");
    for (name, why) in ALLOWED {
        assert!(
            ["(a) ", "(b) ", "(c) "].iter().any(|r| why.starts_with(r)),
            "ALLOWED entry {name} must name its keep rule (a), (b) or (c): {why}"
        );
    }

    let unjustified: Vec<String> = uncalled
        .iter()
        .filter(|(name, _)| !allowed.contains_key(name.as_str()))
        .map(|(name, files)| format!("{name} ({})", Vec::from_iter(files.clone()).join(", ")))
        .collect();
    assert!(
        unjustified.is_empty(),
        "{} public fn(s) with no production caller; delete each or add an ALLOWED entry \
         naming its keep rule:\n  {}",
        unjustified.len(),
        unjustified.join("\n  ")
    );

    let stale: Vec<&str> = allowed
        .keys()
        .copied()
        .filter(|name| !uncalled.contains_key(*name))
        .collect();
    assert!(
        stale.is_empty(),
        "ALLOWED names that are now called or no longer defined: {stale:?}"
    );
}
