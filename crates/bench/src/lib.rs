//! Shared helpers for the experiment binaries that regenerate the paper's
//! tables and figures.
//!
//! Every binary accepts `--seed <u64>` (default 42) and, where meaningful,
//! `--iters <usize>`; outputs are printed as aligned text tables plus an
//! optional JSON dump via `--json`.

use std::time::{Duration, Instant};

use c4::prelude::{
    quote_field, ByteSize, DetRng, EcmpSelector, FlowKey, FlowSpec, GpuId, JsonValue,
    ParallelPolicy, PathSelector, Topology,
};

/// Parsed common CLI options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cli {
    /// Root random seed.
    pub seed: u64,
    /// Iteration count for iterative experiments.
    pub iters: usize,
    /// Emit a JSON block after the human-readable table.
    pub json: bool,
    /// Named sweep variant (`--sweep`, e.g. `paper` / `scale` for fig3).
    pub sweep: Option<String>,
    /// Write the machine-readable result document here (`--json-out`).
    pub json_out: Option<String>,
    /// Write the per-row result table as an RFC 4180 CSV file here
    /// (`--csv-out`), quoted by the telemetry layer's rules.
    pub csv_out: Option<String>,
    /// Compare simulated results (bit for bit) and wall clock against this
    /// baseline document and exit non-zero on a difference or a regression
    /// (`--check-against`).
    pub check_against: Option<String>,
    /// Thread-budget override (`--threads N`, `--threads max`); `None`
    /// defers to the `C4_THREADS` environment selection.
    pub threads: Option<ParallelPolicy>,
}

impl Cli {
    fn with_defaults(default_iters: usize) -> Self {
        Cli {
            seed: 42,
            iters: default_iters,
            ..Cli::default()
        }
    }

    /// The effective thread policy: the `--threads` override, else the
    /// `C4_THREADS` environment selection.
    pub fn parallel(&self) -> ParallelPolicy {
        self.threads.unwrap_or_default()
    }
}

/// Parses `--seed`, `--iters`, `--json`, `--sweep`, `--json-out`,
/// `--check-against` and `--threads` from `std::env::args`.
///
/// # Panics
///
/// Panics with a usage message on malformed values.
pub fn parse_cli(default_iters: usize) -> Cli {
    let mut cli = Cli::with_defaults(default_iters);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |args: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i)
            .unwrap_or_else(|| panic!("{flag} needs a value"))
            .clone()
    };
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                cli.seed = value(&args, &mut i, "--seed")
                    .parse()
                    .unwrap_or_else(|_| panic!("--seed needs a u64"));
            }
            "--iters" => {
                cli.iters = value(&args, &mut i, "--iters")
                    .parse()
                    .unwrap_or_else(|_| panic!("--iters needs a usize"));
            }
            "--json" => cli.json = true,
            "--sweep" => cli.sweep = Some(value(&args, &mut i, "--sweep")),
            "--json-out" => cli.json_out = Some(value(&args, &mut i, "--json-out")),
            "--csv-out" => cli.csv_out = Some(value(&args, &mut i, "--csv-out")),
            "--check-against" => {
                cli.check_against = Some(value(&args, &mut i, "--check-against"));
            }
            "--threads" => {
                let v = value(&args, &mut i, "--threads");
                // Same semantics as the C4_THREADS env var: `max` or `0`
                // means one worker per hardware thread.
                cli.threads = Some(if v.eq_ignore_ascii_case("max") {
                    ParallelPolicy::max()
                } else {
                    match v
                        .parse::<usize>()
                        .unwrap_or_else(|_| panic!("--threads needs a usize or 'max'"))
                    {
                        0 => ParallelPolicy::max(),
                        n => ParallelPolicy::with_threads(n),
                    }
                });
            }
            other => panic!(
                "unknown argument: {other} (expected --seed/--iters/--json/--sweep/--json-out/--csv-out/--check-against/--threads)"
            ),
        }
        i += 1;
    }
    cli
}

/// Writes a `BENCH_*.json` document (pretty-printed, trailing newline).
///
/// # Panics
///
/// Panics when the path is unwritable — bench binaries fail loudly.
pub fn write_json(path: &str, doc: &JsonValue) {
    std::fs::write(path, doc.pretty()).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

/// Renders a header plus per-row field vectors as one RFC 4180 CSV
/// document, quoting every field by [`quote_field`]'s rules (the same
/// quoting the telemetry CSV codecs use, so downstream parsers shared with
/// the event-log tooling read bench exports unchanged).
///
/// # Panics
///
/// Panics when a row's width differs from the header's — a bench-binary
/// bug, not an input condition.
pub fn csv_document(header: &[&str], rows: &[Vec<String>]) -> String {
    let render = |fields: &[String]| -> String {
        fields
            .iter()
            .map(|f| quote_field(f))
            .collect::<Vec<_>>()
            .join(",")
    };
    let head: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    let mut out = render(&head);
    out.push('\n');
    for row in rows {
        assert_eq!(
            row.len(),
            header.len(),
            "CSV row width must match the header"
        );
        out.push_str(&render(row));
        out.push('\n');
    }
    out
}

/// Writes a `--csv-out` table (header + rows, trailing newline).
///
/// # Panics
///
/// Panics when the path is unwritable — bench binaries fail loudly.
pub fn write_csv(path: &str, header: &[&str], rows: &[Vec<String>]) {
    std::fs::write(path, csv_document(header, rows))
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

/// Reads and parses a `BENCH_*.json` document.
///
/// # Errors
///
/// Returns a message naming the path for unreadable or malformed files.
pub fn read_json(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compares a fresh run's `total_wall_ms` against a baseline document of
/// the same schema.
///
/// # Errors
///
/// `Err(message)` when the new wall clock exceeds `factor ×` the baseline
/// (the CI perf gate), or when either document lacks the field. `Ok` holds
/// a one-line comparison summary for the log.
pub fn check_wall_regression(
    fresh: &JsonValue,
    baseline: &JsonValue,
    factor: f64,
) -> Result<String, String> {
    let wall = |doc: &JsonValue, which: &str| {
        doc.get("total_wall_ms")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("{which} document lacks total_wall_ms"))
    };
    let new_ms = wall(fresh, "fresh")?;
    let base_ms = wall(baseline, "baseline")?;
    let ratio = new_ms / base_ms.max(1e-9);
    if ratio > factor {
        return Err(format!(
            "wall-clock regression: {new_ms:.0} ms vs baseline {base_ms:.0} ms ({ratio:.2}× > allowed {factor:.2}×)"
        ));
    }
    Ok(format!(
        "wall clock {new_ms:.0} ms vs baseline {base_ms:.0} ms ({ratio:.2}× ≤ {factor:.2}×)"
    ))
}

/// Leaves that measure the host rather than the simulation: the exact
/// result gate skips them.
const HOST_TIME_KEYS: [&str; 6] = [
    "wall_ms",
    "total_wall_ms",
    "ecmp_drain_ms",
    "c4p_drain_ms",
    "ecmp_plan_ms",
    "c4p_plan_ms",
];

/// Compares every seed-determined leaf of a fresh run against a baseline
/// document of the same schema, bit for bit: numbers by
/// [`f64::to_bits`], everything else by equality, and the document shape
/// (keys, array lengths) exactly.
///
/// Skipped: the host-time leaves (`wall_ms`, `total_wall_ms`,
/// `{ecmp,c4p}_drain_ms`, `{ecmp,c4p}_plan_ms`) and the run's thread
/// budget `config.threads` — results are bit-identical at any thread
/// count. The solver arena's `arena_hwm_bytes` is compared only when both
/// documents ran at the same `config.threads`. The fresh document is
/// compared as it would be written (through its JSON text), so a
/// non-finite number matches the `null` it serializes to.
///
/// # Errors
///
/// `Err(message)` naming the first differing leaves (and how many differ
/// in all) when any compared leaf differs or exists in only one document.
/// `Ok` holds a one-line summary for the log.
pub fn check_results_identical(fresh: &JsonValue, baseline: &JsonValue) -> Result<String, String> {
    let fresh = JsonValue::parse(&fresh.to_string()).map_err(|e| format!("fresh document: {e}"))?;
    let threads = |doc: &JsonValue| {
        doc.get("config")
            .and_then(|c| c.get("threads"))
            .and_then(JsonValue::as_f64)
    };
    let mut diff = LeafDiff {
        same_threads: threads(&fresh) == threads(baseline),
        compared: 0,
        mismatches: Vec::new(),
    };
    diff.walk("", &fresh, baseline);
    match diff.mismatches.len() {
        0 => Ok(format!(
            "{} result leaves bit-identical to the baseline",
            diff.compared
        )),
        n => Err(format!(
            "{n} result leaves differ from the baseline: {}",
            diff.mismatches
                .iter()
                .take(5)
                .cloned()
                .collect::<Vec<_>>()
                .join("; ")
        )),
    }
}

/// The tree walk behind [`check_results_identical`].
struct LeafDiff {
    same_threads: bool,
    compared: usize,
    mismatches: Vec<String>,
}

impl LeafDiff {
    fn walk(&mut self, path: &str, fresh: &JsonValue, base: &JsonValue) {
        let join = |key: &str| {
            if path.is_empty() {
                key.to_string()
            } else {
                format!("{path}.{key}")
            }
        };
        let same_threads = self.same_threads;
        let compared = |(key, _): &&(String, JsonValue)| {
            !(HOST_TIME_KEYS.contains(&key.as_str())
                || (path == "config" && key == "threads")
                || (key == "arena_hwm_bytes" && !same_threads))
        };
        match (fresh, base) {
            (JsonValue::Object(f), JsonValue::Object(b)) => {
                for (key, bv) in b.iter().filter(compared) {
                    match fresh.get(key) {
                        Some(fv) => self.walk(&join(key), fv, bv),
                        None => self
                            .mismatches
                            .push(format!("{} missing from the fresh run", join(key))),
                    }
                }
                for (key, _) in f.iter().filter(compared) {
                    if base.get(key).is_none() {
                        self.mismatches
                            .push(format!("{} missing from the baseline", join(key)));
                    }
                }
            }
            (JsonValue::Array(f), JsonValue::Array(b)) if f.len() == b.len() => {
                for (i, (fv, bv)) in f.iter().zip(b).enumerate() {
                    self.walk(&format!("{path}[{i}]"), fv, bv);
                }
            }
            (JsonValue::Num(x), JsonValue::Num(y)) => {
                self.compared += 1;
                if x.to_bits() != y.to_bits() {
                    self.mismatches.push(format!("{path} = {x}, baseline {y}"));
                }
            }
            (JsonValue::Array(_) | JsonValue::Object(_), _)
            | (_, JsonValue::Array(_) | JsonValue::Object(_)) => {
                self.mismatches
                    .push(format!("{path}: shape differs from the baseline"));
            }
            (x, y) => {
                self.compared += 1;
                if x != y {
                    self.mismatches.push(format!("{path} = {x}, baseline {y}"));
                }
            }
        }
    }
}

/// Applies both `--check-against` gates to a fresh document: the exact
/// result gate ([`check_results_identical`]) and the wall-clock gate
/// ([`check_wall_regression`] at `wall_factor`). Logs each verdict to
/// stderr and exits the process with status 1 if either fails.
pub fn enforce_baseline_gates(fresh: &JsonValue, baseline: &JsonValue, wall_factor: f64) {
    let mut failed = false;
    for (gate, verdict) in [
        ("result gate", check_results_identical(fresh, baseline)),
        (
            "perf gate",
            check_wall_regression(fresh, baseline, wall_factor),
        ),
    ] {
        match verdict {
            Ok(msg) => eprintln!("{gate}: {msg}"),
            Err(msg) => {
                eprintln!("{gate} FAILED: {msg}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Synthesizes `flows` random 4-link routes over `links` links — the
/// max-min solver workload of the `bench_maxmin` binary that regenerates
/// `BENCH_maxmin.json`.
pub fn synth_maxmin_problem(links: usize, flows: usize, seed: u64) -> (Vec<f64>, Vec<Vec<u32>>) {
    let mut rng = DetRng::seed_from(seed);
    let capacity: Vec<f64> = (0..links).map(|_| 100.0 + rng.uniform() * 300.0).collect();
    let routes: Vec<Vec<u32>> = (0..flows)
        .map(|_| (0..4).map(|_| rng.index(links) as u32).collect())
        .collect();
    (capacity, routes)
}

/// Builds the `drain_noisy_shared` workload of the `bench_maxmin` binary:
/// `n` same-sized ECMP-routed QPs contending on shared receive ports (the
/// scenario-suite hot path).
pub fn synth_drain_specs(topo: &Topology, n: usize, seed: u64) -> Vec<FlowSpec> {
    let mut sel = EcmpSelector::new(seed.wrapping_mul(3).wrapping_add(2));
    let mut rng = DetRng::seed_from(seed);
    let ngpus = topo.num_gpus();
    (0..n)
        .map(|i| {
            let src = GpuId::from_index(rng.index(ngpus));
            let mut dst = GpuId::from_index(rng.index(ngpus / 4) * 4);
            if topo.gpu(src).node == topo.gpu(dst).node {
                dst = GpuId::from_index((dst.index() + 8) % ngpus);
            }
            let key = FlowKey {
                src_gpu: src,
                dst_gpu: dst,
                comm: 1 + (i % 8) as u64,
                channel: (i % 16) as u16,
                qp: (i % 2) as u16,
                incarnation: 0,
            };
            let choice = sel.select(topo, &key);
            let sp = topo.port_of_gpu(src, choice.src_side);
            let dp = topo.port_of_gpu(dst, choice.dst_side);
            let route = topo.inter_node_route(src, sp, choice.fabric.as_ref(), dp, dst);
            FlowSpec::new(key, ByteSize::from_mib(96), route)
        })
        .collect()
}

/// Runs `routine` repeatedly for up to `budget` (≥ 1 call after one warm-up)
/// and returns `(median_wall_us, samples)`: criterion-style medians for the
/// `bench_maxmin` binary. Each call gets a fresh input from `setup`, which
/// (like dropping the input afterwards) is not timed.
pub fn median_wall_us<S>(
    budget: Duration,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(&mut S),
) -> (f64, usize) {
    routine(&mut setup()); // warm-up, untimed
    let mut samples: Vec<f64> = Vec::new();
    let deadline = Instant::now() + budget;
    while samples.is_empty() || (Instant::now() < deadline && samples.len() < 1000) {
        let mut input = setup();
        let start = Instant::now();
        routine(&mut input);
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    (samples[samples.len() / 2], samples.len())
}

/// Prints a header banner for an experiment.
pub fn banner(title: &str, paper: &str) {
    println!("════════════════════════════════════════════════════════════════");
    println!("{title}");
    println!("paper: {paper}");
    println!("════════════════════════════════════════════════════════════════");
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = Cli::with_defaults(8);
        assert_eq!(c.seed, 42);
        assert_eq!(c.iters, 8);
        assert!(!c.json);
        assert!(c.sweep.is_none() && c.json_out.is_none() && c.check_against.is_none());
        assert_eq!(c.parallel(), ParallelPolicy::default());
    }

    #[test]
    fn regression_gate_math() {
        let doc = |ms: f64| {
            let mut d = JsonValue::object();
            d.push("total_wall_ms", ms);
            d
        };
        assert!(check_wall_regression(&doc(190.0), &doc(100.0), 2.0).is_ok());
        let err = check_wall_regression(&doc(210.0), &doc(100.0), 2.0).unwrap_err();
        assert!(err.contains("regression"), "{err}");
        assert!(check_wall_regression(&JsonValue::object(), &doc(1.0), 2.0).is_err());
    }

    /// A small document shaped like the bench outputs.
    fn bench_doc(gbps: f64, wall_ms: f64, threads: usize, arena: u64) -> JsonValue {
        let mut config = JsonValue::object();
        config.push("seed", 42u64).push("threads", threads);
        let mut solver = JsonValue::object();
        solver
            .push("events", 1234u64)
            .push("arena_hwm_bytes", arena);
        let mut row = JsonValue::object();
        row.push("gpus", 2048usize)
            .push("ecmp_gbps", gbps)
            .push("ecmp_drain_ms", wall_ms / 2.0)
            .push("ecmp_solver", solver)
            .push("wall_ms", wall_ms);
        let mut doc = JsonValue::object();
        doc.push("schema", "c4-bench-v1")
            .push("config", config)
            .push("rows", JsonValue::Array(vec![row]))
            .push("total_wall_ms", wall_ms);
        doc
    }

    #[test]
    fn result_gate_is_exact_on_simulated_leaves() {
        let base = bench_doc(70.2, 100.0, 1, 4096);
        // Round-tripped through its JSON text, as the baseline file is.
        let on_disk = JsonValue::parse(&base.pretty()).unwrap();
        assert!(check_results_identical(&base, &on_disk).is_ok());

        let ulp = f64::from_bits(70.2f64.to_bits() + 1);
        let err = check_results_identical(&bench_doc(ulp, 100.0, 1, 4096), &on_disk).unwrap_err();
        assert!(err.contains("rows[0].ecmp_gbps"), "{err}");

        let mut missing = bench_doc(70.2, 100.0, 1, 4096);
        if let JsonValue::Object(entries) = &mut missing {
            entries.retain(|(k, _)| k != "schema");
        }
        let err = check_results_identical(&missing, &on_disk).unwrap_err();
        assert!(err.contains("schema missing from the fresh run"), "{err}");
        let err = check_results_identical(&on_disk, &missing).unwrap_err();
        assert!(err.contains("schema missing from the baseline"), "{err}");
    }

    #[test]
    fn result_gate_skips_host_time_and_gates_the_arena_per_thread_count() {
        let base = bench_doc(70.2, 100.0, 1, 4096);
        assert!(check_results_identical(&bench_doc(70.2, 250.0, 1, 4096), &base).is_ok());
        let err = check_results_identical(&bench_doc(70.2, 100.0, 1, 8192), &base).unwrap_err();
        assert!(err.contains("arena_hwm_bytes"), "{err}");
        assert!(check_results_identical(&bench_doc(70.2, 100.0, 2, 8192), &base).is_ok());
    }

    #[test]
    fn json_files_round_trip_on_disk() {
        let mut doc = JsonValue::object();
        doc.push("total_wall_ms", 12.5);
        let path = std::env::temp_dir().join("c4_bench_roundtrip.json");
        let path = path.to_str().unwrap();
        write_json(path, &doc);
        assert_eq!(read_json(path).unwrap(), doc);
        assert!(read_json("/nonexistent/nope.json").is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.3119), "31.19%");
    }

    #[test]
    fn csv_document_quotes_by_telemetry_rules() {
        let doc = csv_document(
            &["gpus", "note"],
            &[
                vec!["512".into(), "plain".into()],
                vec!["1024".into(), "has,comma and \"quote\"".into()],
            ],
        );
        assert_eq!(
            doc,
            "gpus,note\n512,plain\n1024,\"has,comma and \"\"quote\"\"\"\n"
        );
        // Round-trips through the telemetry splitter.
        let fields = c4::prelude::split_fields(doc.lines().nth(2).unwrap()).unwrap();
        assert_eq!(fields, vec!["1024", "has,comma and \"quote\""]);
    }
}
