//! Shared helpers for the experiment binaries that regenerate the paper's
//! tables and figures.
//!
//! Every binary accepts `--seed <u64>` (default 42) and, where meaningful,
//! `--iters <usize>`, and prints aligned text tables. The binaries behind
//! the `BENCH_*.json` documents also take `--json-out` and
//! `--check-against` ([`FINISH_FLAGS`]) and end with [`finish`]; fig3,
//! `bench_c4p` and `bench_hybrid` also read `--sweep` ([`SWEEP_FLAGS`]),
//! and `bench_maxmin` reads `--json-out` alone. A binary rejects every flag
//! it does not read. The thread budget is `C4_THREADS` (see
//! `ParallelPolicy::from_env`).

use std::time::{Duration, Instant};

use c4::prelude::{
    ByteSize, DetRng, EcmpSelector, FlowKey, FlowSpec, GpuId, JsonValue, PathSelector, Topology,
};

/// Parsed common CLI options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cli {
    /// Root random seed.
    pub seed: u64,
    /// Iteration count for iterative experiments.
    pub iters: usize,
    /// Named sweep variant (`--sweep`, e.g. `paper` / `scale` for fig3).
    pub sweep: Option<String>,
    /// Write the machine-readable result document here (`--json-out`).
    pub json_out: Option<String>,
    /// Compare simulated results (bit for bit) and wall clock against this
    /// baseline document and exit non-zero on a difference or a regression
    /// (`--check-against`).
    pub check_against: Option<String>,
}

impl Cli {
    fn with_defaults(default_iters: usize) -> Self {
        Cli {
            seed: 42,
            iters: default_iters,
            ..Cli::default()
        }
    }
}

/// The flags of a binary that ends with [`finish`].
pub const FINISH_FLAGS: &[&str] = &["--json-out", "--check-against"];

/// [`FINISH_FLAGS`] plus `--sweep`, for the binaries with sweep variants.
pub const SWEEP_FLAGS: &[&str] = &["--sweep", "--json-out", "--check-against"];

/// Parses `--seed`, `--iters` and those of `--sweep`, `--json-out` and
/// `--check-against` that the binary `reads` from `std::env::args`.
///
/// # Panics
///
/// Panics with a usage message on malformed values and on any other flag.
pub fn parse_cli(default_iters: usize, reads: &[&str]) -> Cli {
    parse_args(
        &std::env::args().skip(1).collect::<Vec<_>>(),
        default_iters,
        reads,
    )
}

/// [`parse_cli`] over explicit arguments.
fn parse_args(args: &[String], default_iters: usize, reads: &[&str]) -> Cli {
    let mut cli = Cli::with_defaults(default_iters);
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
                cli.seed = value(args, &mut i, "--seed")
                    .parse()
                    .unwrap_or_else(|_| panic!("--seed needs a u64"));
            }
            "--iters" => {
                cli.iters = value(args, &mut i, "--iters")
                    .parse()
                    .unwrap_or_else(|_| panic!("--iters needs a usize"));
            }
            "--sweep" if reads.contains(&"--sweep") => {
                cli.sweep = Some(value(args, &mut i, "--sweep"));
            }
            "--json-out" if reads.contains(&"--json-out") => {
                cli.json_out = Some(value(args, &mut i, "--json-out"));
            }
            "--check-against" if reads.contains(&"--check-against") => {
                cli.check_against = Some(value(args, &mut i, "--check-against"));
            }
            other => panic!(
                "unknown argument: {other} (expected {})",
                ["--seed", "--iters"]
                    .iter()
                    .chain(reads)
                    .copied()
                    .collect::<Vec<_>>()
                    .join("/")
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

/// Reads and parses a `BENCH_*.json` document.
///
/// # Errors
///
/// Returns a message naming the path for unreadable or malformed files.
pub fn read_json(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Allowed wall-clock growth over the baseline before the perf gate trips.
const REGRESSION_FACTOR: f64 = 2.0;

/// Ends a `BENCH_*.json` binary: writes its result document to
/// `--json-out` and applies both `--check-against` gates, the exact result
/// gate and the 2× wall-clock gate, logging each verdict to stderr. Exits
/// the process with status 1 if either gate fails. Call it once, after the
/// binary's own output and checks.
///
/// # Panics
///
/// Panics when the baseline is unreadable or the output unwritable.
pub fn finish(cli: &Cli, doc: &JsonValue) {
    if !write_and_gate(cli, doc) {
        std::process::exit(1);
    }
}

/// [`finish`] without the exit: `true` when both gates pass or none runs.
/// The baseline is read before the document is written, so when both flags
/// name one file, as CI's do, the gates compare against its old contents.
fn write_and_gate(cli: &Cli, doc: &JsonValue) -> bool {
    let baseline = cli
        .check_against
        .as_deref()
        .map(|path| read_json(path).unwrap_or_else(|e| panic!("baseline: {e}")));
    if let Some(path) = cli.json_out.as_deref() {
        write_json(path, doc);
        eprintln!("wrote {path}");
    }
    let Some(baseline) = baseline else {
        return true;
    };
    let mut passed = true;
    for (gate, verdict) in [
        ("result gate", check_results_identical(doc, &baseline)),
        ("perf gate", check_wall_regression(doc, &baseline)),
    ] {
        match verdict {
            Ok(msg) => eprintln!("{gate}: {msg}"),
            Err(msg) => {
                eprintln!("{gate} FAILED: {msg}");
                passed = false;
            }
        }
    }
    passed
}

/// Compares a fresh run's `total_wall_ms` against a baseline document of
/// the same schema.
///
/// # Errors
///
/// `Err(message)` when the new wall clock exceeds [`REGRESSION_FACTOR`] ×
/// the baseline's (the perf gate), or when either document lacks the
/// field. `Ok` holds a one-line comparison summary for the log.
fn check_wall_regression(fresh: &JsonValue, baseline: &JsonValue) -> Result<String, String> {
    let wall = |doc: &JsonValue, which: &str| {
        doc.get("total_wall_ms")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("{which} document lacks total_wall_ms"))
    };
    let new_ms = wall(fresh, "fresh")?;
    let base_ms = wall(baseline, "baseline")?;
    let ratio = new_ms / base_ms.max(1e-9);
    if ratio > REGRESSION_FACTOR {
        return Err(format!(
            "wall-clock regression: {new_ms:.0} ms vs baseline {base_ms:.0} ms ({ratio:.2}× > allowed {REGRESSION_FACTOR:.2}×)"
        ));
    }
    Ok(format!(
        "wall clock {new_ms:.0} ms vs baseline {base_ms:.0} ms ({ratio:.2}× ≤ {REGRESSION_FACTOR:.2}×)"
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
/// budget `config.threads` — results, solver counters and
/// `arena_hwm_bytes` included, are bit-identical at any thread count. The
/// fresh document is compared as it would be written (through its JSON
/// text), so a non-finite number matches the `null` it serializes to.
///
/// # Errors
///
/// `Err(message)` naming the first differing leaves (and how many differ
/// in all) when any compared leaf differs or exists in only one document.
/// `Ok` holds a one-line summary for the log.
fn check_results_identical(fresh: &JsonValue, baseline: &JsonValue) -> Result<String, String> {
    let fresh = JsonValue::parse(&fresh.to_string()).map_err(|e| format!("fresh document: {e}"))?;
    let mut diff = LeafDiff {
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
        let compared = |(key, _): &&(String, JsonValue)| {
            !(HOST_TIME_KEYS.contains(&key.as_str()) || (path == "config" && key == "threads"))
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

/// The shortest span one timed sample covers, 10 µs, so that the
/// `Instant` pair around it (0.02–0.04 µs) stays under 1 % of the sample.
const MIN_SAMPLE: Duration = Duration::from_nanos(10_000);

/// Times `routine` for up to `budget` (≥ 1 sample after the warm-up) and
/// returns `(median_wall_us, samples, calls)`: criterion-style medians of
/// one call for the `bench_maxmin` binary. A sample takes one input from
/// `setup`, then times `calls` successive calls `routine(&mut input, i)`,
/// `i` = 0, 1, …, on it, back to back, and reads their time over `calls`;
/// neither `setup` nor dropping the input is timed. So a routine that
/// changes its input times a run of successive steps on one state, as the
/// drain takes them. With `calls` = `None`, for a routine that does the
/// same work at every call, the warm-up (not sampled) sizes it: it doubles
/// from 1 until one sample spans 10 µs, so a call that already does keeps
/// 1.
pub fn median_wall_us<S>(
    budget: Duration,
    calls: Option<usize>,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(&mut S, usize),
) -> (f64, usize, usize) {
    let mut time_run = |calls: usize| {
        let mut input = setup();
        let start = Instant::now();
        for i in 0..calls {
            routine(&mut input, i);
        }
        let elapsed = start.elapsed();
        drop(input);
        elapsed
    };
    let calls = calls.unwrap_or_else(|| {
        let mut calls = 1;
        while time_run(calls) < MIN_SAMPLE {
            calls *= 2;
        }
        calls
    });
    let mut samples: Vec<f64> = Vec::new();
    let deadline = Instant::now() + budget;
    while samples.is_empty() || (Instant::now() < deadline && samples.len() < 1000) {
        samples.push(time_run(calls).as_secs_f64() * 1e6 / calls as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    (samples[samples.len() / 2], samples.len(), calls)
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
        assert!(c.sweep.is_none() && c.json_out.is_none() && c.check_against.is_none());
    }

    #[test]
    fn a_binary_rejects_the_flags_it_does_not_read() {
        let args = |line: &str| -> Vec<String> { line.split(' ').map(String::from).collect() };
        let all = "--seed 7 --iters 3 --sweep 16k --json-out o.json --check-against b.json";
        let cli = parse_args(&args(all), 1, SWEEP_FLAGS);
        assert_eq!((cli.seed, cli.iters), (7, 3));
        assert_eq!(cli.sweep.as_deref(), Some("16k"));
        assert_eq!(cli.json_out.as_deref(), Some("o.json"));
        assert_eq!(cli.check_against.as_deref(), Some("b.json"));
        let cli = parse_args(&args("--json-out o.json"), 1, &["--json-out"]);
        assert_eq!(cli.json_out.as_deref(), Some("o.json"));

        for (line, reads) in [
            ("--sweep bogus", FINISH_FLAGS),
            ("--check-against b.json", &["--json-out"]),
            ("--json-out o.json", &[]),
            ("--check-against b.json", &[]),
            ("--sweep scale", &[]),
        ] {
            let err =
                std::panic::catch_unwind(|| parse_args(&args(line), 1, reads)).expect_err(line);
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            let flag = line.split(' ').next().unwrap();
            assert!(
                msg.starts_with(&format!("unknown argument: {flag} ")),
                "{line}: {msg}"
            );
        }
    }

    #[test]
    fn regression_gate_math() {
        let doc = |ms: f64| {
            let mut d = JsonValue::object();
            d.push("total_wall_ms", ms);
            d
        };
        assert!(check_wall_regression(&doc(190.0), &doc(100.0)).is_ok());
        let err = check_wall_regression(&doc(210.0), &doc(100.0)).unwrap_err();
        assert!(err.contains("regression"), "{err}");
        assert!(check_wall_regression(&JsonValue::object(), &doc(1.0)).is_err());
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
    fn result_gate_skips_host_time_and_gates_the_arena_at_any_thread_count() {
        let base = bench_doc(70.2, 100.0, 1, 4096);
        assert!(check_results_identical(&bench_doc(70.2, 250.0, 1, 4096), &base).is_ok());
        assert!(check_results_identical(&bench_doc(70.2, 100.0, 2, 4096), &base).is_ok());
        for threads in [1, 2] {
            let fresh = bench_doc(70.2, 100.0, threads, 8192);
            let err = check_results_identical(&fresh, &base).unwrap_err();
            assert!(err.contains("arena_hwm_bytes"), "{threads} threads: {err}");
        }
    }

    #[test]
    fn finish_gates_against_the_old_file_and_leaves_the_fresh_document() {
        let path =
            std::env::temp_dir().join(format!("c4_bench_finish_{}.json", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let cli = Cli {
            json_out: Some(path.clone()),
            check_against: Some(path.clone()),
            ..Cli::with_defaults(1)
        };
        let old = bench_doc(70.2, 100.0, 1, 4096);
        let ulp = bench_doc(f64::from_bits(70.2f64.to_bits() + 1), 100.0, 1, 4096);
        write_json(&path, &old);

        assert!(write_and_gate(&cli, &old), "a bit-identical rerun passes");
        assert!(
            !write_and_gate(&cli, &ulp),
            "one ulp off the file's old contents fails"
        );
        assert_eq!(
            read_json(&path).unwrap(),
            ulp,
            "the file holds the fresh run"
        );
        assert!(
            !write_and_gate(&cli, &old),
            "the gate read the file before this run overwrote it"
        );
        assert_eq!(read_json(&path).unwrap(), old);
        let _ = std::fs::remove_file(&path);
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
}
