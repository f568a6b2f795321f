//! Regenerates **`BENCH_maxmin.json`**: median wall-clock timings of the
//! max-min solver stack: the from-scratch reference solve; `MaxMinState`'s
//! seed solve (a fresh state's first refresh); its one operation in the
//! drain loop, a flow completion, timed as a run of successive completions
//! on one copy of the seeded state (the copy is not timed) against a
//! from-scratch re-solve; and the two drain implementations end to end.
//!
//! The workloads come from the shared builders in `c4_bench`, seeded from
//! `--seed`, and the binary emits the machine-readable `c4-bench-v1`
//! document, so `BENCH_maxmin.json` and `BENCH_scale.json` share one
//! schema and neither is hand-written:
//!
//! ```text
//! cargo run --release -p c4_bench --bin bench_maxmin -- --json-out BENCH_maxmin.json
//! ```

use std::time::Duration;

use c4::prelude::*;
use c4_bench::{
    banner, median_wall_us, parse_cli, synth_drain_specs, synth_maxmin_problem, write_json,
};

/// Per-case measurement budget.
const BUDGET: Duration = Duration::from_millis(300);

/// One measured case, printed and accumulated into the JSON document.
struct Recorder {
    rows: Vec<JsonValue>,
}

impl Recorder {
    /// Times a call that does the same work every time.
    fn measure(&mut self, name: &str, mut routine: impl FnMut()) -> f64 {
        self.measure_run(name, None, || (), |_, _| routine())
    }

    /// Times `calls` successive calls on one untimed input per sample (see
    /// [`median_wall_us`]).
    fn measure_run<S>(
        &mut self,
        name: &str,
        calls: Option<usize>,
        setup: impl FnMut() -> S,
        routine: impl FnMut(&mut S, usize),
    ) -> f64 {
        let (median_us, samples, calls) = median_wall_us(BUDGET, calls, setup, routine);
        println!("{name:<56} median {median_us:>12.2} us  ({samples} samples of {calls})");
        let mut row = JsonValue::object();
        row.push("name", name)
            .push("median_us", median_us)
            .push("samples", samples);
        self.rows.push(row);
        median_us
    }
}

fn main() {
    let cli = parse_cli(1, &["--json-out"]);
    banner(
        "BENCH_maxmin — max-min solver stack medians",
        "incremental MaxMinState vs from-scratch reference",
    );
    let start = std::time::Instant::now();
    let mut rec = Recorder { rows: Vec::new() };

    // From-scratch reference solve at realistic flow/link scales.
    let shapes = [(600usize, 100usize), (3600, 400), (6000, 1500)];
    for &(links, flows) in &shapes {
        let (capacity, routes) = synth_maxmin_problem(links, flows, cli.seed);
        rec.measure(&format!("maxmin_solve/{links}l_{flows}f"), || {
            std::hint::black_box(maxmin::solve(&capacity, &routes, None));
        });
    }

    // The seed solve: a fresh state's first refresh, the event kernel over
    // every flow plus the passes that build the worklist from its output.
    // A drain that restores a kept seed solve skips the kernel.
    for &(links, flows) in &shapes {
        let (capacity, routes) = synth_maxmin_problem(links, flows, cli.seed);
        rec.measure_run(
            &format!("maxmin_seed/{links}l_{flows}f"),
            Some(1),
            || MaxMinState::with_flows(&capacity, &routes),
            |s, _| {
                std::hint::black_box(s.rates().len());
            },
        );
    }

    // Flows complete: re-solve from scratch vs incremental removal.
    for &(links, flows) in &shapes {
        let (capacity, routes) = synth_maxmin_problem(links, flows, cli.seed);
        let removed = flows / 2;
        let remaining: Vec<Vec<u32>> = routes
            .iter()
            .enumerate()
            .filter(|(f, _)| *f != removed)
            .map(|(_, r)| r.clone())
            .collect();
        let scratch = rec.measure(
            &format!("maxmin_completion_resolve/{links}l_{flows}f/from_scratch"),
            || {
                std::hint::black_box(maxmin::solve(&capacity, &remaining, None));
            },
        );
        let mut state = MaxMinState::with_flows(&capacity, &routes);
        let _ = state.rates();
        // Each sample completes the first half of the flows, one at a time
        // and in id order, on one copy of the seeded state, as a drain's
        // completions land on its one state; copying the state is set-up.
        let incremental = rec.measure_run(
            &format!("maxmin_completion_resolve/{links}l_{flows}f/incremental"),
            Some(flows / 2),
            || state.clone(),
            |s, f| {
                s.remove_flow(f);
                std::hint::black_box(s.rates().len());
            },
        );
        println!(
            "{:>56} speedup {:>11.1}x",
            "",
            scratch / incremental.max(1e-9)
        );
    }

    // The drain loop end to end (incremental vs retained reference).
    {
        let topo = Topology::build(&ClosConfig::testbed_128());
        let specs = synth_drain_specs(&topo, 256, cli.seed ^ 0x5EED);
        let cfg = DrainConfig {
            rate_noise: 0.1,
            cnp: Some(CnpModel::paper_default()),
            parallel: ParallelPolicy::SERIAL,
            ..DrainConfig::default()
        };
        rec.measure("drain_noisy_shared/256qp/incremental", || {
            let mut rng = DetRng::seed_from(cli.seed ^ 0xD12A);
            std::hint::black_box(drain(&topo, &specs, &cfg, &mut rng).end);
        });
        rec.measure("drain_noisy_shared/256qp/reference", || {
            let mut rng = DetRng::seed_from(cli.seed ^ 0xD12A);
            std::hint::black_box(drain_reference(&topo, &specs, &cfg, &mut rng).end);
        });
    }

    let mut config = JsonValue::object();
    config
        .push("seed", cli.seed)
        .push("budget_ms_per_case", BUDGET.as_millis() as u64)
        .push(
            "host_threads",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        );
    let mut doc = JsonValue::object();
    doc.push("schema", "c4-bench-v1")
        .push("bench", "maxmin_solvers")
        .push(
            "generated_by",
            "cargo run --release -p c4_bench --bin bench_maxmin -- --json-out BENCH_maxmin.json",
        )
        .push("config", config)
        .push("rows", JsonValue::Array(rec.rows))
        .push("total_wall_ms", start.elapsed().as_secs_f64() * 1e3);

    if let Some(path) = cli.json_out.as_deref() {
        write_json(path, &doc);
        println!("wrote {path}");
    } else {
        println!("JSON: {doc}");
    }
}
