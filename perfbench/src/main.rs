//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload and prints its result record as one JSON document
//! on stdout. `perfbench/run.py` builds this binary and turns the record
//! into the benchmark's result line.

use std::process::exit;

const USAGE: &str = "usage: perfbench --workload <name> --seed <u64> --seconds <f64> --trace <0|1>";

fn main() {
    // Pin the thread budget: every layer runs serial whatever the
    // environment says (the harness also passes explicit policies).
    std::env::remove_var("C4_THREADS");

    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => fail(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        fail("missing or malformed flag");
    };
    let Some(result) = c4_perfbench::run(&workload, seed, seconds, trace) else {
        fail(&format!(
            "unknown workload {workload} (expected one of {:?})",
            c4_perfbench::WORKLOADS
        ));
    };
    println!("{}", result.to_json());
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}\n{USAGE}");
    exit(2);
}
