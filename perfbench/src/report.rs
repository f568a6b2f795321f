//! The harness's result record: named metrics with units, the output-check
//! tally behind `failed`/`attempted`, and the simulated results with their
//! digest.

use c4::prelude::{mix64, JsonValue};

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json` / `METRICS.md`.
    pub name: &'static str,
    /// The value, with all its digits.
    pub value: f64,
    /// Unit (`s`, `ms`, `MB`, `count`, …).
    pub unit: &'static str,
    /// True for seed-determined work counts, which repeat exactly across
    /// same-seed runs; false for host-time and memory readings.
    pub deterministic: bool,
}

/// Everything one harness run produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Benchmark seed.
    pub seed: u64,
    /// True for the per-layer (traced) run.
    pub trace: bool,
    /// Thread budget every layer ran under.
    pub threads: usize,
    /// Operations attempted (hybrid phases, fleet soaks).
    pub attempted: u64,
    /// One line per failed operation or failed harness check.
    pub failures: Vec<String>,
    /// Operations that failed (a failed harness check is not an operation
    /// and only lands in `failures`).
    pub failed: u64,
    /// Measured metrics.
    pub metrics: Vec<Metric>,
    /// The samples behind each median, in measurement order.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Simulated (not host-time) results: printed, never gated.
    pub simulated: Vec<(&'static str, f64)>,
    /// Digest over the bit patterns of the seed-determined simulated
    /// results, so a model change shows in the log.
    pub digest: u64,
}

impl RunResult {
    /// Appends a host-time or memory metric.
    pub fn wall(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            deterministic: false,
        });
    }

    /// Appends the median of a host-time sample, keeping the sample.
    pub fn median_of(&mut self, name: &'static str, values: Vec<f64>, unit: &'static str) {
        self.wall(name, median(&values), unit);
        self.samples.push((name, values));
    }

    /// Appends a seed-determined count.
    pub fn count(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            deterministic: true,
        });
    }

    /// The value of a metric, if recorded.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Records a failed output check.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Records the process's peak memory; called last, so it covers the
    /// whole run.
    pub fn finish(&mut self) {
        match peak_rss_mb() {
            Some(mb) => self.wall("peak_rss_mb", mb, "MB"),
            None => self.fail("peak RSS unreadable (/proc/self/status)".into()),
        }
    }

    /// True when every operation passed and no harness check failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The record as one JSON document (read by `run.py` and `diff.py`).
    pub fn to_json(&self) -> JsonValue {
        let mut metrics = JsonValue::object();
        for m in &self.metrics {
            let mut v = JsonValue::object();
            v.push("value", m.value)
                .push("unit", m.unit)
                .push("deterministic", m.deterministic);
            metrics.push(m.name, v);
        }
        let mut samples = JsonValue::object();
        for (name, values) in &self.samples {
            let values = values.iter().map(|&v| JsonValue::from(v)).collect();
            samples.push(*name, JsonValue::Array(values));
        }
        let mut simulated = JsonValue::object();
        for &(name, v) in &self.simulated {
            simulated.push(name, v);
        }
        let mut doc = JsonValue::object();
        doc.push("workload", self.workload.as_str())
            .push("seed", self.seed)
            .push("trace", self.trace)
            .push("threads", self.threads)
            .push("correct", self.correct())
            .push("attempted", self.attempted)
            .push("failed", self.failed)
            .push(
                "failures",
                JsonValue::Array(
                    self.failures
                        .iter()
                        .map(|f| JsonValue::from(f.as_str()))
                        .collect(),
                ),
            )
            .push("metrics", metrics)
            .push("samples", samples)
            .push("simulated", simulated)
            .push("digest", format!("{:016x}", self.digest));
        doc
    }
}

/// Folds values into a digest by their exact bit patterns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Digest(u64);

impl Digest {
    /// Mixes one value in.
    pub fn add(&mut self, v: f64) {
        self.0 = mix64(self.0 ^ v.to_bits()).rotate_left(7);
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Median of a sample (mean of the middle pair for even counts); `NaN`
/// for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MiB, from `VmHWM` in
/// `/proc/self/status` (Linux); `None` where that file is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.add(1.0);
        b.add(f64::from_bits(1.0f64.to_bits() + 1));
        assert_ne!(a.value(), b.value());
    }
}
