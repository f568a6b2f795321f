//! A host-speed probe: a fixed piece of work, independent of the
//! simulator, whose time tracks how fast a shared host currently runs
//! allocation- and cache-bound code.
//!
//! A fleet soak is that kind of code and lasts about half a second, while
//! a shared host's speed drifts by up to 1.6× over seconds to minutes. A
//! probe taken right before each soak sees the state the soak runs in, so
//! `soak time × REFERENCE_S / probe time` — the soak's time at reference
//! host speed — varies far less between runs than the raw time. (Hybrid
//! iterations last seconds, longer than the states, so a point probe does
//! not track them; they are reported raw.)

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// Keys the probe inserts and looks up: a table of a few MiB, the size
/// range where a shared last-level cache decides the speed.
const KEYS: u64 = 100_000;

/// Probes per reading; the reading is their median.
const REPEATS: usize = 3;

/// The probe's time on the reference host (a 2-core x86 VM when the host
/// is quiet): normalised times are in seconds at that speed.
pub const REFERENCE_S: f64 = 0.005;

/// One probe: host seconds to fill and query a fixed hash table.
fn once() -> f64 {
    let t = Instant::now();
    let mut table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for k in 0..KEYS {
        table.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k);
    }
    let hits = (0..KEYS)
        .filter(|k| table.contains_key(&k.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .count();
    black_box(hits);
    t.elapsed().as_secs_f64()
}

/// A probe reading: the median of [`REPEATS`] probes, in host seconds.
pub fn reading() -> f64 {
    let mut v: Vec<f64> = (0..REPEATS).map(|_| once()).collect();
    v.sort_by(f64::total_cmp);
    v[REPEATS / 2]
}
