//! Deterministic data parallelism over scoped threads.
//!
//! The simulation layers above (`c4_collectives`' per-stream route
//! assembly, C4P's batch selection, the fleet's jobs) decompose into
//! **independent** work items whose results are pure functions of their
//! inputs. [`ParallelPolicy`] says how many OS threads to spend on such a
//! decomposition and [`scoped_map`] executes it: items are split into
//! contiguous chunks, each chunk runs on one scoped thread
//! ([`std::thread::scope`], so no `'static` bounds and no extra
//! dependencies), and the per-item results are returned **in input order**.
//!
//! Because every item is computed by the same pure function and merged back
//! by position, the output is bit-identical at any thread count — the whole
//! point: callers opt into parallelism for wall-clock speed without giving
//! up the workspace's determinism guarantees. The `C4_THREADS` environment
//! variable (a number, or `max` for [`std::thread::available_parallelism`])
//! selects the default policy, which is how CI runs the entire test suite
//! serial and parallel and expects byte-for-byte identical outcomes.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// How many worker threads deterministic fan-out sections may use.
///
/// `threads == 1` means fully serial execution on the calling thread (no
/// spawns at all). The policy is plumbed through [`DrainConfig`]-style
/// configuration structs rather than read ambiently, so a single process
/// can mix serial and parallel solvers (e.g. a differential test pinning a
/// 4-thread state against a serial reference).
///
/// [`DrainConfig`]: ../c4_netsim/struct.DrainConfig.html
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelPolicy {
    /// Worker thread count (1 = serial).
    pub threads: NonZeroUsize,
}

impl ParallelPolicy {
    /// Fully serial execution (the reference behavior).
    pub const SERIAL: ParallelPolicy = ParallelPolicy {
        threads: NonZeroUsize::MIN,
    };

    /// A policy with exactly `threads` workers (0 is clamped to 1).
    pub fn with_threads(threads: usize) -> Self {
        ParallelPolicy {
            threads: NonZeroUsize::new(threads.max(1)).expect("clamped to >= 1"),
        }
    }

    /// One worker per available hardware thread.
    pub fn max() -> Self {
        ParallelPolicy {
            threads: std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// The policy selected by the `C4_THREADS` environment variable:
    /// a positive integer pins the count, `max` (or `0`) means
    /// [`ParallelPolicy::max`], anything else — including the variable
    /// being unset — means [`ParallelPolicy::SERIAL`]. The variable is read
    /// once per process.
    pub fn from_env() -> Self {
        static ENV: OnceLock<ParallelPolicy> = OnceLock::new();
        *ENV.get_or_init(|| match std::env::var("C4_THREADS") {
            Ok(v) if v.eq_ignore_ascii_case("max") => ParallelPolicy::max(),
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(0) => ParallelPolicy::max(),
                Ok(n) => ParallelPolicy::with_threads(n),
                Err(_) => ParallelPolicy::SERIAL,
            },
            Err(_) => ParallelPolicy::SERIAL,
        })
    }

    /// Worker count as a plain `usize`.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// True when this policy never spawns.
    pub fn is_serial(&self) -> bool {
        self.threads.get() == 1
    }
}

/// The default policy honors `C4_THREADS` (serial when unset), so every
/// config struct embedding a policy picks the CI matrix dimension up
/// automatically.
impl Default for ParallelPolicy {
    fn default() -> Self {
        ParallelPolicy::from_env()
    }
}

/// Maps `f` over `items`, possibly on several scoped threads, returning the
/// results **in input order**.
///
/// `f` must be a pure function of its item (plus captured shared state —
/// captures are only borrowed immutably): the contract is that the returned
/// vector is bit-identical for every `policy`, which holds because each
/// item is computed exactly once by the same code and merged by position.
/// Work is split into at most `policy.threads()` contiguous chunks; with a
/// serial policy (or fewer than two items) everything runs inline on the
/// caller's thread and nothing is spawned.
pub fn scoped_map<T, R, F>(policy: ParallelPolicy, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = policy.threads().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    // Contiguous chunks, sized so the first `rem` chunks get one extra item.
    let base = items.len() / workers;
    let rem = items.len() % workers;
    let mut chunks: Vec<&[T]> = Vec::with_capacity(workers);
    let mut start = 0usize;
    for w in 0..workers {
        let len = base + usize::from(w < rem);
        chunks.push(&items[start..start + len]);
        start += len;
    }

    let f = &f;
    let mut out: Vec<Vec<R>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<R>>()))
            .collect();
        for h in handles {
            out.push(h.join().expect("scoped_map worker panicked"));
        }
    });
    out.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let items: Vec<u64> = (0..1000).collect();
        let f = |&x: &u64| x * x + 1;
        let serial = scoped_map(ParallelPolicy::SERIAL, &items, f);
        for threads in [2, 3, 4, 7, 16, 1000, 2000] {
            let par = scoped_map(ParallelPolicy::with_threads(threads), &items, f);
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn float_results_are_bit_identical() {
        // The guarantee the max-min solver relies on: merging by position
        // preserves every bit, not just approximate value.
        let items: Vec<f64> = (0..257).map(|i| 0.1 + i as f64 * 0.3).collect();
        let f = |&x: &f64| (x.sin() * 1e9).sqrt() / (x + 1.0);
        let serial = scoped_map(ParallelPolicy::SERIAL, &items, f);
        let par = scoped_map(ParallelPolicy::with_threads(4), &items, f);
        let a: Vec<u64> = serial.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = par.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_single_item_never_spawn() {
        let none: Vec<u32> = Vec::new();
        assert!(scoped_map(ParallelPolicy::with_threads(8), &none, |&x| x).is_empty());
        let one = [41u32];
        assert_eq!(
            scoped_map(ParallelPolicy::with_threads(8), &one, |&x| x + 1),
            vec![42]
        );
    }

    #[test]
    fn policy_constructors_clamp() {
        assert_eq!(ParallelPolicy::with_threads(0).threads(), 1);
        assert!(ParallelPolicy::SERIAL.is_serial());
        assert!(!ParallelPolicy::with_threads(2).is_serial());
        assert!(ParallelPolicy::max().threads() >= 1);
    }

    #[test]
    fn workers_never_exceed_items() {
        // 3 items across "8 threads" must still produce all 3, in order.
        let items = [10u8, 20, 30];
        assert_eq!(
            scoped_map(ParallelPolicy::with_threads(8), &items, |&x| x / 10),
            vec![1, 2, 3]
        );
    }
}
