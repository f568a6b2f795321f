//! # c4-simcore
//!
//! Deterministic simulation primitives underpinning the C4 reproduction.
//!
//! The C4 paper evaluates its two subsystems (C4D fault diagnosis and C4P
//! traffic engineering) on a physical GPU cluster. This workspace replaces the
//! physical substrate with simulation; every layer above (topology, network,
//! collectives, training jobs) is built on the primitives defined here:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! * [`DetRng`] — a seeded random source with the distributions the fault and
//!   congestion models need (exponential, log-normal, Poisson).
//! * [`ParallelPolicy`] / [`scoped_map`] — deterministic scoped-thread
//!   fan-out for the layers whose work decomposes into independent items
//!   (per-stream route assembly, C4P batch selection, fleet jobs); results
//!   are bit-identical at any thread count.
//! * [`UnionFind`] — the partitioner behind C4P's batch selection.
//! * [`FastMap`] — a `HashMap` keyed by the deterministic
//!   [`Mix64Hasher`](fasthash::Mix64Hasher) instead of SipHash, for the
//!   per-flow, per-connection and per-iteration tables of C4P, telemetry,
//!   streaming C4D and the plan cache.
//! * [`JsonValue`] — a tiny JSON tree (build/print/parse) so the bench
//!   binaries emit machine-readable `BENCH_*.json` files without a
//!   networked `serde_json`.
//! * [`Bandwidth`] / [`ByteSize`] — unit newtypes for rates and sizes.
//!
//! # Example
//!
//! ```
//! use c4_simcore::{scoped_map, DetRng, ParallelPolicy};
//!
//! // One RNG stream per item, derived from a root seed: the fan-out
//! // returns the same values, in item order, at any thread count.
//! let draw = |&i: &u64| DetRng::seed_from(42 ^ i).uniform();
//! let items: Vec<u64> = (0..8).collect();
//! let serial = scoped_map(ParallelPolicy::SERIAL, &items, draw);
//! let threaded = scoped_map(ParallelPolicy::with_threads(2), &items, draw);
//! assert_eq!(serial, threaded);
//! ```

pub mod fasthash;
pub mod json;
pub mod parallel;
pub mod rng;
pub mod time;
pub mod unionfind;
pub mod units;

pub use fasthash::FastMap;
pub use json::JsonValue;
pub use parallel::{scoped_map, ParallelPolicy};
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
pub use unionfind::UnionFind;
pub use units::{Bandwidth, ByteSize};
