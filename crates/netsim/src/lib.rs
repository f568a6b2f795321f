//! # c4-netsim
//!
//! Flow-level (fluid) network simulator for the C4 reproduction.
//!
//! The paper's communication phenomena — traffic collision on leaf→spine
//! uplinks, dual-port receive imbalance, down-link rerouting, DCQCN/CNP rate
//! fluctuation — are all *bandwidth-sharing* effects over long-lived elephant
//! flows (§II-D: "parallel training tasks involve a small number of data
//! flows but transmit large volumes of data"). A fluid model therefore
//! captures them faithfully:
//!
//! * every flow has a byte demand and a route (a list of directed
//!   [`c4_topology::LinkId`]s);
//! * link bandwidth is shared **max-min fairly** ([`maxmin::solve`]);
//! * a drain loop ([`drain()`](drain::drain)) advances virtual time between flow
//!   completions. With DCQCN-style noise on, it also stops at the instants
//!   of a fixed epoch grid, where every active flow redraws its throttle
//!   factor (applied while the flow is congested) and its CNP jitter; CNPs
//!   are accounted per sender port ([`congestion`]). The [`drain`](mod@drain) module
//!   docs state the model.
//!
//! Path selection is abstracted behind [`PathSelector`] so the ECMP baseline
//! ([`EcmpSelector`]) and C4P's engineered selector (crate `c4-traffic`) plug
//! into the same collective layer.
//!
//! ## The incremental max-min solver
//!
//! LLM-training traffic is repetitive: within one drain, successive
//! re-solve points differ by a handful of flow completions, never by a
//! wholesale rewrite of the problem. The drain
//! loop therefore keeps a persistent [`MaxMinState`] per run instead of
//! calling the from-scratch solver at every event. Its invariants:
//!
//! * **Built once, then removals only.** The state is constructed once
//!   with every flow of the drain ([`MaxMinState::with_flows`]; the drain
//!   builds its dense routes straight into the state's CSR route table,
//!   which is then the drain's only route table), and its first refresh
//!   runs the event-driven water-filling kernel over every live flow,
//!   recording each link's bottleneck level (the water level at which it
//!   saturated). The drain feeds the state completions only
//!   ([`MaxMinState::remove_flow`]), and that is the whole mutation API:
//!   noise throttles apply on top of the base allocation, and link faults
//!   are in the topology before a drain starts.
//! * **Bottleneck-level worklist.** A removal dirties its links. The next
//!   refresh re-fills each dirty link from its subscribers' demands (the
//!   lowest level on each subscriber's other links) and commits a level
//!   that moved by more than 1e-12 relative, on every link alike; a commit
//!   re-rates the subscribers whose route minimum moved and dirties their
//!   other links. The work per completion follows the levels that moved,
//!   not the size of the spine-connected component the flow sat in.
//! * **An event pays only for the links whose level can move.** Two O(1)
//!   skip tests prove that a dirty link's fill would commit nothing: a
//!   per-link tally of the subscribers' demands shows that a link with
//!   slack keeps it, and a level-crossing threshold shows that the link's
//!   last real fill still holds (no subscriber left, and every demand that
//!   moved stayed strictly above the threshold). The tests are
//!   re-evaluated whenever their inputs move, so a round sorts and visits
//!   only the dirty links that failed one. A link dirty for the current
//!   round that fails before its turn joins that round at its ascending
//!   position, so the rounds and commits are exactly those of the unskipped
//!   worklist. A commit rescans only the subscribers whose two smallest
//!   levels it can reach.
//! * **Convergence backstop.** A worklist still dirty after 64 rounds
//!   gives up, and the state re-seeds with one exact solve.
//! * **One changed-flow feed.** After each refresh,
//!   [`MaxMinState::changed_flows`] lists the flows whose rates moved:
//!   every live flow after a seed solve, the re-rated and removed flows
//!   after a propagation. The drain engine applies exactly those flows'
//!   rate deltas to its link loads and completion heap, on one path for
//!   the first seed, every propagation and the fallback re-seed alike.
//!   Congestion scores come from one flag per link
//!   ([`CnpModel::link_congested`]) and a per-flow count of congested
//!   links, re-tested only on the links whose load moved.
//! * **One serial solve path.** Seed solves run through a scratch arena
//!   the state owns, cleared and reused by a fallback re-seed. The drain
//!   never reads a thread budget, so its results cannot depend on one.
//! * **A seed solve can be kept across drains.** A drain's first
//!   allocation depends only on its routes, their link capacities and
//!   which flows have zero bytes, never on bytes, noise or times.
//!   [`drain_seeded`] keeps its seed solve (per-flow rates, per-link
//!   levels, the arena's high-water mark) in a [`SeedSolve`] and restores a
//!   handed-in one instead of running the kernel; the state
//!   then builds its subscriber lists, route minima and slack tallies from
//!   it by the usual linear passes. The caller vouches that the problem is
//!   the same (`c4_collectives::PlanCache` does, by exact stamps); debug
//!   builds run the kernel anyway and assert bit-identity. The report,
//!   its solver counters and `arena_hwm_bytes` included, is the one the
//!   kernel would have given.
//! * **Reference agreement.** The state's allocation matches the textbook
//!   progressive-filling loop retained in [`maxmin::solve`] within 1e-9
//!   relative — enforced continuously by `tests/maxmin_differential.rs`,
//!   which also holds the incremental [`drain()`](drain::drain) to the
//!   retained [`drain_reference()`](drain::drain_reference) across
//!   randomized topologies, faults, noise epochs and deadlines, up to a
//!   16k-GPU railed fabric.
//!
//! Every [`DrainReport`] carries a [`DrainSolverStats`] with per-run solver
//! counters (events, seed solves and worklist propagations, batched
//! completion instants, scratch arena high-water mark), surfaced as a
//! column in the `c4-bench-v1` JSON.

pub mod congestion;
pub mod drain;
pub mod flow;
pub mod hash;
pub mod maxmin;
pub mod selector;

pub use congestion::CnpModel;
pub use drain::{drain, drain_reference, drain_seeded, DrainConfig, DrainReport, DrainSolverStats};
pub use flow::{FlowKey, FlowOutcome, FlowSpec};
pub use hash::mix64;
pub use maxmin::{MaxMinState, SeedSolve};
pub use selector::{EcmpSelector, PathChoice, PathSelector, RailLocalSelector};
