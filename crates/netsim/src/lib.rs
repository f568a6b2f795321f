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
//! * **Component separability.** Max-min fairness decomposes exactly over
//!   connected components of the flow–link sharing graph (two flows are
//!   connected when they share a link, transitively): a flow's final rate
//!   depends only on its component. The state partitions flows once per
//!   full solve and re-waterfills only components containing a change. The
//!   drain feeds it completions only ([`MaxMinState::remove_flow`]), and
//!   that is the whole mutation API: noise throttles apply on top of the
//!   base allocation, and link faults are in the topology before a drain
//!   starts.
//! * **Conservative partitions.** Removing a flow may split its component;
//!   the split is only discovered when that component is next
//!   re-partitioned. Until then the state re-solves the (superset) stale
//!   component — more work than strictly needed, never a wrong answer.
//!   Adding a flow marks the whole partition stale.
//! * **Re-partition on dead mass.** Once a component's removed flows reach
//!   its survivors, its next re-solve re-partitions it in place —
//!   dropping dead flows from its tables and splitting the pieces
//!   removals disconnected (amortized O(1) per removal).
//!   Allocations are independent of partition granularity, so only wall
//!   clock moves.
//! * **Dirty-component feed.** [`MaxMinState::refresh`] reports what each
//!   lazy solve touched ([`SolveScope`]: nothing, a component list, or a
//!   full re-partition), so the drain engine maintains its link loads,
//!   congestion scores and completion heap incrementally for exactly the
//!   flows whose rates may have changed.
//! * **One serial solve path.** Dirty components re-solve one by one
//!   through a single reused scratch arena, so the drain stops allocating
//!   once the largest component has been seen. The drain never reads a
//!   thread budget, so its results cannot depend on one.
//! * **Reference agreement.** The state's event-driven kernel (water level
//!   jumping between link-saturation events on a lazy min-heap) produces the
//!   same allocation as the textbook progressive-filling loop retained in
//!   [`maxmin::solve`], within 1e-9 relative — enforced continuously by
//!   `tests/maxmin_differential.rs`, which also holds the incremental
//!   [`drain()`](drain::drain) to the retained
//!   [`drain_reference()`](drain::drain_reference) across randomized
//!   topologies, faults, noise epochs and deadlines.
//!
//! * **Opt-in two-tier spine solve.** At cluster scale the spine keeps
//!   every concurrent job in one connected component, so exact component
//!   re-solves still touch O(live flows) per completion.
//!   [`SolveMode::TwoTier`] solves pod-local subproblems exactly and
//!   couples them across the spine tier through per-link advertised
//!   levels, committing a spine level only when it moves by more than a
//!   fraction of the configured ε — re-solve work becomes proportional to
//!   the completion's blast radius instead of the component size, with the
//!   max relative rate error bounded by ε (pinned by differential
//!   proptest). The default [`SolveMode::Exact`] is bit-identical to the
//!   historical solver.
//!
//! Every [`DrainReport`] carries a
//! [`DrainSolverStats`] with per-run solver
//! counters (events, solves per tier, batched completion instants, scratch
//! arena high-water mark), surfaced as a column in the `c4-bench-v1` JSON.

pub mod congestion;
pub mod drain;
pub mod flow;
pub mod hash;
pub mod maxmin;
pub mod selector;

pub use congestion::CnpModel;
pub use drain::{drain, drain_reference, DrainConfig, DrainReport, DrainSolverStats};
pub use flow::{FlowKey, FlowOutcome, FlowSpec};
pub use hash::mix64;
pub use maxmin::{MaxMinState, SolveMode, SolveScope};
pub use selector::{EcmpSelector, PathChoice, PathSelector, RailLocalSelector};
