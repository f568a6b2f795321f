//! # c4-collectives
//!
//! ACCL-style collective communication simulator: communicators, ring/tree
//! transfer plans, per-QP connections with pluggable path selection, bus
//! bandwidth accounting identical to `nccl-tests`, and telemetry emission
//! into `c4-telemetry` stores.
//!
//! ## The rail-symmetric ring model
//!
//! The paper's testbed reports collective throughput as *bus bandwidth*
//! with a network ideal of ≈360 Gbps (one bonded NIC's worth) and an NVLink
//! cap of 362 Gbps (§IV-B2). Both numbers are *per-rail*: in a
//! rail-optimized fat-tree, NCCL/ACCL construct interleaved rings such that
//! every GPU performs its own inter-node transfer, so the full pipelined
//! stream of `B = S·2(R−1)/R` bytes crosses **every rail of every node
//! boundary**, and each intra-node NVLink hop likewise carries `B`.
//!
//! This crate adopts that invariant directly. A collective over `R` ranks
//! produces:
//!
//! * one intra-node NVLink flow of `B` bytes per adjacent participating GPU
//!   pair per node (yielding the 362 Gbps cap), and
//! * per cyclic node boundary and per participating rail, a stream of `B`
//!   bytes subdivided into `Q` RDMA QP flows whose ports and spine paths are
//!   chosen by a [`PathSelector`] (the ECMP baseline or C4P).
//!
//! Completion is BSP: the collective finishes when its slowest flow drains,
//! and `busbw = B / T` — which reproduces, in one formula, the NVLink cap,
//! the dual-port imbalance of Fig 9, and the inter-job collisions of Fig 10.

pub mod alltoall;
pub mod comm;
pub mod engine;
mod memo;
pub mod plan;
pub mod result;

pub use alltoall::{channel_pair, pair_channel, AllToAllPlan, EpSkew, PairEdge};
pub use comm::{CommConfig, Communicator};
pub use engine::{
    run_collective, run_concurrent, run_concurrent_cached, run_tree_collective, CollectiveRequest,
    PlanCache, QpWeightFn,
};
pub use plan::{bus_factor, BoundaryStream, RingPlan, TreePlan};
pub use result::CollectiveResult;

pub use c4_netsim::{EcmpSelector, PathChoice, PathSelector, RailLocalSelector};
pub use c4_telemetry::{AlgoKind, CollKind, DataType};
