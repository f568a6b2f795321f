//! # c4-traffic (C4P)
//!
//! Cluster-scale traffic engineering — the paper's second contribution
//! (§III-B).
//!
//! C4P works because AI-cluster traffic is a small number of long-lived
//! elephant flows whose paths are steerable via the RDMA source port. The
//! master:
//!
//! 1. **probes** the leaf↔spine fabric and eliminates faulty links from the
//!    allocation pool at job start-up ([`probe::PathCatalog`]);
//! 2. **allocates** every QP's path at connection time, keeping the two
//!    bonded physical ports of each NIC balanced on *both* ends (left↔left,
//!    right↔right only) and spreading flows from servers under one leaf
//!    across all spines ([`master::C4pMaster`] + [`ledger::PathLoadLedger`]);
//! 3. **adapts** when the network changes: on a down-link it reallocates the
//!    orphaned QPs evenly over surviving paths, and ACCL continuously
//!    re-splits each stream's bytes across its QPs in proportion to their
//!    observed rates, so the fastest path carries the most traffic
//!    (Fig 12/13).
//!
//! The master implements [`c4_netsim::PathSelector`], so the collective
//! engine can run with the ECMP baseline or C4P interchangeably.

pub mod ledger;
pub mod master;
pub mod probe;

pub use ledger::PathLoadLedger;
pub use master::{C4pConfig, C4pMaster};
pub use probe::PathCatalog;
