//! # scalpel-alloc — resource allocation
//!
//! The *inner*, convex half of the joint optimization. With surgery plans
//! fixed, every stream's latency on a shared resource has the hyperbolic
//! form `L(c) = a + e/c` in its share `c` — for edge compute (`e` = edge
//! seconds at full capacity) and for uplink bandwidth (`e` = transmission
//! seconds at full spectrum) alike. This crate solves those programs
//! exactly:
//!
//! * [`convex`] — the shared math over parallel columns: KKT
//!   water-filling for weighted-sum latency, deadline feasibility and
//!   slack-distributing deadline shares;
//! * [`compute_alloc`] / [`bandwidth_alloc`] — one column door each
//!   (`allocate_cols_into`, per server / per AP) with two policies:
//!   `Equal` and `DeadlineAware`;
//! * [`placement`] — stream→server assignment as a weighted congestion
//!   game with an exact potential, plus greedy and balanced baselines.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bandwidth_alloc;
pub mod compute_alloc;
pub mod convex;
pub mod placement;

pub use bandwidth_alloc::BandwidthCols;
pub use compute_alloc::ComputeCols;
pub use convex::{sanitize_shares, AllocScratch};
pub use placement::{PlacementStrategy, ServerLoadModel};
