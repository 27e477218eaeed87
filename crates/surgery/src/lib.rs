//! # scalpel-surgery — model surgery
//!
//! Restructures a backbone DNN for one stream of a heterogeneous edge
//! system:
//!
//! * [`plan`] — the [`SurgeryPlan`] type: a cut boundary, a set of early
//!   exits with thresholds, and a structured-pruning level;
//! * [`pruning`] — the pruning levels and their compute/accuracy trades;
//! * [`partition`] — cut-point candidate selection (downsampling dense cut
//!   lists to a manageable, well-spread set);
//! * `exit_setting` (crate-private, run by [`candidates`]) — the
//!   exit-setting dynamic program (LEIME-style): pick ≤E exit hosts and a
//!   threshold minimizing expected latency subject to an accuracy floor;
//! * [`pareto`] — dominated-plan elimination;
//! * [`degrade`] — runtime graceful-degradation ladders (forced exits,
//!   local finish) implied by an offloaded plan;
//! * [`candidates`] — the full candidate-generation pipeline producing the
//!   per-stream plan menus the joint optimizer searches over.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod candidates;
pub mod degrade;
mod exit_setting;
pub mod pareto;
pub mod partition;
pub mod plan;
pub mod pruning;

pub use candidates::{CandidatePlan, PlanProfile, ReferenceEnv};
pub use degrade::{ladder_for_plan, DegradeLadder, DegradeRung, FORCED_EXIT_ACC_COST};
pub use pareto::pareto_filter;
pub use plan::SurgeryPlan;
pub use pruning::PruneLevel;
