//! # scalpel-core — the joint optimizer
//!
//! Ties the substrates together into the paper's contribution: **joint**
//! optimization of model surgery (which cut, which exits, how much pruning
//! — per stream) and resource allocation (which server, what compute share,
//! what spectrum share) for latency-sensitive DNN inference in a
//! heterogeneous edge.
//!
//! * [`problem`] — the joint problem instance (topology + streams + knobs);
//! * [`config`] — scenario generation with the evaluation's default
//!   parameters (Table 2) and every sweep axis;
//! * [`evaluator`] — fast analytic pricing of a configuration (utilization-
//!   corrected expected latency), used inside the search loop;
//! * [`compiler`] — lowering a solution to `scalpel_sim::CompiledStream`s;
//! * [`optimizer`] — coordinate descent and Gibbs-sampling searches over
//!   the per-stream plan menus, with exact inner allocation, plus an
//!   exhaustive reference for small instances;
//! * [`baselines`] — DeviceOnly / EdgeOnly / Neurosurgeon / FixedExit /
//!   SurgeryOnly / AllocOnly / Joint;
//! * [`runner`] — executes solutions in the discrete-event simulator
//!   (multi-seed, rayon-parallel);
//! * [`shard`] — fleet-scale replans: polish a warm start with budgeted
//!   descent over the whole fleet (cold solves are `solve_with_budget`),
//!   plus the AP/server partition rule;
//! * [`service`] — the long-lived planning service: churn-driven
//!   replanning behind a switching-hysteresis governor, with
//!   checkpoint/restore and a degraded-mode ladder.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod baselines;
pub mod compiler;
pub mod config;
pub mod distributed;
pub mod diversity;
pub mod eval_context;
pub mod evaluator;
pub mod online;
pub mod optimizer;
pub mod problem;
pub mod runner;
pub mod service;
pub mod shard;
pub mod validate;

pub use baselines::{solve_with, Method};
pub use compiler::{compile, compile_with, CompileOptions};
pub use config::{ScenarioConfig, ServerMix};
pub use diversity::{DiversityConfig, NO_DOMAIN};
pub use eval_context::{DeltaScratch, EvalContext};
pub use evaluator::{EvalResult, Evaluator};
pub use online::OnlineController;
pub use optimizer::{
    Budget, BudgetSpent, EvalMode, OptimizerConfig, SearchTrace, Solution, SolveOutcome,
};
pub use problem::{JointProblem, StreamSpec};
pub use runner::{run_solution_seeds, MethodOutcome};
pub use service::{
    FleetState, GovernorConfig, GovernorDecision, PlanDelta, PlanningService, ServiceConfig,
    ServiceStatus, SwitchGovernor, TickOutcome,
};
pub use shard::{partition, Shard, ShardConfig, ShardPlan, ShardedOutcome};
pub use validate::{validate_diversity, ProblemError};
