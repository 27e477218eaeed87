//! # scalpel-sim — heterogeneous edge, simulated
//!
//! A deterministic discrete-event simulator standing in for the paper's
//! physical testbed (DESIGN.md §3): end devices with FIFO compute, shared
//! wireless uplinks with path-loss + Rayleigh fading, and edge servers doing
//! weighted processor sharing over the streams assigned to them.
//!
//! The simulator executes *compiled streams* ([`task::CompiledStream`]):
//! `scalpel-core` lowers a surgery plan + resource allocation into plain
//! numbers (device time to each exit, bytes on the wire, edge FLOPs,
//! per-exit accuracy), and this crate measures what actually happens —
//! queueing, contention, fading, deadline misses — under a seeded PCG
//! stream so every run is reproducible.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod churn;
pub mod cluster;
pub mod engine;
pub mod error;
pub mod faults;
pub mod metrics;
pub mod net;
pub mod recovery;
pub mod reference;
pub mod rng;
pub mod sim;
pub mod task;
pub mod time;
pub mod tracelog;
pub mod workload;

pub use churn::{ChurnEvent, ChurnKind, ChurnParseError, ChurnProfile, ChurnTrace};
pub use cluster::{ApSpec, Cluster, DeviceSpec, ServerSpec};
pub use engine::{EventKey, EventQueue};
pub use error::SimError;
pub use faults::{
    validate_fault_plan, CorrelatedProfile, DomainKind, FailureDomain, FaultClass, FaultEvent,
    FaultKind, FaultPlan, FaultProfile,
};
pub use metrics::{
    FaultClassStats, FaultMetrics, LatencyStats, RecoveryMetrics, SimReport, StreamStats,
};
pub use net::{CachedLink, LinkCols, LinkModel};
pub use recovery::{BreakerConfig, BreakerState, CircuitBreaker, HealthSnapshot, RecoveryConfig};
pub use reference::{run_reference, run_reference_logged};
pub use rng::SimRng;
pub use scalpel_surgery::{DegradeLadder, DegradeRung};
pub use sim::{EdgeSim, SimConfig, SimScratch};
pub use task::{CompiledStream, StreamId};
pub use time::SimTime;
pub use tracelog::{FaultRecord, RunTrace, TaskRecord};
pub use workload::ArrivalProcess;
