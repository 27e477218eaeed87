//! Per-request and per-fault trace records (optional run output).
//!
//! [`crate::EdgeSim::run_logged`] returns, besides the aggregate report,
//! a [`RunTrace`]: one [`TaskRecord`] per measured completion with its
//! full timing decomposition — the raw material for debugging,
//! latency-breakdown plots, and the cross-stage invariant tests — plus
//! one [`FaultRecord`] per executed fault event.

use crate::faults::FaultKind;
use crate::recovery::HealthSnapshot;
use serde::{Deserialize, Serialize};

/// Timing decomposition of one completed request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskRecord {
    /// Stream the request belongs to.
    pub stream: usize,
    /// Absolute arrival time, seconds.
    pub arrival_s: f64,
    /// Seconds queued before device compute started.
    pub device_wait_s: f64,
    /// Device compute service seconds.
    pub device_service_s: f64,
    /// Uplink transmission seconds (0 for on-device completions; excludes
    /// uplink queueing).
    pub tx_s: f64,
    /// Edge residence seconds (time from entering the server to finishing,
    /// including processor-sharing slowdown; 0 for on-device completions).
    pub edge_s: f64,
    /// End-to-end seconds.
    pub latency_s: f64,
    /// Device-side exit taken, if any.
    pub exit: Option<usize>,
}

impl TaskRecord {
    /// Sum of the measured stage components. Always ≤ `latency_s` (uplink
    /// queueing is the only stage not individually tracked); equals it
    /// exactly for requests that never touch the network.
    pub fn component_sum_s(&self) -> f64 {
        self.device_wait_s + self.device_service_s + self.tx_s + self.edge_s
    }
}

/// One executed fault event, as seen by the simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// Execution time, seconds.
    pub at_s: f64,
    /// The injected state change.
    pub kind: FaultKind,
    /// Whether the event changed simulator state (false for redundant
    /// events, e.g. downing an already-down device).
    pub applied: bool,
    /// Measured requests stranded by this event.
    pub stranded: usize,
}

/// Full event log of one run: per-completion timing records plus the
/// executed fault schedule.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunTrace {
    /// One record per measured completion, in completion order.
    pub tasks: Vec<TaskRecord>,
    /// One record per executed fault event, in execution order.
    pub faults: Vec<FaultRecord>,
    /// One control-plane telemetry snapshot per recovery epoch (empty
    /// unless recovery telemetry is enabled) — what the fault detector
    /// consumes to trigger re-solves.
    #[serde(default)]
    pub health: Vec<HealthSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_sum_and_on_device() {
        let r = TaskRecord {
            stream: 0,
            arrival_s: 1.0,
            device_wait_s: 0.01,
            device_service_s: 0.02,
            tx_s: 0.0,
            edge_s: 0.0,
            latency_s: 0.03,
            exit: Some(0),
        };
        assert!((r.component_sum_s() - 0.03).abs() < 1e-12);
    }
}
