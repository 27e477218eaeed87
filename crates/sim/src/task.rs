//! Compiled streams — the simulator's execution contract.
//!
//! `scalpel-core` lowers (surgery plan × resource allocation × topology)
//! into a [`CompiledStream`] of plain numbers. Keeping the simulator blind
//! to *how* the plan was chosen means every optimizer and baseline is
//! measured by exactly the same machinery.

use crate::time::SimTime;
use crate::workload::ArrivalProcess;
use scalpel_models::ExitBehavior;
use scalpel_surgery::DegradeLadder;
use serde::{Deserialize, Serialize};

/// Stream index.
pub type StreamId = usize;

/// Everything the simulator needs to execute one inference stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompiledStream {
    /// Stream index (== position in the simulator's stream table).
    pub id: StreamId,
    /// Device the stream's requests originate on.
    pub device: usize,
    /// Edge server running the suffix; `None` for device-only plans.
    pub server: Option<usize>,
    /// Request arrival process.
    pub arrivals: ArrivalProcess,
    /// Relative deadline per request, seconds.
    pub deadline_s: f64,
    /// Device compute seconds for a request leaving at exit `i`
    /// (backbone prefix through the host + heads 0..=i), ascending.
    pub device_time_to_exit: Vec<f64>,
    /// Device compute seconds when no device exit fires (full prefix +
    /// every device-side head). For device-only plans this is the whole
    /// model.
    pub device_full_time: f64,
    /// Bytes transmitted to the edge when no device exit fires.
    pub tx_bytes: f64,
    /// Edge-side FLOPs when no device exit fires.
    pub edge_flops: f64,
    /// Exit behavior restricted to device-side exits.
    pub behavior: ExitBehavior,
    /// Conditional accuracy of each device-side exit.
    pub acc_at_exit: Vec<f64>,
    /// Accuracy of the full path (through the edge suffix).
    pub acc_full: f64,
    /// Fraction of the AP's spectrum allocated to this stream's device.
    pub bandwidth_share: f64,
    /// Weighted-PS weight on the server (relative share of capacity).
    pub compute_weight: f64,
    /// Degraded completion modes available when the offload path is
    /// unusable (empty = requests strand instead; always empty for
    /// device-only plans). Only consulted when recovery is enabled.
    #[serde(default)]
    pub degrade: DegradeLadder,
    /// Alternative servers for hedged re-offload when the primary's
    /// breaker is open, in preference order. Only consulted when recovery
    /// hedging is enabled.
    #[serde(default)]
    pub fallback_servers: Vec<usize>,
}

impl CompiledStream {
    /// Sanity-check internal consistency. Called by the simulator at
    /// start-up so mis-compiled plans fail loudly rather than distort
    /// results.
    pub fn validate(&self) -> Result<(), String> {
        if self.deadline_s <= 0.0 {
            return Err(format!("stream {}: non-positive deadline", self.id));
        }
        if self.device_time_to_exit.len() != self.behavior.exit_probs.len() {
            return Err(format!(
                "stream {}: {} exit times vs {} exit probs",
                self.id,
                self.device_time_to_exit.len(),
                self.behavior.exit_probs.len()
            ));
        }
        if self.acc_at_exit.len() != self.behavior.exit_probs.len() {
            return Err(format!("stream {}: accuracy/exit arity mismatch", self.id));
        }
        let mut prev = 0.0;
        for (i, &t) in self.device_time_to_exit.iter().enumerate() {
            if t < prev {
                return Err(format!("stream {}: exit time {i} not ascending", self.id));
            }
            prev = t;
        }
        if self.device_full_time + 1e-12 < prev {
            return Err(format!(
                "stream {}: full device time below last exit time",
                self.id
            ));
        }
        if self.server.is_some() {
            if !(0.0..=1.0 + 1e-9).contains(&self.bandwidth_share) || self.bandwidth_share <= 0.0 {
                return Err(format!(
                    "stream {}: bandwidth share {} outside (0,1]",
                    self.id, self.bandwidth_share
                ));
            }
            if self.compute_weight <= 0.0 {
                return Err(format!("stream {}: non-positive compute weight", self.id));
            }
            if self.tx_bytes < 0.0 || self.edge_flops < 0.0 {
                return Err(format!("stream {}: negative edge demand", self.id));
            }
        }
        self.degrade
            .validate()
            .map_err(|e| format!("stream {}: degrade ladder: {e}", self.id))?;
        for r in &self.degrade.rungs {
            if let Some(i) = r.exit {
                if i >= self.acc_at_exit.len() {
                    return Err(format!(
                        "stream {}: degrade rung forces missing exit {i}",
                        self.id
                    ));
                }
            }
        }
        if self.server.is_none() && (!self.degrade.is_empty() || !self.fallback_servers.is_empty())
        {
            return Err(format!(
                "stream {}: device-only plans carry no recovery options",
                self.id
            ));
        }
        Ok(())
    }

    /// Probability a request completes on the device (early exit).
    #[cfg(test)]
    fn device_exit_prob(&self) -> f64 {
        if self.server.is_none() {
            1.0
        } else {
            1.0 - self.behavior.remain_prob
        }
    }
}

/// One in-flight request.
#[derive(Debug, Clone, Copy)]
pub struct RunTask {
    /// Stream this request belongs to.
    pub stream: StreamId,
    /// Arrival timestamp.
    pub arrival: SimTime,
    /// Pre-sampled exit decision: `Some(i)` leaves at device exit `i`,
    /// `None` runs the full path.
    pub exit: Option<usize>,
    /// Accuracy value credited on completion (conditional accuracy of the
    /// taken path).
    pub accuracy: f64,
}

/// "No index" sentinel shared by the columnar tables (`Option<u32>`
/// without the discriminant).
pub(crate) const NO_IDX: u32 = u32::MAX;

/// Hot/cold split of the stream table: every per-event scalar of
/// [`CompiledStream`] — exit thresholds, compute seconds, wire bytes,
/// deadline, PS weight — packed into dense parallel columns, with the
/// per-exit vectors flattened CSR-style behind one `exit_start` offset
/// table. The event loop streams these columns; the cold remainder
/// (arrival process, degrade ladder, fallback lists) stays on the
/// original structs, which only the arrival generator and the recovery
/// slow path consult.
///
/// Every value is copied bit-for-bit from the source stream (including
/// the pre-applied `edge_flops.max(1.0)` admission clamp), so replacing a
/// struct field read with a column read cannot change a single result
/// bit.
#[derive(Debug, Default)]
pub(crate) struct StreamCols {
    /// Originating device per stream.
    pub(crate) device: Vec<u32>,
    /// Edge server per stream; [`NO_IDX`] for device-only plans.
    pub(crate) server: Vec<u32>,
    /// Relative deadline per request, seconds.
    pub(crate) deadline_s: Vec<f64>,
    /// Device compute seconds when no device exit fires.
    pub(crate) full_time: Vec<f64>,
    /// Bytes to the edge when no device exit fires.
    pub(crate) tx_bytes: Vec<f64>,
    /// Fraction of the AP's spectrum allocated to the stream's device.
    pub(crate) share: Vec<f64>,
    /// Edge-side FLOPs when no device exit fires.
    pub(crate) edge_flops: Vec<f64>,
    /// `edge_flops.max(1.0)` — what the PS station admits.
    pub(crate) admit_flops: Vec<f64>,
    /// Weighted-PS weight on the server.
    pub(crate) weight: Vec<f64>,
    /// Accuracy of the full path.
    pub(crate) acc_full: Vec<f64>,
    /// CSR offsets into the exit columns; length `n_streams + 1`.
    pub(crate) exit_start: Vec<u32>,
    /// Cumulative exit-probability thresholds (`ExitBehavior::cum`).
    pub(crate) exit_cum: Vec<f64>,
    /// Device compute seconds to each exit.
    pub(crate) exit_time: Vec<f64>,
    /// Conditional accuracy of each exit.
    pub(crate) exit_acc: Vec<f64>,
}

impl StreamCols {
    /// Re-point the columns at `streams`, reusing capacity.
    pub(crate) fn rebuild(&mut self, streams: &[CompiledStream]) {
        self.device.clear();
        self.server.clear();
        self.deadline_s.clear();
        self.full_time.clear();
        self.tx_bytes.clear();
        self.share.clear();
        self.edge_flops.clear();
        self.admit_flops.clear();
        self.weight.clear();
        self.acc_full.clear();
        self.exit_start.clear();
        self.exit_cum.clear();
        self.exit_time.clear();
        self.exit_acc.clear();
        self.exit_start.push(0);
        for s in streams {
            self.device.push(s.device as u32);
            self.server
                .push(s.server.map(|v| v as u32).unwrap_or(NO_IDX));
            self.deadline_s.push(s.deadline_s);
            self.full_time.push(s.device_full_time);
            self.tx_bytes.push(s.tx_bytes);
            self.share.push(s.bandwidth_share);
            self.edge_flops.push(s.edge_flops);
            self.admit_flops.push(s.edge_flops.max(1.0));
            self.weight.push(s.compute_weight);
            self.acc_full.push(s.acc_full);
            self.exit_cum.extend_from_slice(&s.behavior.cum);
            self.exit_time.extend_from_slice(&s.device_time_to_exit);
            self.exit_acc.extend_from_slice(&s.acc_at_exit);
            self.exit_start.push(self.exit_cum.len() as u32);
        }
    }

    /// First exit-column index of stream `s`.
    #[inline]
    pub(crate) fn exit_base(&self, s: usize) -> usize {
        self.exit_start[s] as usize
    }

    /// Pre-sample the exit decision — bit-identical to
    /// [`ExitBehavior::sample_exit`] on the source stream: same slice
    /// values, same first-threshold scan.
    #[inline]
    pub(crate) fn sample_exit(&self, s: usize, u: f64) -> Option<usize> {
        let lo = self.exit_start[s] as usize;
        let hi = self.exit_start[s + 1] as usize;
        self.exit_cum[lo..hi].iter().position(|&c| u < c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_stream() -> CompiledStream {
        CompiledStream {
            id: 0,
            device: 0,
            server: Some(0),
            arrivals: ArrivalProcess::Poisson { rate_hz: 5.0 },
            deadline_s: 0.2,
            device_time_to_exit: vec![0.01, 0.02],
            device_full_time: 0.03,
            tx_bytes: 50_000.0,
            edge_flops: 1e9,
            behavior: ExitBehavior {
                exit_probs: vec![0.3, 0.2],
                cum: vec![0.3, 0.5],
                remain_prob: 0.5,
                expected_accuracy: 0.74,
            },
            acc_at_exit: vec![0.70, 0.73],
            acc_full: 0.76,
            bandwidth_share: 0.25,
            compute_weight: 1.0,
            degrade: DegradeLadder::none(),
            fallback_servers: vec![],
        }
    }

    #[test]
    fn valid_stream_passes() {
        assert!(base_stream().validate().is_ok());
    }

    #[test]
    fn arity_mismatches_fail() {
        let mut s = base_stream();
        s.device_time_to_exit.pop();
        assert!(s.validate().is_err());
        let mut s = base_stream();
        s.acc_at_exit.pop();
        assert!(s.validate().is_err());
    }

    #[test]
    fn non_ascending_exit_times_fail() {
        let mut s = base_stream();
        s.device_time_to_exit = vec![0.02, 0.01];
        assert!(s.validate().is_err());
    }

    #[test]
    fn full_time_below_last_exit_fails() {
        let mut s = base_stream();
        s.device_full_time = 0.015;
        assert!(s.validate().is_err());
    }

    #[test]
    fn offloaded_stream_needs_positive_shares() {
        let mut s = base_stream();
        s.bandwidth_share = 0.0;
        assert!(s.validate().is_err());
        let mut s = base_stream();
        s.compute_weight = 0.0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn device_only_streams_skip_share_checks() {
        let mut s = base_stream();
        s.server = None;
        s.bandwidth_share = 0.0;
        s.compute_weight = 0.0;
        assert!(s.validate().is_ok());
        assert_eq!(s.device_exit_prob(), 1.0);
    }

    #[test]
    fn device_exit_prob_complements_remain() {
        let s = base_stream();
        assert!((s.device_exit_prob() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn device_only_streams_reject_recovery_options() {
        use scalpel_surgery::DegradeRung;
        let mut s = base_stream();
        s.server = None;
        s.fallback_servers = vec![1];
        assert!(s.validate().is_err());
        let mut s = base_stream();
        s.server = None;
        s.degrade = DegradeLadder::new(vec![DegradeRung {
            exit: Some(0),
            extra_device_s: 0.0,
            accuracy: 0.7,
        }]);
        assert!(s.validate().is_err());
    }

    #[test]
    fn malformed_ladder_fails_stream_validation() {
        use scalpel_surgery::DegradeRung;
        let mut s = base_stream();
        s.degrade = DegradeLadder {
            rungs: vec![DegradeRung {
                exit: None,
                extra_device_s: -0.5,
                accuracy: 0.7,
            }],
        };
        assert!(s.validate().is_err());
    }
}
