//! Measurement: per-stream and aggregate latency / deadline / accuracy
//! statistics, plus fault-robustness counters for injected-fault runs.

use crate::faults::FaultClass;
use serde::{Deserialize, Serialize};

/// Order statistics over a set of latency samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean, seconds.
    pub mean: f64,
    /// Median, seconds.
    pub p50: f64,
    /// 95th percentile, seconds.
    pub p95: f64,
    /// 99th percentile, seconds.
    pub p99: f64,
    /// Maximum, seconds.
    pub max: f64,
}

impl LatencyStats {
    /// Empty statistics (all zero).
    pub fn empty() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
            max: 0.0,
        }
    }

    /// Compute from raw samples (consumed; sorted internally).
    #[cfg(test)]
    fn from_samples(mut samples: Vec<f64>) -> Self {
        Self::from_mut_slice(&mut samples)
    }

    /// Compute from the caller's samples, sorting the buffer in place —
    /// no allocation (the mean is summed over the sorted order).
    pub fn from_mut_slice(samples: &mut [f64]) -> Self {
        if samples.is_empty() {
            return Self::empty();
        }
        // Latencies are non-negative and never -0.0, so the total order
        // sorts them exactly as the numeric order would.
        samples.sort_by(f64::total_cmp);
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let q = |p: f64| -> f64 {
            // nearest-rank on the sorted sample
            let idx = ((p * count as f64).ceil() as usize).clamp(1, count) - 1;
            samples[idx]
        };
        Self {
            count,
            mean,
            p50: q(0.50),
            p95: q(0.95),
            p99: q(0.99),
            max: samples[count - 1],
        }
    }
}

/// Per-stream simulation outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamStats {
    /// Stream index.
    pub stream: usize,
    /// Completed requests measured (post-warm-up).
    pub completed: usize,
    /// Requests that met their deadline.
    pub on_time: usize,
    /// Latency distribution.
    pub latency: LatencyStats,
    /// Mean accuracy credited over completions.
    pub mean_accuracy: f64,
    /// Completions that left at a device-side exit.
    pub early_exits: usize,
    /// Mean seconds spent waiting in the device compute queue.
    pub mean_device_wait: f64,
    /// Mean seconds of device compute service.
    pub mean_device_service: f64,
    /// Mean seconds of uplink transmission (offloaded requests only).
    pub mean_tx: f64,
    /// Mean seconds on the edge server (offloaded requests only).
    pub mean_edge: f64,
}

impl StreamStats {
    /// Deadline satisfaction ratio in `[0, 1]`.
    pub fn deadline_ratio(&self) -> f64 {
        if self.completed == 0 {
            1.0
        } else {
            self.on_time as f64 / self.completed as f64
        }
    }
}

/// Robustness counters for one fault class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultClassStats {
    /// The class these counters aggregate.
    pub class: FaultClass,
    /// Events of this class in the plan (including redundant ones).
    pub injected: usize,
    /// Events that actually changed simulator state.
    pub applied: usize,
    /// Measured requests stranded by events of this class.
    pub stranded: usize,
    /// Measured deadline misses completed while a fault of this class was
    /// active (a miss under several concurrent classes counts once per
    /// active class).
    pub misses_during: usize,
}

/// Whole-run robustness outcome of the fault-injection layer. All request
/// counters cover *measured* requests only (arrivals inside the
/// warm-up..horizon window), matching [`SimReport::generated`]; the
/// conservation law `generated == completed + faults.lost()` holds for
/// every run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultMetrics {
    /// Fault events executed (the plan may extend past the horizon).
    pub injected: usize,
    /// Fault events that changed state (e.g. a `DeviceDown` on an
    /// already-down device injects but does not apply).
    pub applied: usize,
    /// Measured requests dropped outright by a fault (device departure
    /// takes its queued/computing/untransmitted requests with it).
    pub stranded: usize,
    /// Measured requests still queued when the run ended — typically stuck
    /// behind an outage that never recovered. Counted so nothing is
    /// silently dropped.
    pub stalled: usize,
    /// Measured completions that finished while ≥1 fault was active.
    pub completions_during_fault: usize,
    /// Measured deadline misses that completed while ≥1 fault was active —
    /// the SLO violations attributable to disruption.
    pub misses_during_fault: usize,
    /// Observed fault→recovery pairs.
    pub recoveries: usize,
    /// Mean seconds from a fault being applied to its recovery being
    /// applied (0 when no recovery was observed).
    pub mean_recovery_s: f64,
    /// Per-class breakdown, in [`FaultClass::ALL`] order.
    pub per_class: Vec<FaultClassStats>,
}

impl FaultMetrics {
    /// Metrics of a fault-free run (all counters zero).
    pub fn empty() -> Self {
        Self {
            injected: 0,
            applied: 0,
            stranded: 0,
            stalled: 0,
            completions_during_fault: 0,
            misses_during_fault: 0,
            recoveries: 0,
            mean_recovery_s: 0.0,
            per_class: FaultClass::ALL
                .iter()
                .map(|&class| FaultClassStats {
                    class,
                    injected: 0,
                    applied: 0,
                    stranded: 0,
                    misses_during: 0,
                })
                .collect(),
        }
    }

    /// Measured requests that never completed because of faults.
    pub fn lost(&self) -> usize {
        self.stranded + self.stalled
    }
}

/// Whole-run outcome of the recovery subsystem (all zero when recovery is
/// disabled). With recovery on, the conservation law extends to
/// `generated == completed + recovery.degraded + recovery.shed +
/// faults.lost()`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryMetrics {
    /// Retry timeouts that fired on live (non-stale) transmissions.
    pub timeouts: usize,
    /// Uplink transmissions cancelled and restarted.
    pub retries: usize,
    /// Requests re-routed to a fallback server by an open primary breaker.
    pub hedges: usize,
    /// Measured requests completed through a degradation rung.
    pub degraded: usize,
    /// Degraded completions that still met their deadline.
    pub degraded_on_time: usize,
    /// Measured requests shed (dropped by policy, not by a fault).
    pub shed: usize,
    /// Mean accuracy credited to degraded completions (0 when none).
    pub mean_degraded_accuracy: f64,
    /// Mean accuracy given up per degraded completion versus what its
    /// nominal path would have credited (0 when none).
    pub accuracy_cost: f64,
    /// Breaker closed→open transitions across all APs and servers.
    pub breaker_opens: usize,
    /// Breaker open→half-open transitions.
    pub breaker_half_opens: usize,
    /// Breaker half-open→closed transitions.
    pub breaker_closes: usize,
}

impl RecoveryMetrics {
    /// Metrics of a run without recovery (all counters zero).
    pub fn empty() -> Self {
        Self {
            timeouts: 0,
            retries: 0,
            hedges: 0,
            degraded: 0,
            degraded_on_time: 0,
            shed: 0,
            mean_degraded_accuracy: 0.0,
            accuracy_cost: 0.0,
            breaker_opens: 0,
            breaker_half_opens: 0,
            breaker_closes: 0,
        }
    }
}

/// Whole-run simulation outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Requests generated during the measured window.
    pub generated: usize,
    /// Requests completed (and measured).
    pub completed: usize,
    /// Aggregate latency distribution.
    pub latency: LatencyStats,
    /// Fraction of measured completions that met their deadline.
    pub deadline_ratio: f64,
    /// Mean accuracy over measured completions.
    pub mean_accuracy: f64,
    /// Fraction of measured completions that took a device-side exit.
    pub early_exit_fraction: f64,
    /// Per-server busy fraction: share of the simulated timeline (up to
    /// the last event) during which the server had ≥1 active request.
    pub server_utilization: Vec<f64>,
    /// Per-stream breakdown.
    pub per_stream: Vec<StreamStats>,
    /// Fault-robustness counters (all zero for fault-free runs).
    pub faults: FaultMetrics,
    /// Recovery-subsystem counters (all zero when recovery is disabled).
    pub recovery: RecoveryMetrics,
}

impl SimReport {
    /// Every measured request, however it ended: completed nominally,
    /// completed degraded, shed by policy, or lost to a fault. Equals
    /// [`SimReport::generated`] for every run — the conservation law the
    /// property tests pin.
    pub fn accounted(&self) -> usize {
        self.completed + self.recovery.degraded + self.recovery.shed + self.faults.lost()
    }
}

/// Accumulates one stream's completions during a run.
#[derive(Debug, Clone, Default)]
pub(crate) struct StreamAccum {
    pub latencies: Vec<f64>,
    pub on_time: usize,
    pub acc_sum: f64,
    pub early_exits: usize,
    pub device_wait_sum: f64,
    pub device_service_sum: f64,
    pub tx_sum: f64,
    pub tx_count: usize,
    pub edge_sum: f64,
}

impl StreamAccum {
    /// Consuming wrapper over [`StreamAccum::finish_mut`].
    #[cfg(test)]
    pub fn finish(mut self, stream: usize) -> StreamStats {
        self.finish_mut(stream)
    }

    /// Seal the accumulator into per-stream stats: sorts the latency buffer in place so
    /// a scratch-held accumulator keeps its capacity across runs.
    pub fn finish_mut(&mut self, stream: usize) -> StreamStats {
        let completed = self.latencies.len();
        let n = completed.max(1) as f64;
        StreamStats {
            stream,
            completed,
            on_time: self.on_time,
            mean_accuracy: self.acc_sum / n,
            early_exits: self.early_exits,
            mean_device_wait: self.device_wait_sum / n,
            mean_device_service: self.device_service_sum / n,
            mean_tx: self.tx_sum / self.tx_count.max(1) as f64,
            mean_edge: self.edge_sum / self.tx_count.max(1) as f64,
            latency: LatencyStats::from_mut_slice(&mut self.latencies),
        }
    }
}

/// Columnar form of the per-stream accumulators: one counter column per
/// statistic (indexed by stream id) plus a jagged latency-sample table.
/// The completion path touches a handful of dense lanes instead of
/// striding over [`StreamAccum`] structs; the fold arithmetic in
/// [`AccumCols::finish_stream`] is copied from
/// [`StreamAccum::finish_mut`] verbatim, so sealed stats are
/// bit-identical.
#[derive(Debug, Default)]
pub(crate) struct AccumCols {
    /// Raw latency samples per stream (jagged: one growable row each).
    pub latencies: Vec<Vec<f64>>,
    pub on_time: Vec<usize>,
    pub acc_sum: Vec<f64>,
    pub early_exits: Vec<usize>,
    pub device_wait_sum: Vec<f64>,
    pub device_service_sum: Vec<f64>,
    pub tx_sum: Vec<f64>,
    pub tx_count: Vec<usize>,
    pub edge_sum: Vec<f64>,
}

impl AccumCols {
    /// Zero every column at `n` streams, keeping the capacity of every
    /// buffer (including each per-stream latency row).
    pub fn reset(&mut self, n: usize) {
        self.latencies.truncate(n);
        for row in &mut self.latencies {
            row.clear();
        }
        self.latencies.resize_with(n, Vec::new);
        self.on_time.clear();
        self.on_time.resize(n, 0);
        self.acc_sum.clear();
        self.acc_sum.resize(n, 0.0);
        self.early_exits.clear();
        self.early_exits.resize(n, 0);
        self.device_wait_sum.clear();
        self.device_wait_sum.resize(n, 0.0);
        self.device_service_sum.clear();
        self.device_service_sum.resize(n, 0.0);
        self.tx_sum.clear();
        self.tx_sum.resize(n, 0.0);
        self.tx_count.clear();
        self.tx_count.resize(n, 0);
        self.edge_sum.clear();
        self.edge_sum.resize(n, 0.0);
    }

    /// Seal stream `i` into its stats — the columnar
    /// [`StreamAccum::finish_mut`]: identical expressions over the column
    /// values, including the in-place latency sort.
    pub fn finish_stream(&mut self, i: usize) -> StreamStats {
        let completed = self.latencies[i].len();
        let n = completed.max(1) as f64;
        StreamStats {
            stream: i,
            completed,
            on_time: self.on_time[i],
            mean_accuracy: self.acc_sum[i] / n,
            early_exits: self.early_exits[i],
            mean_device_wait: self.device_wait_sum[i] / n,
            mean_device_service: self.device_service_sum[i] / n,
            mean_tx: self.tx_sum[i] / self.tx_count[i].max(1) as f64,
            mean_edge: self.edge_sum[i] / self.tx_count[i].max(1) as f64,
            latency: LatencyStats::from_mut_slice(&mut self.latencies[i]),
        }
    }
}

/// Per-station cycle attribution of one simulator run (feature
/// `hotprof`): the dispatch loop brackets every handler with `rdtsc`
/// reads and charges the delta to the event's station. Cycles include
/// everything the handler did — chained work such as `maybe_start_tx`
/// after a delivery is charged to the event that triggered it.
#[cfg(feature = "hotprof")]
#[derive(Debug, Default, Clone)]
pub struct EventProfile {
    /// Cycles spent in each station's handler, in station order: arrive,
    /// device_done, tx_done, server_check, fault, retry, telemetry.
    pub cycles: [u64; 7],
    /// Events delivered per station, same indexing.
    pub counts: [u64; 7],
}

#[cfg(feature = "hotprof")]
impl EventProfile {
    /// Zero every counter.
    pub fn reset(&mut self) {
        self.cycles = [0; 7];
        self.counts = [0; 7];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = LatencyStats::from_samples(vec![]);
        assert_eq!(s, LatencyStats::empty());
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let s = LatencyStats::from_samples(vec![0.5]);
        assert_eq!(s.count, 1);
        for v in [s.mean, s.p50, s.p95, s.p99, s.max] {
            assert_eq!(v, 0.5);
        }
    }

    #[test]
    fn percentiles_on_uniform_grid() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencyStats::from_samples(samples);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_are_order_invariant() {
        let a = LatencyStats::from_samples(vec![3.0, 1.0, 2.0]);
        let b = LatencyStats::from_samples(vec![1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn quantiles_are_monotone() {
        let samples: Vec<f64> = (0..999).map(|i| (i as f64 * 0.37).sin().abs()).collect();
        let s = LatencyStats::from_samples(samples);
        assert!(s.p50 <= s.p95);
        assert!(s.p95 <= s.p99);
        assert!(s.p99 <= s.max);
    }

    #[test]
    fn stream_accum_finish_divides_correctly() {
        let a = StreamAccum {
            latencies: vec![0.1, 0.3],
            on_time: 1,
            acc_sum: 1.5,
            early_exits: 1,
            tx_sum: 0.2,
            tx_count: 1,
            ..StreamAccum::default()
        };
        let s = a.finish(7);
        assert_eq!(s.stream, 7);
        assert_eq!(s.completed, 2);
        assert!((s.deadline_ratio() - 0.5).abs() < 1e-12);
        assert!((s.mean_accuracy - 0.75).abs() < 1e-12);
        assert!((s.mean_tx - 0.2).abs() < 1e-12);
    }

    #[test]
    fn deadline_ratio_of_empty_stream_is_one() {
        let s = StreamAccum::default().finish(0);
        assert_eq!(s.deadline_ratio(), 1.0);
    }

    #[test]
    fn empty_fault_metrics_cover_every_class() {
        let f = FaultMetrics::empty();
        assert_eq!(f.per_class.len(), FaultClass::ALL.len());
        for (stats, &class) in f.per_class.iter().zip(FaultClass::ALL) {
            assert_eq!(stats.class, class);
            assert_eq!(stats.injected + stats.applied + stats.stranded, 0);
        }
        assert_eq!(f.lost(), 0);
    }

    #[test]
    fn lost_sums_stranded_and_stalled() {
        let mut f = FaultMetrics::empty();
        f.stranded = 3;
        f.stalled = 2;
        assert_eq!(f.lost(), 5);
    }
}
