//! Per-AP bandwidth allocation.
//!
//! The Shannon-rate uplink is linear in the spectrum share (see
//! `scalpel_sim::net`), so a device transmitting `B` bytes at mean full-AP
//! rate `R` bits/s sees transmission seconds `8B/(R·c)` — the same
//! hyperbolic form as compute, solved by the same machinery. Demands are
//! *expected* per request (scaled by the probability the request reaches
//! the uplink at all, i.e. did not exit on the device).

use crate::convex::{self, AllocScratch, HyperbolicDemand};
use serde::{Deserialize, Serialize};

/// Borrowed SoA view of per-device uplink demands — five parallel
/// columns, one entry per device; the bandwidth analogue of
/// [`crate::compute_alloc::ComputeCols`]. Values are raw; sanitization
/// happens once inside [`allocate_cols_into`].
#[derive(Debug, Clone, Copy)]
pub struct BandwidthCols<'a> {
    /// Expected seconds before transmission starts (device compute).
    pub pre_tx_s: &'a [f64],
    /// Transmission seconds at full AP spectrum (expected per request).
    pub tx_s_full: &'a [f64],
    /// Seconds after transmission (edge compute at the planned share).
    pub post_tx_s: &'a [f64],
    /// Relative importance.
    pub weight: &'a [f64],
    /// Relative deadline, seconds (raw: NaN means infeasible).
    pub deadline_s: &'a [f64],
}

impl BandwidthCols<'_> {
    /// Number of devices covered by every column.
    pub fn len(&self) -> usize {
        self.pre_tx_s
            .len()
            .min(self.tx_s_full.len())
            .min(self.post_tx_s.len())
            .min(self.weight.len())
            .min(self.deadline_s.len())
    }

    /// Whether the view covers no devices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One device's uplink demand on its AP.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandwidthDemand {
    /// Device id (for reporting).
    pub device: usize,
    /// Expected seconds before transmission starts (device compute).
    pub pre_tx_s: f64,
    /// Transmission seconds at full AP spectrum (expected per request).
    pub tx_s_full: f64,
    /// Seconds after transmission (edge compute at the planned share).
    pub post_tx_s: f64,
    /// Relative importance.
    pub weight: f64,
    /// Relative deadline, seconds.
    pub deadline_s: f64,
}

/// Allocation policy for an AP's spectrum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BandwidthPolicy {
    /// Equal split among devices that transmit.
    Equal,
    /// KKT water-filling minimizing the weighted latency sum.
    WeightedSum,
    /// Min-max end-to-end latency.
    MinMax,
    /// Deadline minimums with min-max slack; weighted-sum fallback when
    /// deadlines are jointly infeasible.
    DeadlineAware,
}

/// Compute per-device spectrum shares on one AP: the AoS entry point.
/// Gathers the demand structs into SoA columns and defers to
/// [`allocate_cols_into`] with fresh scratch.
pub fn allocate(demands: &[BandwidthDemand], policy: BandwidthPolicy) -> Vec<f64> {
    let pre: Vec<f64> = demands.iter().map(|d| d.pre_tx_s).collect();
    let tx: Vec<f64> = demands.iter().map(|d| d.tx_s_full).collect();
    let post: Vec<f64> = demands.iter().map(|d| d.post_tx_s).collect();
    let weight: Vec<f64> = demands.iter().map(|d| d.weight).collect();
    let deadline: Vec<f64> = demands.iter().map(|d| d.deadline_s).collect();
    let mut out = Vec::new();
    allocate_cols_into(
        BandwidthCols {
            pre_tx_s: &pre,
            tx_s_full: &tx,
            post_tx_s: &post,
            weight: &weight,
            deadline_s: &deadline,
        },
        policy,
        &mut AllocScratch::default(),
        &mut out,
    );
    out
}

/// Per-device shares over an SoA column view, written into a
/// caller-owned buffer (cleared first) with reusable solver scratch — the
/// hot-path entry point. Share values are bit-identical to [`allocate`]
/// for every policy.
pub fn allocate_cols_into(
    cols: BandwidthCols<'_>,
    policy: BandwidthPolicy,
    scratch: &mut AllocScratch,
    out: &mut Vec<f64>,
) {
    out.clear();
    let len = cols.len();
    if len == 0 {
        return;
    }
    match policy {
        BandwidthPolicy::Equal => {
            let n = cols.tx_s_full[..len]
                .iter()
                .filter(|&&t| t > 0.0)
                .count()
                .max(1) as f64;
            out.extend(
                cols.tx_s_full[..len]
                    .iter()
                    .map(|&t| if t > 0.0 { 1.0 / n } else { 0.0 }),
            );
        }
        BandwidthPolicy::WeightedSum => {
            fill_cols(cols, len, scratch);
            convex::weighted_sum_shares_cols(&scratch.scaled, &scratch.weights, out);
        }
        BandwidthPolicy::MinMax => {
            let AllocScratch {
                fixed,
                scaled,
                served_fixed,
                served_scaled,
                ..
            } = scratch;
            fill_fixed_scaled(cols, len, fixed, scaled);
            convex::minmax_shares_cols(fixed, scaled, served_fixed, served_scaled, out);
        }
        BandwidthPolicy::DeadlineAware => {
            fill_cols(cols, len, scratch);
            let AllocScratch {
                fixed,
                scaled,
                weights,
                roots,
                ..
            } = scratch;
            if !convex::deadline_shares_cols(
                fixed,
                scaled,
                &cols.deadline_s[..len],
                weights,
                roots,
                out,
            ) {
                convex::weighted_sum_shares_cols(scaled, weights, out);
            }
        }
    }
    // Post-condition: shares are finite, non-negative, and on the simplex
    // even when the demand vector was adversarial. No-op for valid inputs.
    convex::sanitize_shares(out);
}

fn fill_cols(cols: BandwidthCols<'_>, len: usize, scratch: &mut AllocScratch) {
    let AllocScratch {
        fixed,
        scaled,
        weights,
        ..
    } = scratch;
    fill_fixed_scaled(cols, len, fixed, scaled);
    weights.clear();
    weights.extend(cols.weight[..len].iter().map(|&w| convex::sanitize(w)));
}

fn fill_fixed_scaled(
    cols: BandwidthCols<'_>,
    len: usize,
    fixed: &mut Vec<f64>,
    scaled: &mut Vec<f64>,
) {
    // `fixed` is pre-tx + post-tx seconds, sanitized *after* the add —
    // exactly what `HyperbolicDemand::new(pre + post, tx)` produced.
    fixed.clear();
    fixed.extend(
        cols.pre_tx_s[..len]
            .iter()
            .zip(cols.post_tx_s)
            .map(|(&a, &b)| convex::sanitize(a + b)),
    );
    scaled.clear();
    scaled.extend(cols.tx_s_full[..len].iter().map(|&x| convex::sanitize(x)));
}

/// Analytic end-to-end latency of each device's requests under shares.
pub fn latencies(demands: &[BandwidthDemand], shares: &[f64]) -> Vec<f64> {
    demands
        .iter()
        .zip(shares)
        .map(|(d, &c)| HyperbolicDemand::new(d.pre_tx_s + d.post_tx_s, d.tx_s_full).latency(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demands() -> Vec<BandwidthDemand> {
        vec![
            BandwidthDemand {
                device: 0,
                pre_tx_s: 0.01,
                tx_s_full: 0.004,
                post_tx_s: 0.02,
                weight: 1.0,
                deadline_s: 0.2,
            },
            BandwidthDemand {
                device: 1,
                pre_tx_s: 0.00,
                tx_s_full: 0.020,
                post_tx_s: 0.01,
                weight: 1.0,
                deadline_s: 0.25,
            },
            BandwidthDemand {
                device: 2,
                pre_tx_s: 0.03,
                tx_s_full: 0.0,
                post_tx_s: 0.0,
                weight: 1.0,
                deadline_s: 0.1,
            },
        ]
    }

    #[test]
    fn non_transmitting_devices_get_no_spectrum() {
        for policy in [
            BandwidthPolicy::Equal,
            BandwidthPolicy::WeightedSum,
            BandwidthPolicy::MinMax,
            BandwidthPolicy::DeadlineAware,
        ] {
            let shares = allocate(&demands(), policy);
            assert_eq!(shares[2], 0.0, "{policy:?}");
            let total: f64 = shares.iter().sum();
            assert!(total <= 1.0 + 1e-9 && total > 0.99, "{policy:?}: {total}");
        }
    }

    #[test]
    fn equal_splits_among_transmitters_only() {
        let shares = allocate(&demands(), BandwidthPolicy::Equal);
        assert!((shares[0] - 0.5).abs() < 1e-12);
        assert!((shares[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn minmax_favors_heavier_transmitter() {
        let shares = allocate(&demands(), BandwidthPolicy::MinMax);
        assert!(shares[1] > shares[0], "{shares:?}");
        let lats = latencies(&demands(), &shares);
        assert!((lats[0] - lats[1]).abs() < 1e-6, "{lats:?}");
    }

    #[test]
    fn deadline_aware_meets_deadlines() {
        let ds = demands();
        let shares = allocate(&ds, BandwidthPolicy::DeadlineAware);
        for (l, d) in latencies(&ds, &shares).iter().zip(&ds) {
            if d.tx_s_full > 0.0 {
                assert!(*l <= d.deadline_s + 1e-9);
            }
        }
    }

    #[test]
    fn empty_is_empty() {
        assert!(allocate(&[], BandwidthPolicy::Equal).is_empty());
    }
}
