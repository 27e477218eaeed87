//! Per-AP bandwidth allocation.
//!
//! The Shannon-rate uplink is linear in the spectrum share (see
//! `scalpel_sim::net`), so a device transmitting `B` bytes at mean full-AP
//! rate `R` bits/s sees transmission seconds `8B/(R·c)` — the same
//! hyperbolic form as compute, solved by the same machinery. Demands are
//! *expected* per request (scaled by the probability the request reaches
//! the uplink at all, i.e. did not exit on the device).

use crate::convex::{self, AllocScratch};
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

/// Allocation policy for an AP's spectrum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BandwidthPolicy {
    /// Equal split among devices that transmit.
    Equal,
    /// Deadline minimums + clipped water-filling of the slack;
    /// weighted-sum water-filling when deadlines are jointly infeasible.
    DeadlineAware,
}

/// Per-device shares over an SoA column view, written into a
/// caller-owned buffer (cleared first) with reusable solver scratch.
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
        BandwidthPolicy::DeadlineAware => {
            let AllocScratch {
                fixed,
                scaled,
                weights,
                roots,
            } = scratch;
            // `fixed` is pre-tx + post-tx seconds, sanitized *after* the add.
            fixed.clear();
            fixed.extend(
                cols.pre_tx_s[..len]
                    .iter()
                    .zip(cols.post_tx_s)
                    .map(|(&a, &b)| convex::sanitize(a + b)),
            );
            scaled.clear();
            scaled.extend(cols.tx_s_full[..len].iter().map(|&x| convex::sanitize(x)));
            weights.clear();
            weights.extend(cols.weight[..len].iter().map(|&w| convex::sanitize(w)));
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Three devices as columns: pre-tx s, tx s, post-tx s, weight,
    /// deadline s. Device 2 does not transmit.
    fn demands() -> [Vec<f64>; 5] {
        [
            vec![0.01, 0.00, 0.03],
            vec![0.004, 0.020, 0.0],
            vec![0.02, 0.01, 0.0],
            vec![1.0, 1.0, 1.0],
            vec![0.2, 0.25, 0.1],
        ]
    }

    fn allocate(d: &[Vec<f64>; 5], policy: BandwidthPolicy) -> Vec<f64> {
        let cols = BandwidthCols {
            pre_tx_s: &d[0],
            tx_s_full: &d[1],
            post_tx_s: &d[2],
            weight: &d[3],
            deadline_s: &d[4],
        };
        let mut out = Vec::new();
        allocate_cols_into(cols, policy, &mut AllocScratch::default(), &mut out);
        out
    }

    #[test]
    fn non_transmitting_devices_get_no_spectrum() {
        for policy in [BandwidthPolicy::Equal, BandwidthPolicy::DeadlineAware] {
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
    fn deadline_aware_meets_deadlines() {
        let d = demands();
        let shares = allocate(&d, BandwidthPolicy::DeadlineAware);
        for (k, &c) in shares.iter().enumerate() {
            if d[1][k] > 0.0 {
                let latency = d[0][k] + d[2][k] + d[1][k] / c;
                assert!(latency <= d[4][k] + 1e-9, "device {k} late: {latency}");
            }
        }
    }

    #[test]
    fn empty_is_empty() {
        let empty: [Vec<f64>; 5] = Default::default();
        assert!(allocate(&empty, BandwidthPolicy::Equal).is_empty());
    }
}
