//! Per-server compute allocation.
//!
//! Reads the streams assigned to one edge server as hyperbolic demands
//! (`fixed` = device + transmission seconds, `scaled` = edge seconds at
//! full capacity) and exposes the two allocation policies the evaluation
//! compares. Shares are *weights* for the simulator's weighted
//! processor-sharing server, so they need not sum to exactly one — but the
//! solvers keep them on the simplex so analytic and simulated worlds agree.

use crate::convex::{self, AllocScratch};
use serde::{Deserialize, Serialize};

/// Borrowed SoA (structure-of-arrays) view of per-stream compute demands:
/// four parallel columns, one entry per stream. The incremental evaluator
/// keeps its per-server gather buffers in exactly this layout so the
/// allocator kernels sweep flat `f64` columns with no per-element struct
/// gather. Columns must be the same length; the allocator operates on the
/// common prefix. Values are raw — sanitization happens once inside
/// [`allocate_cols_into`].
#[derive(Debug, Clone, Copy)]
pub struct ComputeCols<'a> {
    /// Expected seconds before edge compute starts (device + uplink).
    pub pre_edge_s: &'a [f64],
    /// Edge seconds at full server capacity.
    pub edge_s_full: &'a [f64],
    /// Relative importance.
    pub weight: &'a [f64],
    /// Relative deadline, seconds (raw: NaN means infeasible).
    pub deadline_s: &'a [f64],
}

impl ComputeCols<'_> {
    /// Number of streams covered by every column.
    pub fn len(&self) -> usize {
        self.pre_edge_s
            .len()
            .min(self.edge_s_full.len())
            .min(self.weight.len())
            .min(self.deadline_s.len())
    }

    /// Whether the view covers no streams.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Allocation policy for a server's capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ComputePolicy {
    /// Everyone gets `1/n` (the static baseline).
    Equal,
    /// Deadline minimums + clipped water-filling of the slack; falls back
    /// to weighted-sum water-filling when deadlines are infeasible.
    DeadlineAware,
}

/// Per-stream shares over an SoA column view, written into a caller-owned
/// buffer (cleared first) with reusable solver scratch: the evaluator's
/// gather buffers are already columns, so no per-element struct is built,
/// and warm buffers mean no heap traffic.
pub fn allocate_cols_into(
    cols: ComputeCols<'_>,
    policy: ComputePolicy,
    scratch: &mut AllocScratch,
    out: &mut Vec<f64>,
) {
    out.clear();
    let len = cols.len();
    if len == 0 {
        return;
    }
    match policy {
        ComputePolicy::Equal => {
            let n = len as f64;
            out.extend(
                cols.edge_s_full[..len]
                    .iter()
                    .map(|&e| if e > 0.0 { 1.0 / n } else { 0.0 }),
            );
        }
        ComputePolicy::DeadlineAware => {
            let AllocScratch {
                fixed,
                scaled,
                weights,
                roots,
            } = scratch;
            fixed.clear();
            fixed.extend(cols.pre_edge_s[..len].iter().map(|&x| convex::sanitize(x)));
            scaled.clear();
            scaled.extend(cols.edge_s_full[..len].iter().map(|&x| convex::sanitize(x)));
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

    /// Three streams as columns: pre-edge s, edge s, weight, deadline s.
    fn demands() -> [Vec<f64>; 4] {
        [
            vec![0.02, 0.01, 0.05],
            vec![0.010, 0.060, 0.002],
            vec![1.0, 1.0, 2.0],
            vec![0.2, 0.3, 0.15],
        ]
    }

    fn allocate(d: &[Vec<f64>; 4], policy: ComputePolicy) -> Vec<f64> {
        let cols = ComputeCols {
            pre_edge_s: &d[0],
            edge_s_full: &d[1],
            weight: &d[2],
            deadline_s: &d[3],
        };
        let mut out = Vec::new();
        allocate_cols_into(cols, policy, &mut AllocScratch::default(), &mut out);
        out
    }

    #[test]
    fn every_policy_yields_simplex_shares() {
        for policy in [ComputePolicy::Equal, ComputePolicy::DeadlineAware] {
            let shares = allocate(&demands(), policy);
            let total: f64 = shares.iter().sum();
            assert!(total <= 1.0 + 1e-9, "{policy:?}: {total}");
            assert!(total > 0.99, "{policy:?}: {total}");
            assert!(shares.iter().all(|&c| c >= 0.0));
        }
    }

    #[test]
    fn deadline_aware_meets_feasible_deadlines() {
        let d = demands();
        let shares = allocate(&d, ComputePolicy::DeadlineAware);
        for (k, &c) in shares.iter().enumerate() {
            let latency = d[0][k] + d[1][k] / c;
            assert!(latency <= d[3][k] + 1e-9, "stream {k} late: {latency}");
        }
    }

    #[test]
    fn deadline_aware_fallback_when_infeasible() {
        let mut d = demands();
        d[3][1] = 0.011; // impossible: pre_edge already 0.01, edge 0.06
        let shares = allocate(&d, ComputePolicy::DeadlineAware);
        // falls back to weighted-sum: still a valid simplex allocation
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn weighted_sum_has_lowest_weighted_total() {
        // Infeasible deadlines send DeadlineAware to its weighted-sum
        // water-filling fallback, which minimizes Σ w·latency.
        let mut d = demands();
        d[3][1] = 0.011;
        let cost = |p: ComputePolicy| -> f64 {
            let shares = allocate(&d, p);
            (0..3)
                .map(|k| d[2][k] * (d[0][k] + d[1][k] / shares[k]))
                .sum()
        };
        assert!(cost(ComputePolicy::DeadlineAware) <= cost(ComputePolicy::Equal) + 1e-12);
    }

    #[test]
    fn empty_input_empty_output() {
        let empty: [Vec<f64>; 4] = Default::default();
        for policy in [ComputePolicy::Equal, ComputePolicy::DeadlineAware] {
            assert!(allocate(&empty, policy).is_empty());
        }
    }

    #[test]
    fn equal_policy_skips_zero_demand_streams() {
        let mut d = demands();
        d[1][0] = 0.0;
        let shares = allocate(&d, ComputePolicy::Equal);
        assert_eq!(shares[0], 0.0);
    }
}
