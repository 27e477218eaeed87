//! Per-server compute allocation.
//!
//! Adapts streams assigned to one edge server into [`HyperbolicDemand`]s
//! (`fixed` = device + transmission seconds, `scaled` = edge seconds at
//! full capacity) and exposes the three allocation policies the evaluation
//! compares. Shares are *weights* for the simulator's weighted
//! processor-sharing server, so they need not sum to exactly one — but the
//! solvers keep them on the simplex so analytic and simulated worlds agree.

use crate::convex::{self, AllocScratch, HyperbolicDemand};
use serde::{Deserialize, Serialize};

/// Borrowed SoA (structure-of-arrays) view of per-stream compute demands:
/// four parallel columns, one entry per stream. The incremental evaluator
/// keeps its per-server gather buffers in exactly this layout so the
/// allocator kernels sweep flat `f64` columns with no per-element struct
/// gather. Columns must be the same length; the allocator operates on the
/// common prefix. Values are raw — sanitization happens once inside
/// [`allocate_cols_into`], exactly where the AoS path applied it.
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

/// One stream's compute demand on its server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComputeDemand {
    /// Stream id (for reporting).
    pub stream: usize,
    /// Expected seconds before edge compute starts (device + uplink),
    /// weighted over exit paths.
    pub pre_edge_s: f64,
    /// Edge seconds at full server capacity (expected over exit paths).
    pub edge_s_full: f64,
    /// Relative importance (arrival-rate-weighted in the paper's setting).
    pub weight: f64,
    /// Relative deadline, seconds.
    pub deadline_s: f64,
}

/// Allocation policy for a server's capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ComputePolicy {
    /// Everyone gets `1/n` (the static baseline).
    Equal,
    /// Shares proportional to weights (the proportional-fair point of the
    /// rate-allocation literature; ignores demands).
    Proportional,
    /// KKT water-filling minimizing the weighted latency sum.
    WeightedSum,
    /// Bisection minimizing the worst latency.
    MinMax,
    /// Deadline minimums + min-max slack distribution; falls back to
    /// WeightedSum when deadlines are infeasible (min-max would equalize
    /// everyone down to the worst stream's fixed latency).
    DeadlineAware,
}

/// Compute per-stream shares on one server under `policy`: the AoS entry
/// point. Gathers the demand structs into SoA columns and defers to
/// [`allocate_cols_into`] with fresh scratch.
pub fn allocate(demands: &[ComputeDemand], policy: ComputePolicy) -> Vec<f64> {
    let pre: Vec<f64> = demands.iter().map(|d| d.pre_edge_s).collect();
    let edge: Vec<f64> = demands.iter().map(|d| d.edge_s_full).collect();
    let weight: Vec<f64> = demands.iter().map(|d| d.weight).collect();
    let deadline: Vec<f64> = demands.iter().map(|d| d.deadline_s).collect();
    let mut out = Vec::new();
    allocate_cols_into(
        ComputeCols {
            pre_edge_s: &pre,
            edge_s_full: &edge,
            weight: &weight,
            deadline_s: &deadline,
        },
        policy,
        &mut AllocScratch::default(),
        &mut out,
    );
    out
}

/// Per-stream shares over an SoA column view, written into a caller-owned
/// buffer (cleared first) with reusable solver scratch — the hot-path
/// entry point: the evaluator's gather buffers are already columns, so no
/// per-element struct is built, and warm buffers mean no heap traffic.
/// Share values are bit-identical to [`allocate`] for every policy.
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
        ComputePolicy::Proportional => {
            // Raw values on purpose: a NaN weight must poison the total the
            // same way it always did, not get sanitized away.
            let total: f64 = cols.edge_s_full[..len]
                .iter()
                .zip(cols.weight)
                .filter(|(&e, _)| e > 0.0)
                .map(|(_, &w)| w)
                .sum();
            out.extend(
                cols.edge_s_full[..len]
                    .iter()
                    .zip(cols.weight)
                    .map(|(&e, &w)| {
                        if e > 0.0 && total > 0.0 {
                            w / total
                        } else {
                            0.0
                        }
                    }),
            );
        }
        ComputePolicy::WeightedSum => {
            fill_cols(cols, len, scratch);
            convex::weighted_sum_shares_cols(&scratch.scaled, &scratch.weights, out);
        }
        ComputePolicy::MinMax => {
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
        ComputePolicy::DeadlineAware => {
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

fn fill_cols(cols: ComputeCols<'_>, len: usize, scratch: &mut AllocScratch) {
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
    cols: ComputeCols<'_>,
    len: usize,
    fixed: &mut Vec<f64>,
    scaled: &mut Vec<f64>,
) {
    fixed.clear();
    fixed.extend(cols.pre_edge_s[..len].iter().map(|&x| convex::sanitize(x)));
    scaled.clear();
    scaled.extend(cols.edge_s_full[..len].iter().map(|&x| convex::sanitize(x)));
}

/// Analytic latency of each stream under given shares (no queueing).
pub fn latencies(demands: &[ComputeDemand], shares: &[f64]) -> Vec<f64> {
    demands
        .iter()
        .zip(shares)
        .map(|(d, &c)| HyperbolicDemand::new(d.pre_edge_s, d.edge_s_full).latency(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demands() -> Vec<ComputeDemand> {
        vec![
            ComputeDemand {
                stream: 0,
                pre_edge_s: 0.02,
                edge_s_full: 0.010,
                weight: 1.0,
                deadline_s: 0.2,
            },
            ComputeDemand {
                stream: 1,
                pre_edge_s: 0.01,
                edge_s_full: 0.060,
                weight: 1.0,
                deadline_s: 0.3,
            },
            ComputeDemand {
                stream: 2,
                pre_edge_s: 0.05,
                edge_s_full: 0.002,
                weight: 2.0,
                deadline_s: 0.15,
            },
        ]
    }

    #[test]
    fn proportional_shares_follow_weights() {
        let ds = demands();
        let shares = allocate(&ds, ComputePolicy::Proportional);
        // weights are 1.0, 1.0, 2.0 -> shares 0.25, 0.25, 0.5
        assert!((shares[0] - 0.25).abs() < 1e-12);
        assert!((shares[2] - 0.50).abs() < 1e-12);
    }

    #[test]
    fn every_policy_yields_simplex_shares() {
        for policy in [
            ComputePolicy::Equal,
            ComputePolicy::Proportional,
            ComputePolicy::WeightedSum,
            ComputePolicy::MinMax,
            ComputePolicy::DeadlineAware,
        ] {
            let shares = allocate(&demands(), policy);
            let total: f64 = shares.iter().sum();
            assert!(total <= 1.0 + 1e-9, "{policy:?}: {total}");
            assert!(total > 0.99, "{policy:?}: {total}");
            assert!(shares.iter().all(|&c| c >= 0.0));
        }
    }

    #[test]
    fn minmax_has_lowest_worst_latency() {
        let ds = demands();
        let worst = |p: ComputePolicy| -> f64 {
            let shares = allocate(&ds, p);
            latencies(&ds, &shares).into_iter().fold(0.0, f64::max)
        };
        let mm = worst(ComputePolicy::MinMax);
        assert!(mm <= worst(ComputePolicy::Equal) + 1e-12);
        assert!(mm <= worst(ComputePolicy::WeightedSum) + 1e-12);
    }

    #[test]
    fn weighted_sum_has_lowest_weighted_total() {
        let ds = demands();
        let cost = |p: ComputePolicy| -> f64 {
            let shares = allocate(&ds, p);
            latencies(&ds, &shares)
                .iter()
                .zip(&ds)
                .map(|(l, d)| l * d.weight)
                .sum()
        };
        let ws = cost(ComputePolicy::WeightedSum);
        assert!(ws <= cost(ComputePolicy::Equal) + 1e-12);
        assert!(ws <= cost(ComputePolicy::MinMax) + 1e-12);
    }

    #[test]
    fn deadline_aware_meets_feasible_deadlines() {
        let ds = demands();
        let shares = allocate(&ds, ComputePolicy::DeadlineAware);
        for (l, d) in latencies(&ds, &shares).iter().zip(&ds) {
            assert!(*l <= d.deadline_s + 1e-9, "stream {} late: {l}", d.stream);
        }
    }

    #[test]
    fn deadline_aware_fallback_when_infeasible() {
        let mut ds = demands();
        ds[1].deadline_s = 0.011; // impossible: pre_edge already 0.01, edge 0.06
        let shares = allocate(&ds, ComputePolicy::DeadlineAware);
        // falls back to min-max: still a valid simplex allocation
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(allocate(&[], ComputePolicy::MinMax).is_empty());
    }

    #[test]
    fn equal_policy_skips_zero_demand_streams() {
        let mut ds = demands();
        ds[0].edge_s_full = 0.0;
        let shares = allocate(&ds, ComputePolicy::Equal);
        assert_eq!(shares[0], 0.0);
    }
}
