//! Exact solvers for hyperbolic share-allocation programs.
//!
//! Every stream on a shared resource (server capacity, AP spectrum) sees
//! latency `L_k(c_k) = a_k + e_k / c_k` with `Σ c_k ≤ 1`, `c_k > 0`:
//!
//! * **Weighted sum** `min Σ w_k L_k` — KKT gives the closed-form
//!   water-filling `c_k* ∝ √(w_k e_k)`.
//! * **Min-max** `min max_k L_k` — at the optimum every stream with
//!   `e_k > 0` is equalized at `λ`, so `c_k = e_k/(λ − a_k)` and
//!   `g(λ) = Σ e_k/(λ − a_k)` is strictly decreasing: bisection.
//! * **Deadlines** — feasibility is `Σ e_k/(D_k − a_k) ≤ 1`; the
//!   deadline shares distribute the slack by clipped water-filling
//!   (weighted-sum-optimal subject to the per-stream minimums).

use scalpel_kernels as kernels;
use serde::{Deserialize, Serialize};

/// Largest magnitude any demand component is allowed to carry. Values
/// above this (including `+∞`) are clamped so bracketing loops and share
/// sums stay finite; realistic latencies are tens of orders of magnitude
/// below it, so clamping never perturbs a sane profile.
pub const MAX_COMPONENT: f64 = 1e30;

/// Map an arbitrary `f64` into the domain the solvers are exact on:
/// `NaN` and negatives become `0.0`, oversized values (including `+∞`)
/// clamp to [`MAX_COMPONENT`]. Identity for every valid input.
#[inline]
pub fn sanitize(x: f64) -> f64 {
    if x.is_nan() || x < 0.0 {
        0.0
    } else if x > MAX_COMPONENT {
        MAX_COMPONENT
    } else {
        x
    }
}

/// Post-condition repair for a share vector: non-finite or negative
/// entries become `0.0`, and if the sum exceeds the simplex (beyond a
/// `1e-9` tolerance) the vector is renormalized onto it. Returns `true`
/// if anything was changed. Valid share vectors pass through untouched,
/// bit-for-bit.
pub fn sanitize_shares(shares: &mut [f64]) -> bool {
    let mut changed = false;
    for s in shares.iter_mut() {
        if !s.is_finite() || *s < 0.0 {
            *s = 0.0;
            changed = true;
        } else if *s > MAX_COMPONENT {
            // Clamp oversized-but-finite entries *before* summing so the
            // renormalization sum cannot overflow to +∞ — an infinite sum
            // would divide every entry to 0.0 and silently drop the whole
            // vector off the simplex instead of renormalizing onto it.
            *s = MAX_COMPONENT;
            changed = true;
        }
    }
    let sum = kernels::seq_sum(shares);
    if sum > 1.0 + 1e-9 {
        kernels::scale_div(shares, sum);
        changed = true;
    }
    changed
}

/// Typed error for the checked allocator entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// Two parallel input slices disagree in length.
    LengthMismatch {
        /// Number of demands supplied.
        demands: usize,
        /// Length of the companion slice (weights or deadlines).
        companion: usize,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::LengthMismatch { demands, companion } => write!(
                f,
                "allocation input length mismatch: {demands} demands vs {companion} companions"
            ),
        }
    }
}

impl std::error::Error for AllocError {}

/// Reusable buffers for the borrowed-scratch allocator entry points
/// (`compute_alloc::allocate_cols_into`, `bandwidth_alloc::allocate_cols_into`).
/// Holding one of these across calls removes every per-call heap
/// allocation from the solve path; the solvers themselves are unchanged
/// and produce bit-identical shares.
#[derive(Debug, Default, Clone)]
pub struct AllocScratch {
    pub(crate) fixed: Vec<f64>,
    pub(crate) scaled: Vec<f64>,
    pub(crate) weights: Vec<f64>,
    pub(crate) roots: Vec<f64>,
    pub(crate) served_fixed: Vec<f64>,
    pub(crate) served_scaled: Vec<f64>,
}

/// One stream's demand on a shared resource.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HyperbolicDemand {
    /// Latency component independent of this resource's share, seconds.
    pub fixed: f64,
    /// Seconds on this resource at full (share = 1) capacity.
    pub scaled: f64,
}

impl HyperbolicDemand {
    /// Construct, sanitizing each component (`NaN`/negative → `0.0`,
    /// oversized → [`MAX_COMPONENT`]) so a corrupt profile cannot poison
    /// a solve. Identity for valid inputs.
    pub fn new(fixed: f64, scaled: f64) -> Self {
        Self {
            fixed: sanitize(fixed),
            scaled: sanitize(scaled),
        }
    }

    /// Latency at share `c`.
    pub fn latency(&self, c: f64) -> f64 {
        if self.scaled == 0.0 {
            return self.fixed;
        }
        if c <= 0.0 {
            return f64::INFINITY;
        }
        self.fixed + self.scaled / c
    }
}

/// `min Σ w_k (a_k + e_k/c_k)` s.t. `Σ c_k = 1`: the KKT water-filling
/// `c_k = √(w_k e_k) / Σ_j √(w_j e_j)`. Streams with `e_k = 0` receive 0.
/// Returns one share per demand; all zeros if nothing needs the resource.
pub fn weighted_sum_shares(demands: &[HyperbolicDemand], weights: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    weighted_sum_shares_into(demands, weights, &mut out);
    out
}

/// [`weighted_sum_shares`] checking that the inputs line up instead of
/// silently padding; otherwise identical to [`weighted_sum_shares`].
pub fn try_weighted_sum_shares(
    demands: &[HyperbolicDemand],
    weights: &[f64],
) -> Result<Vec<f64>, AllocError> {
    if demands.len() != weights.len() {
        return Err(AllocError::LengthMismatch {
            demands: demands.len(),
            companion: weights.len(),
        });
    }
    Ok(weighted_sum_shares(demands, weights))
}

/// [`weighted_sum_shares`] writing into a caller-owned buffer (cleared
/// first); identical arithmetic, no allocation when `out` has capacity.
/// Missing weights are treated as `0.0`, extra weights are ignored, and
/// `NaN`/negative/oversized inputs are sanitized — a malformed profile
/// yields a degraded (possibly all-zeros) allocation, never a panic.
fn weighted_sum_shares_into(demands: &[HyperbolicDemand], weights: &[f64], out: &mut Vec<f64>) {
    let scaled: Vec<f64> = demands.iter().map(|d| sanitize(d.scaled)).collect();
    let w: Vec<f64> = (0..demands.len())
        .map(|i| sanitize(weights.get(i).copied().unwrap_or(0.0)))
        .collect();
    weighted_sum_shares_cols(&scaled, &w, out);
}

/// Column (SoA) core of [`weighted_sum_shares`]: the KKT
/// water-filling `c_k = √(w_k e_k) / Σ √(w_j e_j)` over pre-sanitized
/// parallel columns (see [`sanitize`]; callers own the sanitize pass so
/// it runs once, not per solver call). Bit-identical to the AoS entry
/// point: the root pass and strict-order reduction run in one fused
/// [`kernels::sqrt_mul_sum`] sweep.
pub fn weighted_sum_shares_cols(scaled: &[f64], weights: &[f64], out: &mut Vec<f64>) {
    let total = kernels::sqrt_mul_sum(weights, scaled, out);
    if total <= 0.0 || !total.is_finite() {
        out.iter_mut().for_each(|x| *x = 0.0);
        return;
    }
    kernels::scale_div(out, total);
}

/// `min max_k (a_k + e_k/c_k)` s.t. `Σ c_k = 1`. Returns `(λ*, shares)`.
/// Streams with `e_k = 0` get share 0 (their latency `a_k` may exceed λ*;
/// no allocation can help them, and the reported λ* covers served streams
/// only — callers that care take the max with those fixed latencies).
pub fn minmax_shares(demands: &[HyperbolicDemand]) -> (f64, Vec<f64>) {
    let mut out = Vec::new();
    let lambda = minmax_shares_into(demands, &mut out);
    (lambda, out)
}

/// [`minmax_shares`] writing into a caller-owned buffer (cleared first);
/// returns `λ*`. Identical arithmetic, no allocation when `out` has
/// capacity. All reads go through `sanitize` so directly-constructed
/// demands with NaN/∞ components cannot hang the bracket search or emit
/// NaN shares; for valid inputs every sanitized read is bit-identical to
/// the raw one.
fn minmax_shares_into(demands: &[HyperbolicDemand], out: &mut Vec<f64>) -> f64 {
    let fixed: Vec<f64> = demands.iter().map(|d| sanitize(d.fixed)).collect();
    let scaled: Vec<f64> = demands.iter().map(|d| sanitize(d.scaled)).collect();
    let mut scratch = AllocScratch::default();
    minmax_shares_cols(
        &fixed,
        &scaled,
        &mut scratch.served_fixed,
        &mut scratch.served_scaled,
        out,
    )
}

/// Column (SoA) core of [`minmax_shares`] over pre-sanitized
/// parallel columns. Served streams (`scaled > 0`) are compacted once —
/// order-preserving — into the two scratch columns so the bisection's
/// `g(λ) = Σ e/(λ−a)` evaluations run branch-free 4-lane sweeps
/// ([`kernels::ratio_sum`]) instead of re-filtering the full columns per
/// iteration. Every sum keeps the original element order, so brackets,
/// bisection decisions, λ*, and shares are bit-identical to the AoS path.
pub fn minmax_shares_cols(
    fixed: &[f64],
    scaled: &[f64],
    served_fixed: &mut Vec<f64>,
    served_scaled: &mut Vec<f64>,
    out: &mut Vec<f64>,
) -> f64 {
    let n = fixed.len().min(scaled.len());
    out.clear();
    out.resize(n, 0.0);
    served_fixed.clear();
    served_scaled.clear();
    for i in 0..n {
        if scaled[i] > 0.0 {
            served_fixed.push(fixed[i]);
            served_scaled.push(scaled[i]);
        }
    }
    if served_fixed.is_empty() {
        return fixed[..n].iter().copied().fold(0.0, f64::max);
    }
    // g(λ) = Σ e/(λ - a) is strictly decreasing for λ > max a; find g = 1.
    let a_max = served_fixed
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let g = |lambda: f64| -> f64 { kernels::ratio_sum(served_scaled, served_fixed, lambda) };
    // Bracket: lo slightly above a_max (g → ∞), hi doubling until g < 1.
    // With sanitized components hi − a_k ≥ e_sum, so g(hi) ≤ 1 already at
    // the first hi; the doubling loop and its cap are a pure safety net.
    let e_sum = kernels::seq_sum(served_scaled);
    let mut lo = a_max;
    let mut hi = a_max + e_sum.max(1e-12); // g(hi) ≤ Σe/e_sum... may be ≥ 1
    let mut bracket_iters = 0;
    while g(hi) > 1.0 && bracket_iters < 2048 {
        hi = a_max + (hi - a_max) * 2.0;
        bracket_iters += 1;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid <= a_max || g(mid) > 1.0 {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-15 * hi.abs().max(1.0) {
            break;
        }
    }
    let lambda = hi;
    for i in 0..n {
        if scaled[i] > 0.0 {
            out[i] = scaled[i] / (lambda - fixed[i]);
        }
    }
    // Normalize the residual bisection error exactly onto the simplex.
    let s = kernels::seq_sum(out);
    if s > 0.0 && s.is_finite() {
        kernels::scale_div(out, s);
    }
    lambda
}

/// Whether deadlines `d_k` are jointly feasible: every stream needs
/// `c_k ≥ e_k/(D_k − a_k)`, so feasibility is `Σ e_k/(D_k − a_k) ≤ 1`.
/// A stream with `a_k ≥ D_k` and `e_k > 0` is infeasible outright.
#[cfg(test)]
fn deadline_feasible(demands: &[HyperbolicDemand], deadlines: &[f64]) -> bool {
    let fixed: Vec<f64> = demands.iter().map(|d| sanitize(d.fixed)).collect();
    let scaled: Vec<f64> = demands.iter().map(|d| sanitize(d.scaled)).collect();
    let dls: Vec<f64> = (0..demands.len())
        .map(|i| deadlines.get(i).copied().unwrap_or(f64::INFINITY))
        .collect();
    deadline_feasible_cols(&fixed, &scaled, &dls)
}

/// Whether deadlines are jointly feasible (`Σ e_k/(D_k − a_k) ≤ 1`),
/// over columns: `fixed`/`scaled` are pre-sanitized, `deadlines` stays
/// **raw** — NaN deadlines propagate into a NaN `need`, which fails the
/// final comparison, so a malformed instance reads as infeasible instead
/// of panicking (sanitizing the deadline would silently flip it to
/// feasible).
fn deadline_feasible_cols(fixed: &[f64], scaled: &[f64], deadlines: &[f64]) -> bool {
    let n = fixed.len().min(scaled.len());
    let mut need = 0.0;
    for i in 0..n {
        let dl = deadlines.get(i).copied().unwrap_or(f64::INFINITY);
        let (a, e) = (fixed[i], scaled[i]);
        if e == 0.0 {
            if a > dl || dl.is_nan() {
                return false;
            }
            continue;
        }
        let slack = dl - a;
        if slack <= 0.0 {
            return false;
        }
        need += e / slack;
    }
    need <= 1.0 + 1e-12
}

/// Deadline-respecting shares: every stream gets at least its mandatory
/// minimum `e_k/(D_k − a_k)`, and the remaining capacity is distributed by
/// *clipped water-filling* — the weighted-sum optimum subject to those
/// floors (`c_k = max(mn_k, √(w_k e_k)/ν)` with `ν` bisected so the shares
/// fill the simplex; exact by KKT for the box-constrained program).
/// Returns `None` if the deadlines are jointly infeasible.
pub fn deadline_shares(
    demands: &[HyperbolicDemand],
    deadlines: &[f64],
    weights: &[f64],
) -> Option<Vec<f64>> {
    let mut out = Vec::new();
    let mut roots = Vec::new();
    if deadline_shares_into(demands, deadlines, weights, &mut roots, &mut out) {
        Some(out)
    } else {
        None
    }
}

/// [`deadline_shares`] checking that the inputs line up instead of
/// silently padding; `Ok(None)` means the deadlines are jointly
/// infeasible.
pub fn try_deadline_shares(
    demands: &[HyperbolicDemand],
    deadlines: &[f64],
    weights: &[f64],
) -> Result<Option<Vec<f64>>, AllocError> {
    if demands.len() != deadlines.len() {
        return Err(AllocError::LengthMismatch {
            demands: demands.len(),
            companion: deadlines.len(),
        });
    }
    if demands.len() != weights.len() {
        return Err(AllocError::LengthMismatch {
            demands: demands.len(),
            companion: weights.len(),
        });
    }
    Ok(deadline_shares(demands, deadlines, weights))
}

/// [`deadline_shares`] writing into caller-owned buffers: `out` receives
/// the shares, `roots` is bisection scratch. Returns `false` when the
/// deadlines are jointly infeasible (then `out`'s contents are
/// unspecified). The bisection evaluates the share *sum* directly —
/// accumulated in the same element order as the original per-iteration
/// vector, so the bracket, every bisection decision, and the final shares
/// are bit-identical — without allocating a vector per iteration.
fn deadline_shares_into(
    demands: &[HyperbolicDemand],
    deadlines: &[f64],
    weights: &[f64],
    roots: &mut Vec<f64>,
    out: &mut Vec<f64>,
) -> bool {
    // Missing deadlines read as `+∞` (zero minimum), missing weights as
    // `0.0`, matching `deadline_feasible`'s padding.
    let fixed: Vec<f64> = demands.iter().map(|d| sanitize(d.fixed)).collect();
    let scaled: Vec<f64> = demands.iter().map(|d| sanitize(d.scaled)).collect();
    let dls: Vec<f64> = (0..demands.len())
        .map(|i| deadlines.get(i).copied().unwrap_or(f64::INFINITY))
        .collect();
    let w: Vec<f64> = (0..demands.len())
        .map(|i| sanitize(weights.get(i).copied().unwrap_or(0.0)))
        .collect();
    deadline_shares_cols(&fixed, &scaled, &dls, &w, roots, out)
}

/// Column (SoA) core of [`deadline_shares`]: `fixed`/`scaled`/
/// `weights` are pre-sanitized, `deadlines` stays raw (NaN ⇒ infeasible,
/// as in the feasibility check). The bisection objective
/// `Σ max(√(w_k e_k)/ν, min_k)` is branch-free — a stream with
/// `scaled == 0` has root 0 and minimum 0, so `max(0/ν, 0) = 0` drops out
/// of the sum without the old per-element branch — and runs as a 4-lane
/// [`kernels::clipped_share_sum`] sweep in the original element order, so
/// every bracket and bisection decision is bit-identical to the AoS path.
/// The 200-iteration bisection additionally stops early once an
/// iteration leaves `(lo, hi)` bitwise unchanged: `mid` then recomputes
/// identically and every remaining iteration is a no-op, so breaking
/// changes nothing — it just stops paying for converged iterations.
pub fn deadline_shares_cols(
    fixed: &[f64],
    scaled: &[f64],
    deadlines: &[f64],
    weights: &[f64],
    roots: &mut Vec<f64>,
    out: &mut Vec<f64>,
) -> bool {
    if !deadline_feasible_cols(fixed, scaled, deadlines) {
        return false;
    }
    let n = fixed.len().min(scaled.len());
    // `out` carries the per-stream minimums until the final fill.
    out.clear();
    out.extend((0..n).map(|i| {
        let dl = deadlines.get(i).copied().unwrap_or(f64::INFINITY);
        let e = scaled[i];
        if e == 0.0 {
            0.0
        } else {
            e / (dl - fixed[i])
        }
    }));
    let used = kernels::seq_sum(out);
    if used >= 1.0 {
        return true;
    }
    let total_root = kernels::sqrt_mul_sum(weights, scaled, roots);
    if total_root <= 0.0 {
        return true;
    }
    let mins: &[f64] = out;
    // Σ share_at(ν) is decreasing in ν; find Σ = 1. At ν = total_root the
    // unclipped water-filling sums to exactly 1, so clipping can only push
    // the sum above 1 — bracket upward from there.
    let mut lo = total_root;
    let mut hi = total_root;
    while kernels::clipped_share_sum(roots, mins, hi) > 1.0 {
        hi *= 2.0;
        if hi > 1e30 {
            break;
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let (prev_lo, prev_hi) = (lo.to_bits(), hi.to_bits());
        if kernels::clipped_share_sum(roots, mins, mid) > 1.0 {
            lo = mid;
        } else {
            hi = mid;
        }
        if lo.to_bits() == prev_lo && hi.to_bits() == prev_hi {
            break;
        }
    }
    kernels::clipped_fill_inplace(roots, hi, out);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(fixed: f64, scaled: f64) -> HyperbolicDemand {
        HyperbolicDemand::new(fixed, scaled)
    }

    #[test]
    fn weighted_sum_closed_form_small_case() {
        // two identical streams -> equal shares
        let shares = weighted_sum_shares(&[d(0.0, 1.0), d(0.0, 1.0)], &[1.0, 1.0]);
        assert!((shares[0] - 0.5).abs() < 1e-12);
        // e ratio 4:1 -> share ratio 2:1
        let shares = weighted_sum_shares(&[d(0.0, 4.0), d(0.0, 1.0)], &[1.0, 1.0]);
        assert!((shares[0] / shares[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_sum_satisfies_kkt_stationarity() {
        // At the optimum, w_k e_k / c_k^2 equal across streams (the
        // Lagrange multiplier).
        let demands = [d(0.1, 2.0), d(0.3, 0.5), d(0.0, 1.7)];
        let weights = [1.0, 2.5, 0.7];
        let shares = weighted_sum_shares(&demands, &weights);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let mu0 = weights[0] * demands[0].scaled / (shares[0] * shares[0]);
        for i in 1..3 {
            let mu = weights[i] * demands[i].scaled / (shares[i] * shares[i]);
            assert!((mu - mu0).abs() < 1e-6 * mu0, "KKT violated: {mu} vs {mu0}");
        }
    }

    #[test]
    fn weighted_sum_beats_equal_split() {
        let demands = [d(0.0, 5.0), d(0.0, 0.2), d(0.0, 1.0)];
        let weights = [1.0, 1.0, 1.0];
        let opt = weighted_sum_shares(&demands, &weights);
        let cost = |shares: &[f64]| -> f64 {
            demands
                .iter()
                .zip(shares)
                .map(|(dd, &c)| dd.latency(c))
                .sum()
        };
        let equal = vec![1.0 / 3.0; 3];
        assert!(cost(&opt) < cost(&equal));
    }

    #[test]
    fn zero_demand_streams_get_zero_share() {
        let shares = weighted_sum_shares(&[d(0.5, 0.0), d(0.0, 1.0)], &[1.0, 1.0]);
        assert_eq!(shares[0], 0.0);
        assert!((shares[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn minmax_equalizes_latencies() {
        let demands = [d(0.02, 1.0), d(0.10, 0.4), d(0.0, 2.0)];
        let (lambda, shares) = minmax_shares(&demands);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for (dd, &c) in demands.iter().zip(&shares) {
            let lat = dd.latency(c);
            assert!((lat - lambda).abs() < 1e-6 * lambda, "{lat} vs {lambda}");
        }
    }

    #[test]
    fn minmax_is_optimal_vs_perturbations() {
        let demands = [d(0.01, 0.7), d(0.05, 0.9)];
        let (lambda, shares) = minmax_shares(&demands);
        // Moving share between the two must raise the max latency.
        for delta in [-0.05, 0.05] {
            let pert = [shares[0] + delta, shares[1] - delta];
            if pert.iter().all(|&c| c > 0.0) {
                let m = demands
                    .iter()
                    .zip(&pert)
                    .map(|(dd, &c)| dd.latency(c))
                    .fold(0.0, f64::max);
                assert!(m >= lambda - 1e-9);
            }
        }
    }

    #[test]
    fn minmax_with_all_zero_demands() {
        let (lambda, shares) = minmax_shares(&[d(0.3, 0.0), d(0.7, 0.0)]);
        assert_eq!(lambda, 0.7);
        assert_eq!(shares, vec![0.0, 0.0]);
    }

    #[test]
    fn deadline_feasibility_threshold() {
        // two streams, each needs 0.5 share exactly
        let demands = [d(0.1, 0.45), d(0.1, 0.45)];
        assert!(deadline_feasible(&demands, &[1.0, 1.0]));
        // tighten one deadline so it needs 0.9 share
        assert!(!deadline_feasible(&demands, &[0.6, 1.0]));
        // a stream already late on fixed time alone
        assert!(!deadline_feasible(&[d(2.0, 0.1)], &[1.0]));
        // zero-demand stream with met deadline is fine
        assert!(deadline_feasible(&[d(0.2, 0.0)], &[0.5]));
    }

    #[test]
    fn deadline_shares_respect_minimums_and_simplex() {
        let demands = [d(0.02, 0.3), d(0.05, 0.2), d(0.0, 0.1)];
        let deadlines = [1.0, 0.8, 1.0];
        let shares = deadline_shares(&demands, &deadlines, &[1.0, 1.0, 1.0]).unwrap();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        for ((dd, &dl), &c) in demands.iter().zip(&deadlines).zip(&shares) {
            assert!(dd.latency(c) <= dl + 1e-9, "deadline violated");
        }
    }

    #[test]
    fn deadline_shares_none_when_infeasible() {
        let demands = [d(0.1, 0.9), d(0.1, 0.9)];
        assert!(deadline_shares(&demands, &[0.5, 0.5], &[1.0, 1.0]).is_none());
    }

    #[test]
    fn latency_helper_handles_edges() {
        assert_eq!(d(0.3, 0.0).latency(0.0), 0.3);
        assert!(d(0.0, 1.0).latency(0.0).is_infinite());
        assert!((d(0.1, 1.0).latency(0.5) - 2.1).abs() < 1e-12);
    }
}
