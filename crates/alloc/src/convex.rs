//! Exact solvers for hyperbolic share-allocation programs.
//!
//! Every stream on a shared resource (server capacity, AP spectrum) sees
//! latency `L_k(c_k) = a_k + e_k / c_k` with `Σ c_k ≤ 1`, `c_k > 0`:
//!
//! * **Weighted sum** `min Σ w_k L_k` — KKT gives the closed-form
//!   water-filling `c_k* ∝ √(w_k e_k)`.
//! * **Deadlines** — feasibility is `Σ e_k/(D_k − a_k) ≤ 1`; the
//!   deadline shares distribute the slack by clipped water-filling
//!   (weighted-sum-optimal subject to the per-stream minimums).
//!
//! The solvers take parallel columns (`a_k` in `fixed`, `e_k` in
//! `scaled`) that the caller has already passed through [`sanitize`].

use scalpel_kernels as kernels;

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
}

/// `min Σ w_k (a_k + e_k/c_k)` s.t. `Σ c_k = 1`: the KKT water-filling
/// `c_k = √(w_k e_k) / Σ_j √(w_j e_j)` over pre-sanitized parallel
/// columns, written into `out` (cleared first). Streams with `e_k = 0`
/// receive 0; all zeros if nothing needs the resource. The root pass and
/// strict-order reduction run in one fused [`kernels::sqrt_mul_sum`]
/// sweep.
pub fn weighted_sum_shares_cols(scaled: &[f64], weights: &[f64], out: &mut Vec<f64>) {
    let total = kernels::sqrt_mul_sum(weights, scaled, out);
    if total <= 0.0 || !total.is_finite() {
        out.iter_mut().for_each(|x| *x = 0.0);
        return;
    }
    kernels::scale_div(out, total);
}

/// Whether deadlines are jointly feasible (`Σ e_k/(D_k − a_k) ≤ 1`),
/// over columns: `fixed`/`scaled` are pre-sanitized, `deadlines` stays
/// **raw** — NaN deadlines propagate into a NaN `need`, which fails the
/// final comparison, so a malformed instance reads as infeasible instead
/// of panicking (sanitizing the deadline would silently flip it to
/// feasible). A stream with `a_k ≥ D_k` and `e_k > 0` is infeasible
/// outright; a missing deadline reads as `+∞`.
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
///
/// `fixed`/`scaled`/`weights` are pre-sanitized, `deadlines` stays raw
/// (NaN ⇒ infeasible, as in the feasibility check). `out` receives the
/// shares and `roots` is bisection scratch. Returns `false` when the
/// deadlines are jointly infeasible (then `out`'s contents are
/// unspecified).
///
/// The bisection objective `Σ max(√(w_k e_k)/ν, min_k)` is branch-free —
/// a stream with `scaled == 0` has root 0 and minimum 0, so
/// `max(0/ν, 0) = 0` drops out of the sum — and runs as a 4-lane
/// [`kernels::clipped_share_sum`] sweep in element order. The
/// 200-iteration bisection stops early once an iteration leaves
/// `(lo, hi)` bitwise unchanged: `mid` then recomputes identically and
/// every remaining iteration is a no-op, so breaking changes nothing — it
/// just stops paying for converged iterations.
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

    fn weighted_sum(scaled: &[f64], weights: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        weighted_sum_shares_cols(scaled, weights, &mut out);
        out
    }

    fn deadline(fixed: &[f64], scaled: &[f64], deadlines: &[f64]) -> Option<Vec<f64>> {
        let weights = vec![1.0; fixed.len()];
        let (mut roots, mut out) = (Vec::new(), Vec::new());
        deadline_shares_cols(fixed, scaled, deadlines, &weights, &mut roots, &mut out)
            .then_some(out)
    }

    #[test]
    fn weighted_sum_closed_form_small_case() {
        // two identical streams -> equal shares
        let shares = weighted_sum(&[1.0, 1.0], &[1.0, 1.0]);
        assert!((shares[0] - 0.5).abs() < 1e-12);
        // e ratio 4:1 -> share ratio 2:1
        let shares = weighted_sum(&[4.0, 1.0], &[1.0, 1.0]);
        assert!((shares[0] / shares[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_sum_satisfies_kkt_stationarity() {
        // At the optimum, w_k e_k / c_k^2 equal across streams (the
        // Lagrange multiplier).
        let scaled = [2.0, 0.5, 1.7];
        let weights = [1.0, 2.5, 0.7];
        let shares = weighted_sum(&scaled, &weights);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let mu0 = weights[0] * scaled[0] / (shares[0] * shares[0]);
        for i in 1..3 {
            let mu = weights[i] * scaled[i] / (shares[i] * shares[i]);
            assert!((mu - mu0).abs() < 1e-6 * mu0, "KKT violated: {mu} vs {mu0}");
        }
    }

    #[test]
    fn weighted_sum_beats_equal_split() {
        let scaled = [5.0, 0.2, 1.0];
        let opt = weighted_sum(&scaled, &[1.0, 1.0, 1.0]);
        let cost = |shares: &[f64]| -> f64 { scaled.iter().zip(shares).map(|(e, c)| e / c).sum() };
        let equal = vec![1.0 / 3.0; 3];
        assert!(cost(&opt) < cost(&equal));
    }

    #[test]
    fn zero_demand_streams_get_zero_share() {
        let shares = weighted_sum(&[0.0, 1.0], &[1.0, 1.0]);
        assert_eq!(shares[0], 0.0);
        assert!((shares[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deadline_feasibility_threshold() {
        // two streams, each needs 0.5 share exactly
        let (fixed, scaled) = ([0.1, 0.1], [0.45, 0.45]);
        assert!(deadline_feasible_cols(&fixed, &scaled, &[1.0, 1.0]));
        // tighten one deadline so it needs 0.9 share
        assert!(!deadline_feasible_cols(&fixed, &scaled, &[0.6, 1.0]));
        // a stream already late on fixed time alone
        assert!(!deadline_feasible_cols(&[2.0], &[0.1], &[1.0]));
        // zero-demand stream with met deadline is fine
        assert!(deadline_feasible_cols(&[0.2], &[0.0], &[0.5]));
    }

    #[test]
    fn deadline_shares_respect_minimums_and_simplex() {
        let (fixed, scaled) = ([0.02, 0.05, 0.0], [0.3, 0.2, 0.1]);
        let deadlines = [1.0, 0.8, 1.0];
        let shares = deadline(&fixed, &scaled, &deadlines).unwrap();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        for i in 0..3 {
            let latency = fixed[i] + scaled[i] / shares[i];
            assert!(latency <= deadlines[i] + 1e-9, "deadline violated");
        }
    }

    #[test]
    fn deadline_shares_none_when_infeasible() {
        assert!(deadline(&[0.1, 0.1], &[0.9, 0.9], &[0.5, 0.5]).is_none());
    }
}
