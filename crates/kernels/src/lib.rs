//! # scalpel-kernels — hand-unrolled f64x4 hot-loop primitives
//!
//! The solver and simulator hot paths (KKT water-filling, the clipped
//! water-filling bisection, processor-sharing drain and head selection)
//! are short reductions over flat f64 columns. Written as naive iterator
//! chains they serialize on one scalar add/divide per element; written as
//! 4-lane unrolled loops the *elementwise* work (divide, multiply, sqrt,
//! max) becomes independent across lanes — LLVM packs it into SSE2/AVX
//! vector ops and the four hardware dividers pipeline — while the
//! *reduction* stays under our explicit control.
//!
//! ## Bit-exactness contract
//!
//! Every kernel is **bit-exact**: IEEE-754 elementwise operations (`*`,
//! `/`, `sqrt`, `max`) are exactly rounded, so computing four of them at
//! once changes nothing, and every sum is accumulated in the same strict
//! element order a naive scalar loop uses. Result: identical bits to the
//! reference loop, always, so the kernels are safe inside the solver
//! paths whose outputs are pinned bitwise (trace parity, golden
//! snapshots). [`min_fast`] splits its reduction across four lanes, but
//! `min` is associative and commutative exactly (for NaN-free inputs), so
//! it is still bitwise equal to the sequential fold.
//!
//! ## `kernel-xcheck`
//!
//! With the `kernel-xcheck` feature enabled, every kernel call also runs
//! its scalar reference implementation and asserts bitwise agreement.
//! This is the allocation-layer analogue of the `eval-xcheck`
//! oracle: turn it on in CI and any divergence between the unrolled and
//! reference paths aborts loudly at the first call.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

const LANES: usize = 4;

#[cfg(feature = "kernel-xcheck")]
#[inline]
fn xcheck_bits(kernel: &str, got: f64, reference: f64) {
    assert!(
        got.to_bits() == reference.to_bits(),
        "kernel-xcheck: {kernel} diverged from scalar reference: {got:?} vs {reference:?}"
    );
}

/// Sequential sum in strict element order — the reference reduction every
/// bit-exact kernel accumulates with. **Bit-exact** by definition.
#[inline]
pub fn seq_sum(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for &x in xs {
        acc += x;
    }
    acc
}

/// `out[i] = (a[i] * b[i]).sqrt()` for the common prefix of `a`/`b`,
/// returning the strict-order sum of the outputs. This is the
/// water-filling root pass `r_k = √(w_k e_k)`, `Σ_k r_k` fused into one
/// sweep. **Bit-exact**: multiply and sqrt are exactly rounded per
/// element and the sum runs in element order.
pub fn sqrt_mul_sum(a: &[f64], b: &[f64], out: &mut Vec<f64>) -> f64 {
    let n = a.len().min(b.len());
    out.clear();
    out.reserve(n);
    let mut acc = 0.0;
    let mut i = 0;
    while i + LANES <= n {
        let r0 = (a[i] * b[i]).sqrt();
        let r1 = (a[i + 1] * b[i + 1]).sqrt();
        let r2 = (a[i + 2] * b[i + 2]).sqrt();
        let r3 = (a[i + 3] * b[i + 3]).sqrt();
        out.extend_from_slice(&[r0, r1, r2, r3]);
        acc += r0;
        acc += r1;
        acc += r2;
        acc += r3;
        i += LANES;
    }
    while i < n {
        let r = (a[i] * b[i]).sqrt();
        out.push(r);
        acc += r;
        i += 1;
    }
    #[cfg(feature = "kernel-xcheck")]
    {
        let mut racc = 0.0;
        for (j, (&x, &y)) in a.iter().zip(b.iter()).take(n).enumerate() {
            let r = (x * y).sqrt();
            xcheck_bits("sqrt_mul_sum[elem]", out[j], r);
            racc += r;
        }
        xcheck_bits("sqrt_mul_sum", acc, racc);
    }
    acc
}

/// The clipped-water-filling bisection objective
/// `Σ_k max(roots[k] / nu, mins[k])` over the common prefix, summed in
/// strict element order. The four divides per step are independent, so
/// they pipeline (or pack into `divpd`); only the adds serialize.
/// **Bit-exact.**
pub fn clipped_share_sum(roots: &[f64], mins: &[f64], nu: f64) -> f64 {
    let n = roots.len().min(mins.len());
    let mut acc = 0.0;
    let mut i = 0;
    while i + LANES <= n {
        let q0 = (roots[i] / nu).max(mins[i]);
        let q1 = (roots[i + 1] / nu).max(mins[i + 1]);
        let q2 = (roots[i + 2] / nu).max(mins[i + 2]);
        let q3 = (roots[i + 3] / nu).max(mins[i + 3]);
        acc += q0;
        acc += q1;
        acc += q2;
        acc += q3;
        i += LANES;
    }
    while i < n {
        acc += (roots[i] / nu).max(mins[i]);
        i += 1;
    }
    #[cfg(feature = "kernel-xcheck")]
    {
        let mut racc = 0.0;
        for (&r, &m) in roots.iter().zip(mins.iter()).take(n) {
            racc += (r / nu).max(m);
        }
        xcheck_bits("clipped_share_sum", acc, racc);
    }
    acc
}

/// `out[i] = max(roots[i] / nu, mins[i])` elementwise over the common
/// prefix — the final share fill after the clipped-water-filling
/// bisection converges. `out` must be at least that long. **Bit-exact.**
pub fn clipped_fill(roots: &[f64], mins: &[f64], nu: f64, out: &mut [f64]) {
    let n = roots.len().min(mins.len()).min(out.len());
    let mut i = 0;
    while i + LANES <= n {
        out[i] = (roots[i] / nu).max(mins[i]);
        out[i + 1] = (roots[i + 1] / nu).max(mins[i + 1]);
        out[i + 2] = (roots[i + 2] / nu).max(mins[i + 2]);
        out[i + 3] = (roots[i + 3] / nu).max(mins[i + 3]);
        i += LANES;
    }
    while i < n {
        out[i] = (roots[i] / nu).max(mins[i]);
        i += 1;
    }
    #[cfg(feature = "kernel-xcheck")]
    for (j, (&r, &m)) in roots.iter().zip(mins.iter()).take(n).enumerate() {
        xcheck_bits("clipped_fill", out[j], (r / nu).max(m));
    }
}

/// `out[i] /= d` elementwise — the simplex normalization after a
/// water-filling or bisection solve. **Bit-exact** (division is exactly
/// rounded per element; no reduction involved).
pub fn scale_div(out: &mut [f64], d: f64) {
    let n = out.len();
    let mut i = 0;
    while i + LANES <= n {
        out[i] /= d;
        out[i + 1] /= d;
        out[i + 2] /= d;
        out[i + 3] /= d;
        i += LANES;
    }
    while i < n {
        out[i] /= d;
        i += 1;
    }
}

/// In-place variant of [`clipped_fill`]: `mins_out[i] =
/// max(roots[i] / nu, mins_out[i])` — the deadline solver's final fill,
/// which overwrites the minimums buffer with the shares. **Bit-exact.**
pub fn clipped_fill_inplace(roots: &[f64], nu: f64, mins_out: &mut [f64]) {
    let n = roots.len().min(mins_out.len());
    let mut i = 0;
    while i + LANES <= n {
        mins_out[i] = (roots[i] / nu).max(mins_out[i]);
        mins_out[i + 1] = (roots[i + 1] / nu).max(mins_out[i + 1]);
        mins_out[i + 2] = (roots[i + 2] / nu).max(mins_out[i + 2]);
        mins_out[i + 3] = (roots[i + 3] / nu).max(mins_out[i + 3]);
        i += LANES;
    }
    while i < n {
        mins_out[i] = (roots[i] / nu).max(mins_out[i]);
        i += 1;
    }
}

/// 4-lane minimum reduce; `+∞` for an empty slice. `min` is exactly
/// associative and commutative for NaN-free inputs, so despite the lane
/// split this is **bit-exact** vs `fold(+∞, f64::min)` on such inputs
/// (NaN entries are ignored, per `f64::min` semantics, in both).
pub fn min_fast(xs: &[f64]) -> f64 {
    let n = xs.len();
    let mut m0 = f64::INFINITY;
    let mut m1 = f64::INFINITY;
    let mut m2 = f64::INFINITY;
    let mut m3 = f64::INFINITY;
    let mut i = 0;
    while i + LANES <= n {
        m0 = m0.min(xs[i]);
        m1 = m1.min(xs[i + 1]);
        m2 = m2.min(xs[i + 2]);
        m3 = m3.min(xs[i + 3]);
        i += LANES;
    }
    let mut m = m0.min(m1).min(m2).min(m3);
    while i < n {
        m = m.min(xs[i]);
        i += 1;
    }
    #[cfg(feature = "kernel-xcheck")]
    xcheck_bits(
        "min_fast",
        m,
        xs.iter().fold(f64::INFINITY, |a, &x| a.min(x)),
    );
    m
}

/// Total-order lexicographic argmin over `(vtag, seq)` — the scalar
/// reference for [`served_head`].
fn served_head_scalar(vtags: &[f64], seqs: &[u64], n: usize) -> usize {
    let mut best = 0;
    for i in 1..n {
        match vtags[i].total_cmp(&vtags[best]) {
            std::cmp::Ordering::Less => best = i,
            std::cmp::Ordering::Equal if seqs[i] < seqs[best] => best = i,
            _ => {}
        }
    }
    best
}

/// Index of the head of a weighted-PS station in columnar form: the entry
/// with the smallest `(vtag, seq)` under `f64::total_cmp` — exactly the
/// element a max-`BinaryHeap` of reverse-ordered `(vtag, seq)` entries
/// would peek. `None` for an empty station.
///
/// The fast path is a 4-lane [`min_fast`] sweep followed by a bit-match
/// scan resolving ties by `seq`; inputs that break the lane reduction's
/// equivalence with the total order (NaN tags, a ±0.0 minimum) fall back
/// to the scalar scan, so the result is **bit-exact** vs the total-order
/// reference for *all* inputs.
pub fn served_head(vtags: &[f64], seqs: &[u64]) -> Option<usize> {
    let n = vtags.len().min(seqs.len());
    if n == 0 {
        return None;
    }
    let m = min_fast(&vtags[..n]);
    let mb = m.to_bits();
    let mut best: Option<usize> = None;
    let mut has_nan = false;
    for (i, &v) in vtags.iter().take(n).enumerate() {
        has_nan |= v.is_nan();
        if v.to_bits() == mb && best.is_none_or(|b| seqs[i] < seqs[b]) {
            best = Some(i);
        }
    }
    let head = match best {
        // `min` may return either sign of a zero minimum, making the
        // bit-match scan unsound there; NaN tags sort by sign bit under
        // `total_cmp`, which the NaN-ignoring `min` cannot see.
        Some(b) if !has_nan && m != 0.0 => b,
        _ => served_head_scalar(vtags, seqs, n),
    };
    #[cfg(feature = "kernel-xcheck")]
    assert!(
        head == served_head_scalar(vtags, seqs, n),
        "kernel-xcheck: served_head diverged from scalar reference: {head} vs {}",
        served_head_scalar(vtags, seqs, n)
    );
    Some(head)
}

/// `remaining[i] -= (c * weights[i]) / d` over the common prefix — the
/// fair-share drain of a processor-sharing station: `c` is the capacity
/// integrated over the elapsed interval (`dt · capacity`), `weights[i]/d`
/// each entry's share of it. **Bit-exact**: multiply, divide and subtract
/// are exactly rounded per element; no reduction is involved.
pub fn drain_shares(remaining: &mut [f64], c: f64, weights: &[f64], d: f64) {
    let n = remaining.len().min(weights.len());
    #[cfg(feature = "kernel-xcheck")]
    let orig: Vec<f64> = remaining[..n].to_vec();
    let mut i = 0;
    while i + LANES <= n {
        remaining[i] -= c * weights[i] / d;
        remaining[i + 1] -= c * weights[i + 1] / d;
        remaining[i + 2] -= c * weights[i + 2] / d;
        remaining[i + 3] -= c * weights[i + 3] / d;
        i += LANES;
    }
    while i < n {
        remaining[i] -= c * weights[i] / d;
        i += 1;
    }
    #[cfg(feature = "kernel-xcheck")]
    for (j, (&o, &w)) in orig.iter().zip(weights.iter()).take(n).enumerate() {
        xcheck_bits("drain_shares", remaining[j], o - c * w / d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(n: usize, seed: u64) -> Vec<f64> {
        // Deterministic pseudo-random positives without external deps.
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 10_000) as f64 / 100.0 + 0.01
            })
            .collect()
    }

    #[test]
    fn seq_sum_matches_iter_sum_bitwise() {
        for n in 0..=19 {
            let xs = col(n, 7);
            // Explicit fold from +0.0: std's `Iterator::sum` seeds with -0.0,
            // which differs bitwise on the empty slice.
            let reference: f64 = xs.iter().fold(0.0, |a, &x| a + x);
            assert_eq!(seq_sum(&xs).to_bits(), reference.to_bits(), "n={n}");
        }
    }

    #[test]
    fn sqrt_mul_sum_is_bit_exact_across_tails() {
        for n in 0..=19 {
            let a = col(n, 1);
            let b = col(n, 2);
            let mut out = Vec::new();
            let s = sqrt_mul_sum(&a, &b, &mut out);
            let mut racc = 0.0;
            for i in 0..n {
                let r = (a[i] * b[i]).sqrt();
                assert_eq!(out[i].to_bits(), r.to_bits());
                racc += r;
            }
            assert_eq!(s.to_bits(), racc.to_bits(), "n={n}");
        }
    }

    #[test]
    fn clipped_share_sum_and_fill_are_bit_exact() {
        for n in 0..=19 {
            let roots = col(n, 3);
            let mins = col(n, 4);
            for nu in [0.5, 1.0, 123.456] {
                let s = clipped_share_sum(&roots, &mins, nu);
                let reference: f64 = roots
                    .iter()
                    .zip(&mins)
                    .map(|(&r, &m)| (r / nu).max(m))
                    .fold(0.0, |acc, q| acc + q);
                assert_eq!(s.to_bits(), reference.to_bits(), "n={n} nu={nu}");
                let mut out = vec![0.0; n];
                clipped_fill(&roots, &mins, nu, &mut out);
                for i in 0..n {
                    assert_eq!(out[i].to_bits(), ((roots[i] / nu).max(mins[i])).to_bits());
                }
                let mut inplace = mins.clone();
                clipped_fill_inplace(&roots, nu, &mut inplace);
                for i in 0..n {
                    assert_eq!(inplace[i].to_bits(), out[i].to_bits());
                }
            }
        }
    }

    #[test]
    fn scale_div_matches_scalar() {
        for n in 0..=19 {
            let mut xs = col(n, 8);
            let reference: Vec<f64> = xs.iter().map(|&x| x / 3.7).collect();
            scale_div(&mut xs, 3.7);
            for i in 0..n {
                assert_eq!(xs[i].to_bits(), reference[i].to_bits());
            }
        }
    }

    #[test]
    fn served_head_matches_total_order_scan() {
        for n in 0..=19 {
            let vtags = col(n, 12);
            let seqs: Vec<u64> = (0..n as u64).rev().collect();
            let got = served_head(&vtags, &seqs);
            if n == 0 {
                assert_eq!(got, None);
            } else {
                assert_eq!(got, Some(served_head_scalar(&vtags, &seqs, n)), "n={n}");
            }
        }
    }

    #[test]
    fn served_head_breaks_ties_by_seq() {
        // Equal minimum tags: the smallest seq wins regardless of index.
        let vtags = [5.0, 1.0, 9.0, 1.0, 1.0];
        let seqs = [0u64, 7, 1, 3, 9];
        assert_eq!(served_head(&vtags, &seqs), Some(3));
    }

    #[test]
    fn served_head_degenerate_inputs_use_total_order() {
        // A negative-sign NaN is the total_cmp minimum.
        let neg_nan = f64::from_bits(f64::NAN.to_bits() | (1 << 63));
        assert_eq!(served_head(&[2.0, neg_nan, 1.0], &[0, 1, 2]), Some(1));
        // A positive NaN sorts after +∞: the finite min still wins.
        assert_eq!(served_head(&[2.0, f64::NAN, 1.0], &[0, 1, 2]), Some(2));
        // -0.0 sorts before +0.0 under total_cmp.
        assert_eq!(served_head(&[0.0, -0.0, 3.0], &[0, 1, 2]), Some(1));
        // All +∞ (fully starved station): seq order decides.
        let inf = f64::INFINITY;
        assert_eq!(served_head(&[inf, inf], &[5, 2]), Some(1));
    }

    #[test]
    fn drain_shares_is_bit_exact() {
        for n in 0..=19 {
            let orig = col(n, 13);
            let w = col(n, 14);
            let (c, d) = (1.75, 3.5);
            let mut got = orig.clone();
            drain_shares(&mut got, c, &w, d);
            for i in 0..n {
                let reference = orig[i] - c * w[i] / d;
                assert_eq!(got[i].to_bits(), reference.to_bits(), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn min_fast_matches_fold_bitwise() {
        for n in 0..=19 {
            let xs = col(n, 11);
            let reference = xs.iter().fold(f64::INFINITY, |a, &x| a.min(x));
            assert_eq!(min_fast(&xs).to_bits(), reference.to_bits(), "n={n}");
        }
        assert_eq!(min_fast(&[]), f64::INFINITY);
        assert_eq!(min_fast(&[f64::INFINITY, 3.0, f64::NAN, 1.0]), 1.0);
    }
}
