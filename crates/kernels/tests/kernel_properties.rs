//! Property-based scalar-vs-unrolled equivalence for every public kernel.
//!
//! The references here are deliberately naive scalar loops written
//! independently of the kernel bodies — a strict-order fold for every
//! reduction, a plain elementwise loop otherwise. Lengths are drawn to hit every 0..8 lane tail (the
//! unrolled loops switch from 4-lane body to scalar remainder there) as
//! well as multi-hundred-element columns; values cover the sanitized
//! range the solvers actually feed (non-negative, non-finite clamped to
//! zero) plus the all-zero degenerate column.

use proptest::prelude::*;
use scalpel_kernels::{
    clipped_fill, clipped_fill_inplace, clipped_share_sum, min_fast, scale_div, seq_sum,
    sqrt_mul_sum,
};

/// Lengths biased toward the lane-tail boundary (0..=8 covers every
/// remainder the 4-lane loops can leave) plus larger columns that run
/// the unrolled body many times.
fn lengths() -> impl Strategy<Value = usize> {
    prop_oneof![
        4 => 0usize..9,
        2 => 9usize..68,
        1 => 250usize..301,
    ]
}

/// A raw value stream including the garbage the solvers sanitize away —
/// NaN, infinities, negatives — mapped through the same clamp
/// `sanitize_shares` applies (non-finite or negative → 0.0). The kernels
/// themselves only ever see sanitized columns, so that is the input
/// space the equivalence must hold on. Keeping zeros in the stream also
/// exercises the all-zero-weight shape whenever the length is small.
fn sanitized(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            6 => 1e-6f64..1e6,
            1 => Just(0.0f64),
            1 => Just(f64::NAN),
            1 => Just(f64::INFINITY),
            1 => Just(-1.0f64),
        ],
        n,
    )
    .prop_map(|xs| {
        xs.into_iter()
            .map(|x| if x.is_finite() && x >= 0.0 { x } else { 0.0 })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn seq_sum_is_bitwise_the_strict_fold(xs in lengths().prop_flat_map(sanitized)) {
        let reference = xs.iter().fold(0.0f64, |a, &x| a + x);
        prop_assert_eq!(seq_sum(&xs).to_bits(), reference.to_bits());
    }

    #[test]
    fn sqrt_mul_sum_is_bitwise_elementwise_and_in_sum(
        cols in lengths().prop_flat_map(|n| (sanitized(n), sanitized(n))),
    ) {
        let (a, b) = cols;
        let mut out = Vec::new();
        let s = sqrt_mul_sum(&a, &b, &mut out);
        let mut acc = 0.0f64;
        for i in 0..a.len() {
            let r = (a[i] * b[i]).sqrt();
            prop_assert_eq!(out[i].to_bits(), r.to_bits(), "elem {}", i);
            acc += r;
        }
        prop_assert_eq!(s.to_bits(), acc.to_bits());
        prop_assert_eq!(out.len(), a.len());
    }

    #[test]
    fn clipped_kernels_are_bitwise_for_any_tail(
        cols in lengths().prop_flat_map(|n| (sanitized(n), sanitized(n))),
        nu in 1e-6f64..1e6,
    ) {
        let (roots, mins) = cols;
        let n = roots.len();
        let s = clipped_share_sum(&roots, &mins, nu);
        let reference = roots
            .iter()
            .zip(&mins)
            .map(|(&r, &m)| (r / nu).max(m))
            .fold(0.0f64, |a, q| a + q);
        prop_assert_eq!(s.to_bits(), reference.to_bits());

        let mut filled = vec![0.0; n];
        clipped_fill(&roots, &mins, nu, &mut filled);
        let mut inplace = mins.clone();
        clipped_fill_inplace(&roots, nu, &mut inplace);
        for i in 0..n {
            let want = (roots[i] / nu).max(mins[i]);
            prop_assert_eq!(filled[i].to_bits(), want.to_bits(), "fill elem {}", i);
            prop_assert_eq!(inplace[i].to_bits(), want.to_bits(), "inplace elem {}", i);
        }
    }

    #[test]
    fn scale_div_is_bitwise_elementwise(
        xs in lengths().prop_flat_map(sanitized),
        d in 1e-6f64..1e6,
    ) {
        let mut scaled = xs.clone();
        scale_div(&mut scaled, d);
        for i in 0..xs.len() {
            prop_assert_eq!(scaled[i].to_bits(), (xs[i] / d).to_bits(), "elem {}", i);
        }
    }

    #[test]
    fn min_fast_is_bitwise_the_sequential_fold(xs in lengths().prop_flat_map(sanitized)) {
        let reference = xs.iter().fold(f64::INFINITY, |a, &x| a.min(x));
        prop_assert_eq!(min_fast(&xs).to_bits(), reference.to_bits());
    }
}

/// The all-zero-weight column every policy hits when no stream on a
/// server carries importance: sums collapse to exactly +0.0 through the
/// unrolled paths too, and the clip falls through to the minimums.
#[test]
fn all_zero_columns_collapse_exactly() {
    for n in 0..=9 {
        let zeros = vec![0.0f64; n];
        let mins: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
        assert_eq!(seq_sum(&zeros).to_bits(), 0.0f64.to_bits());
        let mut out = Vec::new();
        assert_eq!(
            sqrt_mul_sum(&zeros, &mins, &mut out).to_bits(),
            0.0f64.to_bits()
        );
        let mut filled = vec![f64::NAN; n];
        clipped_fill(&zeros, &mins, 1.0, &mut filled);
        for i in 0..n {
            // 0/ν = 0, so the max lands on the minimum itself.
            assert_eq!(filled[i].to_bits(), mins[i].to_bits());
        }
        assert_eq!(
            clipped_share_sum(&zeros, &mins, 1.0).to_bits(),
            mins.iter().fold(0.0f64, |a, &m| a + m.max(0.0)).to_bits()
        );
    }
}
