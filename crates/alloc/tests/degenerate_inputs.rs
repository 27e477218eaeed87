//! Degenerate-input coverage for the allocation layer.
//!
//! Every policy must survive adversarial demand vectors — NaN/negative
//! timings, all-zero weights, single streams, and million-stream loads —
//! returning shares that are finite, non-negative, and on (or under) the
//! simplex. The `allocate_cols_into` door with a reused scratch must
//! agree bit-for-bit with a fresh scratch, so the hot path can keep its
//! scratch without behavioral drift.

use scalpel_alloc::bandwidth_alloc::{self, BandwidthPolicy};
use scalpel_alloc::compute_alloc::{self, ComputePolicy};
use scalpel_alloc::convex::AllocScratch;
use scalpel_alloc::{BandwidthCols, ComputeCols};

const COMPUTE_POLICIES: [ComputePolicy; 2] = [ComputePolicy::Equal, ComputePolicy::DeadlineAware];

const BANDWIDTH_POLICIES: [BandwidthPolicy; 2] =
    [BandwidthPolicy::Equal, BandwidthPolicy::DeadlineAware];

/// One stream's compute demand: pre-edge s, edge s at full capacity,
/// weight, deadline s.
type ComputeRow = [f64; 4];

/// One device's uplink demand: pre-tx s, tx s at full spectrum, post-tx
/// s, weight, deadline s.
type BandwidthRow = [f64; 5];

fn cd(pre: f64, edge: f64, weight: f64, deadline: f64) -> ComputeRow {
    [pre, edge, weight, deadline]
}

fn bd(pre: f64, tx: f64, post: f64, weight: f64, deadline: f64) -> BandwidthRow {
    [pre, tx, post, weight, deadline]
}

/// Column `j` of a row-major demand table.
fn col<const N: usize>(rows: &[[f64; N]], j: usize) -> Vec<f64> {
    rows.iter().map(|r| r[j]).collect()
}

/// Shares must be finite, non-negative, and sum to at most 1 (+ slack).
fn assert_valid_shares(shares: &[f64], ctx: &str) {
    let mut sum = 0.0;
    for (i, &s) in shares.iter().enumerate() {
        assert!(s.is_finite(), "{ctx}: share {i} not finite: {s}");
        assert!(s >= 0.0, "{ctx}: share {i} negative: {s}");
        sum += s;
    }
    assert!(sum <= 1.0 + 1e-6, "{ctx}: shares sum to {sum} > 1");
}

/// The column door over caller-gathered columns with caller scratch.
fn compute_cols_into(
    demands: &[ComputeRow],
    policy: ComputePolicy,
    scratch: &mut AllocScratch,
    out: &mut Vec<f64>,
) {
    let (pre, edge) = (col(demands, 0), col(demands, 1));
    let (weight, deadline) = (col(demands, 2), col(demands, 3));
    let cols = ComputeCols {
        pre_edge_s: &pre,
        edge_s_full: &edge,
        weight: &weight,
        deadline_s: &deadline,
    };
    compute_alloc::allocate_cols_into(cols, policy, scratch, out);
}

/// [`compute_cols_into`] for spectrum shares.
fn bandwidth_cols_into(
    demands: &[BandwidthRow],
    policy: BandwidthPolicy,
    scratch: &mut AllocScratch,
    out: &mut Vec<f64>,
) {
    let (pre, tx, post) = (col(demands, 0), col(demands, 1), col(demands, 2));
    let (weight, deadline) = (col(demands, 3), col(demands, 4));
    let cols = BandwidthCols {
        pre_tx_s: &pre,
        tx_s_full: &tx,
        post_tx_s: &post,
        weight: &weight,
        deadline_s: &deadline,
    };
    bandwidth_alloc::allocate_cols_into(cols, policy, scratch, out);
}

/// [`compute_cols_into`] with fresh scratch, returning the shares.
fn compute_shares(demands: &[ComputeRow], policy: ComputePolicy) -> Vec<f64> {
    let mut out = Vec::new();
    compute_cols_into(demands, policy, &mut AllocScratch::default(), &mut out);
    out
}

/// [`bandwidth_cols_into`] with fresh scratch, returning the shares.
fn bandwidth_shares(demands: &[BandwidthRow], policy: BandwidthPolicy) -> Vec<f64> {
    let mut out = Vec::new();
    bandwidth_cols_into(demands, policy, &mut AllocScratch::default(), &mut out);
    out
}

fn assert_bit_identical(a: &[f64], b: &[f64], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{ctx}: share {i} differs: {x} vs {y}"
        );
    }
}

/// The adversarial demand vectors every policy is run against.
fn poison_compute_cases() -> Vec<(&'static str, Vec<ComputeRow>)> {
    vec![
        ("empty", vec![]),
        ("single", vec![cd(0.01, 0.02, 1.0, 0.1)]),
        ("single-zero-demand", vec![cd(0.0, 0.0, 1.0, 0.1)]),
        (
            "zero-edge-demand",
            vec![cd(0.01, 0.0, 1.0, 0.1), cd(0.0, 0.0, 2.0, 0.2)],
        ),
        (
            "nan-demand",
            vec![cd(f64::NAN, f64::NAN, 1.0, 0.1), cd(0.01, 0.02, 1.0, 0.1)],
        ),
        (
            "negative-demand",
            vec![cd(-0.5, -1.0, 1.0, 0.1), cd(0.01, 0.02, 1.0, 0.1)],
        ),
        (
            "infinite-demand",
            vec![
                cd(f64::INFINITY, f64::INFINITY, 1.0, 0.1),
                cd(0.01, 0.02, 1.0, 0.1),
            ],
        ),
        (
            "all-zero-weights",
            vec![cd(0.01, 0.02, 0.0, 0.1), cd(0.005, 0.03, 0.0, 0.2)],
        ),
        (
            "nan-weights",
            vec![cd(0.01, 0.02, f64::NAN, 0.1), cd(0.005, 0.03, -1.0, 0.2)],
        ),
        (
            "poison-deadlines",
            vec![
                cd(0.01, 0.02, 1.0, f64::NAN),
                cd(0.005, 0.03, 1.0, -0.5),
                cd(0.002, 0.01, 1.0, 0.0),
            ],
        ),
        (
            "huge-spread",
            vec![cd(1e-12, 1e-12, 1e-9, 1e-6), cd(1e3, 1e6, 1e9, 1e12)],
        ),
    ]
}

fn poison_bandwidth_cases() -> Vec<(&'static str, Vec<BandwidthRow>)> {
    vec![
        ("empty", vec![]),
        ("single", vec![bd(0.01, 0.004, 0.02, 1.0, 0.1)]),
        ("single-no-tx", vec![bd(0.01, 0.0, 0.02, 1.0, 0.1)]),
        (
            "all-zero-tx",
            vec![bd(0.01, 0.0, 0.0, 1.0, 0.1), bd(0.02, 0.0, 0.0, 1.0, 0.2)],
        ),
        (
            "nan-demand",
            vec![
                bd(f64::NAN, f64::NAN, f64::NAN, 1.0, 0.1),
                bd(0.01, 0.004, 0.02, 1.0, 0.1),
            ],
        ),
        (
            "negative-demand",
            vec![
                bd(-0.5, -1.0, -0.1, 1.0, 0.1),
                bd(0.01, 0.004, 0.02, 1.0, 0.1),
            ],
        ),
        (
            "all-zero-weights",
            vec![
                bd(0.01, 0.004, 0.02, 0.0, 0.1),
                bd(0.0, 0.02, 0.01, 0.0, 0.2),
            ],
        ),
        (
            "poison-deadlines",
            vec![
                bd(0.01, 0.004, 0.02, 1.0, f64::NEG_INFINITY),
                bd(0.0, 0.02, 0.01, 1.0, 0.0),
            ],
        ),
    ]
}

#[test]
fn compute_policies_survive_poisoned_demands() {
    for (name, demands) in poison_compute_cases() {
        for policy in COMPUTE_POLICIES {
            let ctx = format!("compute/{name}/{policy:?}");
            let shares = compute_shares(&demands, policy);
            assert_eq!(shares.len(), demands.len(), "{ctx}: arity");
            assert_valid_shares(&shares, &ctx);
        }
    }
}

#[test]
fn bandwidth_policies_survive_poisoned_demands() {
    for (name, demands) in poison_bandwidth_cases() {
        for policy in BANDWIDTH_POLICIES {
            let ctx = format!("bandwidth/{name}/{policy:?}");
            let shares = bandwidth_shares(&demands, policy);
            assert_eq!(shares.len(), demands.len(), "{ctx}: arity");
            assert_valid_shares(&shares, &ctx);
        }
    }
}

/// Reusing one scratch across differently-shaped calls must not leak state
/// between calls: the column door with a reused scratch and output buffer
/// stays bit-identical to the same door on fresh scratch.
#[test]
fn scratch_reuse_does_not_leak_state() {
    let mut scratch = AllocScratch::default();
    let mut out = Vec::new();
    for (name, demands) in poison_compute_cases() {
        for policy in COMPUTE_POLICIES {
            compute_cols_into(&demands, policy, &mut scratch, &mut out);
            let fresh = compute_shares(&demands, policy);
            assert_bit_identical(&out, &fresh, &format!("reuse/compute/{name}/{policy:?}"));
        }
    }
    for (name, demands) in poison_bandwidth_cases() {
        for policy in BANDWIDTH_POLICIES {
            bandwidth_cols_into(&demands, policy, &mut scratch, &mut out);
            let fresh = bandwidth_shares(&demands, policy);
            assert_bit_identical(&out, &fresh, &format!("reuse/bandwidth/{name}/{policy:?}"));
        }
    }
}

/// One million streams: the solvers stay finite, non-negative, and on the
/// simplex without quadratic blowups or overflow.
#[test]
fn million_stream_stress_stays_on_simplex() {
    const N: usize = 1_000_000;
    let demands: Vec<ComputeRow> = (0..N)
        .map(|i| {
            // Deterministic pseudo-varied demands; a few poisoned entries.
            let x = (i % 97) as f64;
            let pre = 0.001 + x * 1e-5;
            let edge = 0.002 + ((i % 31) as f64) * 1e-5;
            let weight = 1.0 + (i % 7) as f64;
            let deadline = 0.05 + ((i % 13) as f64) * 0.01;
            match i % 10_007 {
                0 => cd(f64::NAN, edge, weight, deadline),
                1 => cd(pre, -edge, weight, deadline),
                _ => cd(pre, edge, weight, deadline),
            }
        })
        .collect();
    for policy in COMPUTE_POLICIES {
        let shares = compute_shares(&demands, policy);
        assert_eq!(shares.len(), N);
        assert_valid_shares(&shares, &format!("stress/{policy:?}"));
    }
}

/// Shares that are individually finite but sum past f64::MAX used to
/// renormalize by +∞ — every entry divided to 0.0 and the vector left
/// the simplex entirely. The clamp-before-sum in `sanitize_shares` must
/// land the vector back on the simplex instead.
#[test]
fn sanitize_shares_renormalizes_a_finite_but_overflowing_sum() {
    let mut shares = vec![1.5e308, 1e308];
    let changed = scalpel_alloc::convex::sanitize_shares(&mut shares);
    assert!(changed, "an overflowing vector must report modification");
    let sum: f64 = shares.iter().sum();
    assert!(
        sum.is_finite() && sum <= 1.0 + 1e-9,
        "renormalized sum must sit on or under the simplex, got {sum}"
    );
    assert!(
        shares.iter().all(|&s| s.is_finite() && s > 0.0),
        "both huge-but-finite entries must survive renormalization \
         with their proportions, got {shares:?}"
    );
    // Proportions are preserved through the shared clamp: equal clamps
    // renormalize to equal shares.
    assert!(
        (shares[0] - shares[1]).abs() < 1e-12,
        "entries clamped to the same component must renormalize equally"
    );
}
