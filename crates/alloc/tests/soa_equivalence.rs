//! AoS ≡ SoA equivalence for the allocation entry points.
//!
//! `allocate` gathers `&[Demand]` structs into columns and defers to
//! `allocate_cols_into`; the incremental evaluator skips the gather
//! and hands over its own column buffers directly. Both doors must
//! produce bit-identical shares for every policy — including on raw
//! inputs carrying the NaN deadlines and zero demands the sanitizer
//! handles internally — or the evaluator's SoA fast path silently
//! diverges from the reference AoS world the tests and baselines use.

use proptest::prelude::*;
use scalpel_alloc::bandwidth_alloc::{self, BandwidthDemand, BandwidthPolicy};
use scalpel_alloc::compute_alloc::{self, ComputeDemand, ComputePolicy};
use scalpel_alloc::convex::AllocScratch;
use scalpel_alloc::{BandwidthCols, ComputeCols};

const COMPUTE_POLICIES: [ComputePolicy; 5] = [
    ComputePolicy::Equal,
    ComputePolicy::Proportional,
    ComputePolicy::WeightedSum,
    ComputePolicy::MinMax,
    ComputePolicy::DeadlineAware,
];

const BANDWIDTH_POLICIES: [BandwidthPolicy; 4] = [
    BandwidthPolicy::Equal,
    BandwidthPolicy::WeightedSum,
    BandwidthPolicy::MinMax,
    BandwidthPolicy::DeadlineAware,
];

/// Raw per-field value: mostly plausible positives, with zeros (idle
/// streams) and NaN (infeasible deadline marker) mixed in so the
/// equivalence covers the sanitizer's territory, not just clean inputs.
fn raw() -> impl Strategy<Value = f64> {
    prop_oneof![
        6 => 1e-4f64..10.0,
        1 => Just(0.0f64),
        1 => Just(f64::NAN),
    ]
}

fn compute_demands() -> impl Strategy<Value = Vec<ComputeDemand>> {
    prop::collection::vec((raw(), raw(), raw(), raw()), 0..24).prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (pre, edge, w, dl))| ComputeDemand {
                stream: i,
                pre_edge_s: pre,
                edge_s_full: edge,
                weight: w,
                deadline_s: dl,
            })
            .collect()
    })
}

fn bandwidth_demands() -> impl Strategy<Value = Vec<BandwidthDemand>> {
    prop::collection::vec((raw(), raw(), raw(), raw(), raw()), 0..24).prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (pre, tx, post, w, dl))| BandwidthDemand {
                device: i,
                pre_tx_s: pre,
                tx_s_full: tx,
                post_tx_s: post,
                weight: w,
                deadline_s: dl,
            })
            .collect()
    })
}

fn assert_bit_identical(aos: &[f64], soa: &[f64], ctx: &str) {
    assert_eq!(aos.len(), soa.len(), "{ctx}: length diverged");
    for (i, (a, s)) in aos.iter().zip(soa).enumerate() {
        assert_eq!(
            a.to_bits(),
            s.to_bits(),
            "{ctx}: share {i} diverged ({a:?} vs {s:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compute_aos_and_soa_doors_are_bit_identical(demands in compute_demands()) {
        // Caller-built columns, the way the evaluator's gather buffers
        // arrive — independent of allocate's internal gather.
        let pre: Vec<f64> = demands.iter().map(|d| d.pre_edge_s).collect();
        let edge: Vec<f64> = demands.iter().map(|d| d.edge_s_full).collect();
        let weight: Vec<f64> = demands.iter().map(|d| d.weight).collect();
        let deadline: Vec<f64> = demands.iter().map(|d| d.deadline_s).collect();
        for policy in COMPUTE_POLICIES {
            let aos = compute_alloc::allocate(&demands, policy);
            let mut soa = Vec::new();
            compute_alloc::allocate_cols_into(
                ComputeCols {
                    pre_edge_s: &pre,
                    edge_s_full: &edge,
                    weight: &weight,
                    deadline_s: &deadline,
                },
                policy,
                &mut AllocScratch::default(),
                &mut soa,
            );
            assert_bit_identical(&aos, &soa, &format!("compute/{policy:?}"));
        }
    }

    #[test]
    fn bandwidth_aos_and_soa_doors_are_bit_identical(demands in bandwidth_demands()) {
        let pre: Vec<f64> = demands.iter().map(|d| d.pre_tx_s).collect();
        let tx: Vec<f64> = demands.iter().map(|d| d.tx_s_full).collect();
        let post: Vec<f64> = demands.iter().map(|d| d.post_tx_s).collect();
        let weight: Vec<f64> = demands.iter().map(|d| d.weight).collect();
        let deadline: Vec<f64> = demands.iter().map(|d| d.deadline_s).collect();
        for policy in BANDWIDTH_POLICIES {
            let aos = bandwidth_alloc::allocate(&demands, policy);
            let mut soa = Vec::new();
            bandwidth_alloc::allocate_cols_into(
                BandwidthCols {
                    pre_tx_s: &pre,
                    tx_s_full: &tx,
                    post_tx_s: &post,
                    weight: &weight,
                    deadline_s: &deadline,
                },
                policy,
                &mut AllocScratch::default(),
                &mut soa,
            );
            assert_bit_identical(&aos, &soa, &format!("bandwidth/{policy:?}"));
        }
    }
}
