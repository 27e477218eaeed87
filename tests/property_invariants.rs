//! Property-based invariants spanning crates (proptest).

use proptest::prelude::*;
use scalpel::alloc::convex;
use scalpel::models::{zoo, DifficultyModel};
use scalpel::surgery::pareto;
use scalpel::surgery::plan::SurgeryPlan;
use scalpel::surgery::pruning::PruneLevel;

/// Hyperbolic demand columns `(fixed, scaled)`: stream k's latency at
/// share `c` is `fixed[k] + scaled[k] / c`.
fn demand_strategy(len: std::ops::Range<usize>) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    prop::collection::vec((0.0f64..0.2, 0.0001f64..0.5), len)
        .prop_map(|rows| rows.into_iter().unzip())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Water-filling always returns a simplex allocation and satisfies the
    /// KKT stationarity condition (equal marginal costs).
    #[test]
    fn weighted_sum_shares_kkt(
        demands in demand_strategy(1..12),
        weights in prop::collection::vec(0.1f64..5.0, 12),
    ) {
        let (_, scaled) = demands;
        let weights = &weights[..scaled.len()];
        let mut shares = Vec::new();
        convex::weighted_sum_shares_cols(&scaled, weights, &mut shares);
        let total: f64 = shares.iter().sum();
        prop_assert!(total <= 1.0 + 1e-9);
        let marginals: Vec<f64> = scaled
            .iter()
            .zip(weights)
            .zip(&shares)
            .filter(|((&e, _), &c)| e > 0.0 && c > 0.0)
            .map(|((&e, &w), &c)| w * e / (c * c))
            .collect();
        if marginals.len() >= 2 {
            let first = marginals[0];
            for m in &marginals[1..] {
                prop_assert!((m - first).abs() < 1e-6 * first.max(1.0),
                    "marginals differ: {m} vs {first}");
            }
        }
    }

    /// Deadline shares, when they exist, meet every deadline.
    #[test]
    fn deadline_shares_meet_deadlines(
        demands in demand_strategy(1..10),
        slack in 1.5f64..20.0,
    ) {
        let (fixed, scaled) = demands;
        // Construct comfortably feasible deadlines.
        let n = fixed.len() as f64;
        let deadlines: Vec<f64> = fixed
            .iter()
            .zip(&scaled)
            .map(|(&a, &e)| a + e * n * slack)
            .collect();
        let weights = vec![1.0; fixed.len()];
        let (mut roots, mut shares) = (Vec::new(), Vec::new());
        if convex::deadline_shares_cols(&fixed, &scaled, &deadlines, &weights, &mut roots, &mut shares) {
            let total: f64 = shares.iter().sum();
            prop_assert!(total <= 1.0 + 1e-6);
            for k in 0..fixed.len() {
                prop_assert!(fixed[k] + scaled[k] / shares[k] <= deadlines[k] + 1e-6);
            }
        }
    }

    /// The Pareto filter never removes a point that is minimal on some
    /// coordinate, and every removed point is dominated by some survivor.
    #[test]
    fn pareto_filter_sound(
        points in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0), 1..40),
    ) {
        let survivors = pareto::pareto_filter(points.clone(), |&(a, b, c)| vec![a, b, c]);
        prop_assert!(!survivors.is_empty());
        for p in &points {
            let kept = survivors.contains(p);
            if !kept {
                let dominated = survivors.iter().any(|s| {
                    pareto::dominates(&[s.0, s.1, s.2], &[p.0, p.1, p.2])
                        || (s.0 == p.0 && s.1 == p.1 && s.2 == p.2)
                });
                prop_assert!(dominated, "removed point {p:?} not dominated");
            }
        }
    }

    /// Difficulty-model behaviors are proper distributions for arbitrary
    /// exit chains, and accuracy stays in [0, 1].
    #[test]
    fn exit_behavior_is_distribution(
        profile in prop::collection::vec((0.01f64..0.99, 0.0f64..0.99), 0..6),
    ) {
        let mut sorted = profile.clone();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let m = DifficultyModel::default();
        let b = m.behavior(&sorted);
        let total: f64 = b.exit_probs.iter().sum::<f64>() + b.remain_prob;
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(b.exit_probs.iter().all(|&p| p >= -1e-12));
        prop_assert!((0.0..=1.0).contains(&b.expected_accuracy));
        // sample_exit is consistent with the cumulative bands
        for u in [0.05, 0.35, 0.65, 0.95] {
            match b.sample_exit(u) {
                Some(i) => prop_assert!(u < b.cum[i]),
                None => prop_assert!(b.cum.last().is_none_or(|&c| u >= c)),
            }
        }
    }

    /// Any cut chosen from `cut_points()` yields a valid surgery plan, and
    /// prefix/suffix FLOPs stay complementary under pruning bookkeeping.
    #[test]
    fn random_cut_plans_validate(model_idx in 0usize..4, cut_choice in 0usize..100) {
        let g = zoo::standard_zoo().swap_remove(model_idx);
        let cuts = g.cut_points();
        let cut = &cuts[cut_choice % cuts.len()];
        let plan = SurgeryPlan {
            cut: cut.boundary,
            exits: vec![],
            prune: PruneLevel::Medium,
            quantize_tx: false,
        };
        prop_assert!(plan.validate(&g).is_ok());
        prop_assert_eq!(
            g.prefix_flops(cut.boundary) + g.suffix_flops(cut.boundary),
            g.total_flops()
        );
    }
}
