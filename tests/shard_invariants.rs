//! Structural invariants of the sharded optimizer (DESIGN.md §2.12).
//!
//! Partition soundness (coverage, disjointness, cap) and the warm-start
//! contract: a warm replan is the polish from the warm point.

use proptest::prelude::*;
use scalpel::core::config::{ScenarioConfig, ServerMix};
use scalpel::core::evaluator::Evaluator;
use scalpel::core::online::{remap_assignment_counted, OnlineController};
use scalpel::core::optimizer::{self, descent_from_with_budget, Budget, OptimizerConfig};
use scalpel::core::shard::{self, ShardConfig};
use scalpel::core::validate::{self, ProblemError};

fn quick_opt() -> OptimizerConfig {
    OptimizerConfig {
        rounds: 2,
        gibbs_iters: 20,
        ..OptimizerConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every stream lands in exactly one shard, the union covers the
    /// problem, and (with servers >= APs, which the generator guarantees)
    /// no shard exceeds `max_streams`.
    #[test]
    fn partition_is_sound(
        num_aps in 2usize..7,
        devices_per_ap in 1usize..6,
        extra_servers in 0usize..5,
        cap_slack in 0usize..12,
    ) {
        let problem = ScenarioConfig {
            num_aps,
            devices_per_ap,
            arrival_rate_hz: 4.0,
            servers: ServerMix::Synthetic {
                count: num_aps + extra_servers,
                mean_fps: 60.0,
                cv: 0.25,
            },
            ..ScenarioConfig::default()
        }
        .build();
        // The cap must admit the largest AP group; anything above that is
        // a legal knob (bisection keeps servers >= APs per side, so the
        // cap binds strictly here).
        let cfg = ShardConfig {
            max_streams: devices_per_ap + cap_slack,
            opt: quick_opt(),
            ..ShardConfig::default()
        };
        let plan = shard::partition(&problem, &cfg).expect("generator keeps config valid");

        let n = problem.streams.len();
        let mut stream_owner = vec![0usize; n];
        let mut ap_owner = vec![0usize; problem.cluster.aps.len()];
        let mut server_owner = vec![0usize; problem.cluster.servers.len()];
        for s in &plan.shards {
            prop_assert!(
                s.streams.len() <= cfg.max_streams,
                "shard with {} streams exceeds cap {}",
                s.streams.len(),
                cfg.max_streams
            );
            prop_assert!(s.streams.windows(2).all(|w| w[0] < w[1]), "streams not ascending");
            prop_assert!(s.aps.windows(2).all(|w| w[0] < w[1]), "aps not ascending");
            prop_assert!(s.servers.windows(2).all(|w| w[0] < w[1]), "servers not ascending");
            for &k in &s.streams {
                stream_owner[k] += 1;
            }
            for &a in &s.aps {
                ap_owner[a] += 1;
            }
            for &j in &s.servers {
                server_owner[j] += 1;
            }
        }
        prop_assert!(
            stream_owner.iter().all(|&c| c == 1),
            "stream coverage broken: {:?}",
            stream_owner
        );
        prop_assert!(ap_owner.iter().all(|&c| c == 1), "AP coverage broken");
        prop_assert!(server_owner.iter().all(|&c| c <= 1), "server claimed twice");
    }
}

/// The bisected topology the warm-start tests replan (4 APs × 3 devices
/// under a 3-stream cap, so every AP is its own shard), with its two
/// drifts: a load shift from 4 to 6 Hz and an AP-bandwidth collapse from
/// 20 to 5 MHz.
fn bisected() -> (
    ScenarioConfig,
    ShardConfig,
    [(&'static str, ScenarioConfig); 2],
) {
    let scenario = ScenarioConfig {
        num_aps: 4,
        devices_per_ap: 3,
        arrival_rate_hz: 4.0,
        ..ScenarioConfig::default()
    };
    let cfg = ShardConfig {
        max_streams: 3,
        opt: quick_opt(),
        ..ShardConfig::default()
    };
    let drifts = [
        (
            "load shift",
            ScenarioConfig {
                arrival_rate_hz: 6.0,
                ..scenario.clone()
            },
        ),
        (
            "collapse",
            ScenarioConfig {
                ap_bandwidth_hz: 5e6,
                ..scenario.clone()
            },
        ),
    ];
    (scenario, cfg, drifts)
}

/// The online controller's sharded proposal is the module entry run from
/// the remapped incumbent: its candidate matches `solve_sharded_with`
/// bit-for-bit, its report counts exactly the streams that moved off the
/// warm point, and it never regresses past the re-priced stale plan.
/// Checked on a load shift (4 → 6 Hz), where the incumbent still stands,
/// and on an AP-bandwidth collapse (20 → 5 MHz), which must move some
/// decision.
#[test]
fn controller_proposal_agrees_with_module_entry() {
    let (scenario, cfg, drifts) = bisected();
    let ev = Evaluator::new(&scenario.build(), None);
    let ctl = OnlineController::bootstrap(&ev, quick_opt());
    for (name, shifted) in drifts {
        let shifted = shifted.build();
        let shifted_ev = Evaluator::new(&shifted, None);
        let proposal = ctl
            .propose_sharded(&ev, &shifted, &shifted_ev, &cfg, Budget::UNLIMITED)
            .expect("valid scenario");

        let (warm, warm_misses) =
            remap_assignment_counted(&ev, &shifted_ev, &ctl.solution().assignment);
        assert_eq!(proposal.warm, warm, "{name}");
        let direct =
            shard::solve_sharded_with(&shifted, &shifted_ev, &cfg, Budget::UNLIMITED, Some(&warm))
                .expect("valid scenario");
        let candidate = &proposal.solution;
        assert_eq!(
            candidate.assignment, direct.outcome.solution.assignment,
            "{name}"
        );
        assert_eq!(
            candidate.result.objective.to_bits(),
            direct.outcome.solution.result.objective.to_bits(),
            "{name}: controller proposal must match the module entry bit-for-bit"
        );

        let report = &proposal.report;
        let moved = |a: &[usize], b: &[usize]| a.iter().zip(b).filter(|(x, y)| x != y).count();
        assert_eq!(
            report.plans_changed,
            moved(&warm.plan_idx, &candidate.assignment.plan_idx),
            "{name}"
        );
        assert_eq!(
            report.placements_changed,
            moved(&warm.placement, &candidate.assignment.placement),
            "{name}"
        );
        if name == "collapse" {
            // The collapse moves some decision, so zero counts would be wrong.
            assert!(
                report.plans_changed + report.placements_changed > 0,
                "{name}"
            );
        }
        assert_eq!(
            report.remap_misses,
            warm_misses + direct.remap_misses,
            "{name}"
        );
        assert_eq!(report.evaluations, candidate.trace.evaluations, "{name}");
        assert!(report.converged, "{name}");
        assert!(report.resolve_ms > 0.0, "{name}");
        assert!(report.adapted_objective.is_finite(), "{name}");
        assert!(
            report.adapted_objective <= report.stale_objective + 1e-12,
            "{name}: warm incumbent is in the race, so adaptation can never lose to it: {} > {}",
            report.adapted_objective,
            report.stale_objective
        );
    }
}

/// A warm-started sharded solve is the polish from the warm point: the
/// better of the priced warm point and two descent rounds from it, bit
/// for bit, with one evaluation on top of the descent's for pricing the
/// warm point.
#[test]
fn warm_sharded_solve_is_the_polish_from_the_warm_point() {
    let (scenario, cfg, drifts) = bisected();
    let ev = Evaluator::new(&scenario.build(), None);
    let ctl = OnlineController::bootstrap(&ev, quick_opt());
    for (name, shifted) in drifts {
        let problem = shifted.build();
        let new_ev = Evaluator::new(&problem, None);
        let (warm, _) = remap_assignment_counted(&ev, &new_ev, &ctl.solution().assignment);
        let out =
            shard::solve_sharded_with(&problem, &new_ev, &cfg, Budget::UNLIMITED, Some(&warm))
                .expect("valid scenario");
        assert_eq!(out.remap_misses, 0);

        let priced = new_ev.evaluate(&warm, cfg.opt.policies);
        let polish = OptimizerConfig {
            rounds: 2,
            gibbs_iters: 0,
            ..cfg.opt.clone()
        };
        let descent = descent_from_with_budget(&new_ev, &polish, warm.clone(), Budget::UNLIMITED);
        let (best_asg, best) = if descent.solution.result.objective < priced.objective {
            (&descent.solution.assignment, &descent.solution.result)
        } else {
            (&warm, &priced)
        };
        let got = &out.outcome.solution;
        assert_eq!(&got.assignment, best_asg, "{name}");
        assert_eq!(
            got.result.objective.to_bits(),
            best.objective.to_bits(),
            "{name}"
        );
        assert_eq!(
            got.trace.evaluations,
            descent.solution.trace.evaluations + 1,
            "{name}"
        );
        assert_eq!(out.outcome.spent.evaluations, got.trace.evaluations);
        assert_eq!(out.outcome.converged, descent.converged);
    }
}

/// Ingest validation rejects shard configs the partitioner cannot honor.
#[test]
fn shard_config_validation_rejects_bad_inputs() {
    let problem = ScenarioConfig {
        num_aps: 2,
        devices_per_ap: 4,
        arrival_rate_hz: 4.0,
        ..ScenarioConfig::default()
    }
    .build();

    // Cap of zero.
    let zero = ShardConfig {
        max_streams: 0,
        ..ShardConfig::default()
    };
    assert_eq!(
        validate::validate_shard_config(&problem, &zero),
        Err(ProblemError::ShardZeroCap)
    );

    // Cap below the largest AP stream group (4 per AP here).
    let tight = ShardConfig {
        max_streams: 3,
        ..ShardConfig::default()
    };
    assert_eq!(
        validate::validate_shard_config(&problem, &tight),
        Err(ProblemError::ShardCapBelowApGroup {
            ap: 0,
            streams: 4,
            max_streams: 3,
        })
    );

    // And the sharded solve surfaces the same rejection instead of
    // panicking, cold or warm.
    let ev = Evaluator::new(&problem, None);
    let warm = optimizer::initial_assignment(&ev, zero.opt.placement);
    for start in [None, Some(&warm)] {
        assert_eq!(
            shard::solve_sharded_with(&problem, &ev, &zero, Budget::UNLIMITED, start).err(),
            Some(ProblemError::ShardZeroCap)
        );
    }
}
