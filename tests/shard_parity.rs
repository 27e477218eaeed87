//! Sharded-vs-centralized parity (ISSUE: gap-to-centralized harness).
//!
//! Two regimes, mirroring DESIGN.md §2.12:
//!
//! * **Naturally partitioned** topologies (per-AP reachability islands):
//!   each shard extraction is exact, so under [`Budget::UNLIMITED`] every
//!   shard's solve must reproduce the centralized `solve` of that island
//!   **bit-for-bit** — same objective down to the last ulp.
//! * **Connected** topologies forced through the bisection fallback:
//!   sharding is lossy (the shard solver cannot see cross-shard load),
//!   so we assert the measured objective gap to the centralized solution
//!   stays within the documented bound and print it for the log.

use proptest::prelude::*;
use scalpel::core::config::{ScenarioConfig, ServerMix};
use scalpel::core::evaluator::Evaluator;
use scalpel::core::optimizer::{self, Budget, OptimizerConfig};
use scalpel::core::shard::{self, Reachability, ShardConfig};

/// Documented gap bound for bisected (connected) topologies: the sharded
/// incumbent may trail the centralized solution by at most this relative
/// margin (DESIGN.md §2.12; `tests/release_gates.rs` asserts the tighter
/// 2% at N=512).
const GAP_BOUND: f64 = 0.05;

fn quick_opt() -> OptimizerConfig {
    OptimizerConfig {
        rounds: 2,
        gibbs_iters: 25,
        ..OptimizerConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Per-AP islands: shard objectives are bit-identical to solving each
    /// extracted island standalone with the same config.
    #[test]
    fn natural_islands_match_centralized_bit_for_bit(
        num_aps in 2usize..5,
        devices_per_ap in 2usize..5,
        servers_per_ap in 1usize..3,
        rate in 2.0f64..6.0,
    ) {
        let scenario = ScenarioConfig {
            num_aps,
            devices_per_ap,
            arrival_rate_hz: rate,
            servers: ServerMix::Synthetic {
                count: num_aps * servers_per_ap,
                mean_fps: 60.0,
                cv: 0.3,
            },
            ..ScenarioConfig::default()
        };
        let problem = scenario.build();
        // AP a reaches exactly servers [a*spa, (a+1)*spa): disjoint islands.
        let lists: Vec<Vec<usize>> = (0..num_aps)
            .map(|a| (0..servers_per_ap).map(|j| a * servers_per_ap + j).collect())
            .collect();
        let cfg = ShardConfig {
            max_streams: problem.streams.len().max(1),
            reach: Reachability::PerAp(lists),
            opt: quick_opt(),
            ..ShardConfig::default()
        };
        let out = shard::solve_sharded(&problem, &cfg, Budget::UNLIMITED)
            .expect("valid sharded problem");
        prop_assert!(out.plan.natural, "disjoint reachability must shard naturally");
        prop_assert_eq!(out.plan.shards.len(), num_aps);

        for (i, s) in out.plan.shards.iter().enumerate() {
            if s.streams.is_empty() {
                continue;
            }
            let island = shard::extract(&problem, s);
            let island_ev = Evaluator::try_new(&island, cfg.menu.clone())
                .expect("island extraction is a valid problem");
            let solo = optimizer::solve(&island_ev, &cfg.opt);
            let sharded_obj = out.shards[i]
                .objective
                .expect("non-empty shard must report an objective");
            // Bit-for-bit: identical search on an identical problem.
            prop_assert_eq!(
                sharded_obj.to_bits(),
                solo.result.objective.to_bits(),
                "shard {} objective {} != standalone {}",
                i, sharded_obj, solo.result.objective
            );
            prop_assert_eq!(
                &out.shards[i].assignment,
                &Some(solo.assignment),
                "shard {} assignment diverged from standalone solve",
                i
            );
        }

        // The global incumbent never loses to the stitched recombination
        // of the island solves (pooled mean, weighted by shard size).
        let n: usize = out.plan.shards.iter().map(|s| s.streams.len()).sum();
        let stitched: f64 = out
            .shards
            .iter()
            .filter_map(|s| s.objective.map(|o| o * s.streams as f64))
            .sum::<f64>()
            / n.max(1) as f64;
        prop_assert!(
            out.outcome.solution.result.objective <= stitched * (1.0 + 1e-9) + 1e-12,
            "global {} worse than stitched {}",
            out.outcome.solution.result.objective,
            stitched
        );
    }

    /// Connected topologies forced through bisection: the gap to the
    /// centralized solution stays within the documented bound.
    #[test]
    fn bisected_gap_to_centralized_within_bound(
        num_aps in 2usize..5,
        devices_per_ap in 2usize..5,
        rate in 2.0f64..6.0,
    ) {
        let scenario = ScenarioConfig {
            num_aps,
            devices_per_ap,
            arrival_rate_hz: rate,
            servers: ServerMix::Synthetic {
                count: num_aps.max(4),
                mean_fps: 60.0,
                cv: 0.3,
            },
            ..ScenarioConfig::default()
        };
        let problem = scenario.build();
        let ev = Evaluator::new(&problem, None);
        let opt = quick_opt();
        let central = optimizer::solve(&ev, &opt);

        let cfg = ShardConfig {
            // Cap at one AP group: forces bisection of the single full
            // component into per-AP-sized shards.
            max_streams: devices_per_ap,
            reach: Reachability::Full,
            opt: opt.clone(),
            polish_gibbs: 50,
            ..ShardConfig::default()
        };
        let out = shard::solve_sharded(&problem, &cfg, Budget::UNLIMITED)
            .expect("valid sharded problem");
        prop_assert!(!out.plan.natural, "cap below component size must mark unnatural");
        prop_assert!(out.plan.shards.len() > 1, "bisection must split the component");

        let gap = (out.outcome.solution.result.objective - central.result.objective)
            / central.result.objective;
        println!(
            "gap-to-centralized: {:+.4}% (sharded {:.6} vs central {:.6}, {} shards, n={})",
            gap * 100.0,
            out.outcome.solution.result.objective,
            central.result.objective,
            out.plan.shards.len(),
            problem.streams.len()
        );
        prop_assert!(
            gap <= GAP_BOUND,
            "gap {:.4}% exceeds documented bound {:.1}%",
            gap * 100.0,
            GAP_BOUND * 100.0
        );
    }
}

/// Sharded solve of a fleet of `streams` streams (8 devices and one
/// 1 TFLOP/s-mean server per AP; one light pass per shard) under
/// `budget`. Prints wall time, shards, evaluations, objective and the
/// converged flag, and returns the outcome with its wall time in seconds.
fn solve_fleet(streams: usize, budget: Budget) -> (shard::ShardedOutcome, f64) {
    let num_aps = streams / 8;
    let problem = ScenarioConfig {
        num_aps,
        devices_per_ap: 8,
        servers: ServerMix::Synthetic {
            count: num_aps,
            mean_fps: 1e12,
            cv: 0.3,
        },
        ..ScenarioConfig::default()
    }
    .build();
    let cfg = ShardConfig {
        opt: OptimizerConfig {
            rounds: 1,
            gibbs_iters: 30,
            ..OptimizerConfig::default()
        },
        ..ShardConfig::default()
    };
    let t0 = std::time::Instant::now();
    let out = shard::solve_sharded(&problem, &cfg, budget).expect("valid");
    let wall_s = t0.elapsed().as_secs_f64();
    println!(
        "N={streams} sharded solve: {wall_s:.1}s, {} shards, {} evals, objective {:.6}, converged {}",
        out.plan.shards.len(),
        out.outcome.spent.evaluations,
        out.outcome.solution.result.objective,
        out.outcome.converged
    );
    (out, wall_s)
}

/// Fleet-scale wall-clock acceptance: N = 10⁴ solves end-to-end in
/// under 60 s (release). Run on demand:
/// `cargo test -q --release --test shard_parity -- --ignored --nocapture`.
#[test]
#[ignore = "release-mode timing acceptance; run explicitly"]
fn fleet_10k_solves_under_60s() {
    let (_, wall_s) = solve_fleet(10_000, Budget::UNLIMITED);
    assert!(
        wall_s < 60.0,
        "N=10k sharded solve took {wall_s:.1}s (acceptance: < 60s)"
    );
}

/// Fleet-scale anytime run: N = 10⁵ under a 180 s wall budget (release).
/// Asserts only a finite objective; wall time, shards, evaluations and
/// the converged flag are printed for the log. Run on demand:
/// `cargo test -q --release --test shard_parity fleet_100k -- --ignored --nocapture`.
#[test]
#[ignore = "release-mode fleet-scale run; run explicitly"]
fn fleet_100k_solves_within_180s_budget() {
    let budget = Budget::wall(std::time::Duration::from_secs(180));
    let (out, _) = solve_fleet(100_000, budget);
    assert!(
        out.outcome.solution.result.objective.is_finite(),
        "N=100k sharded objective is not finite"
    );
}
