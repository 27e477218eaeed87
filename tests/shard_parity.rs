//! Sharded-vs-centralized parity (DESIGN.md §2.12), on 1 TFLOP/s-mean
//! servers so that streams offload.
//!
//! * **One shard**: a fleet within `max_streams` is one shard holding
//!   every AP and server, and its extraction is the problem itself, so
//!   under [`Budget::UNLIMITED`] that shard's solve must reproduce the
//!   centralized `solve` **bit-for-bit** — objective and assignment.
//! * **Bisected** fleets: sharding is lossy (the shard solver cannot see
//!   cross-shard load), so we assert the measured objective gap to the
//!   centralized solution stays within the documented bound and print it
//!   for the log.

use proptest::prelude::*;
use scalpel::core::config::{ScenarioConfig, ServerMix};
use scalpel::core::evaluator::{Assignment, Evaluator};
use scalpel::core::optimizer::{self, Budget, OptimizerConfig};
use scalpel::core::shard::{self, ShardConfig};

/// Documented gap bound for bisected fleets: the sharded incumbent may
/// trail the centralized solution by at most this relative margin
/// (DESIGN.md §2.12; `tests/release_gates.rs` asserts the tighter 2% at
/// N=512).
const GAP_BOUND: f64 = 0.05;

fn quick_opt() -> OptimizerConfig {
    OptimizerConfig {
        rounds: 2,
        gibbs_iters: 25,
        ..OptimizerConfig::default()
    }
}

/// `count` servers at 1 TFLOP/s mean, cv 0.3 (as in the release gates'
/// fleet).
fn tflop_servers(count: usize) -> ServerMix {
    ServerMix::Synthetic {
        count,
        mean_fps: 1e12,
        cv: 0.3,
    }
}

/// Streams whose plan in `asg` sends work to a server.
fn offloaded(ev: &Evaluator, asg: &Assignment) -> usize {
    (0..ev.num_streams())
        .filter(|&k| !ev.menu(k)[asg.plan_idx[k]].is_device_only())
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A fleet that fits one shard: the shard's objective and assignment
    /// are bit-identical to the centralized solve of the original
    /// problem with the same config.
    #[test]
    fn single_shard_matches_centralized_bit_for_bit(
        num_aps in 2usize..5,
        devices_per_ap in 2usize..5,
        servers_per_ap in 1usize..3,
        rate in 2.0f64..6.0,
    ) {
        let scenario = ScenarioConfig {
            num_aps,
            devices_per_ap,
            arrival_rate_hz: rate,
            servers: tflop_servers(num_aps * servers_per_ap),
            ..ScenarioConfig::default()
        };
        let problem = scenario.build();
        let cfg = ShardConfig {
            max_streams: problem.streams.len(),
            opt: quick_opt(),
            ..ShardConfig::default()
        };
        let out = shard::solve_sharded(&problem, &cfg, Budget::UNLIMITED)
            .expect("valid sharded problem");
        prop_assert_eq!(out.plan.shards.len(), 1, "a fleet within the cap is one shard");

        let ev = Evaluator::try_new(&problem, cfg.menu.clone()).expect("valid problem");
        let central = optimizer::solve(&ev, &cfg.opt);
        let sharded_obj = out.shards[0]
            .objective
            .expect("a non-empty shard reports an objective");
        let offloads = offloaded(&ev, &central.assignment);
        println!(
            "single shard: {} of {} streams offloaded, objective {:.6}",
            offloads,
            problem.streams.len(),
            central.result.objective
        );
        // Parity of placements means something only if some stream offloads.
        prop_assert!(offloads > 0, "every stream stayed on its device");
        // Bit-for-bit: identical search on an identical problem.
        prop_assert_eq!(
            sharded_obj.to_bits(),
            central.result.objective.to_bits(),
            "shard objective {} != centralized {}",
            sharded_obj, central.result.objective
        );
        prop_assert_eq!(
            &out.shards[0].assignment,
            &Some(central.assignment),
            "shard assignment diverged from the centralized solve"
        );
        // The global incumbent never loses to the shard's own solution.
        prop_assert!(
            out.outcome.solution.result.objective <= sharded_obj * (1.0 + 1e-9) + 1e-12,
            "global {} worse than the shard's {}",
            out.outcome.solution.result.objective,
            sharded_obj
        );
    }

    /// Fleets forced through bisection: the gap to the centralized
    /// solution stays within the documented bound.
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
            servers: tflop_servers(num_aps.max(4)),
            ..ScenarioConfig::default()
        };
        let problem = scenario.build();
        let ev = Evaluator::new(&problem, None);
        let opt = quick_opt();
        let central = optimizer::solve(&ev, &opt);

        let cfg = ShardConfig {
            // Cap at one AP group: forces bisection of the fleet into
            // per-AP-sized shards.
            max_streams: devices_per_ap,
            opt: opt.clone(),
            ..ShardConfig::default()
        };
        let out = shard::solve_sharded(&problem, &cfg, Budget::UNLIMITED)
            .expect("valid sharded problem");
        prop_assert!(out.plan.shards.len() > 1, "bisection must split the fleet");

        let gap = (out.outcome.solution.result.objective - central.result.objective)
            / central.result.objective;
        println!(
            "gap-to-centralized: {:+.4}% (sharded {:.6} vs central {:.6}, {} shards, n={}, {} offloaded)",
            gap * 100.0,
            out.outcome.solution.result.objective,
            central.result.objective,
            out.plan.shards.len(),
            problem.streams.len(),
            offloaded(&ev, &out.outcome.solution.assignment)
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
