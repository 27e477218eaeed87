//! Property tests for the incremental evaluation layer: on random
//! topologies, random plan flips and server moves priced through
//! [`EvalContext`] must match a fresh full evaluation — not just within
//! 1e-9, but bit for bit — and the search must walk identical
//! trajectories under both evaluation backends.

use proptest::prelude::*;
use scalpel::core::config::{ScenarioConfig, ServerMix};
use scalpel::core::diversity::DiversityConfig;
use scalpel::core::eval_context::{DeltaScratch, EvalContext};
use scalpel::core::evaluator::{AllocPolicies, Assignment, Evaluator};
use scalpel::core::optimizer::{self, Budget, EvalMode, OptimizerConfig};
use scalpel::sim::SimRng;

/// Scenario axes small enough to keep 64 cases fast but varied: topology
/// shape, load, server rack, and allocation policies.
#[derive(Debug, Clone)]
struct Scen {
    num_aps: usize,
    devices_per_ap: usize,
    arrival_rate_hz: f64,
    /// 0 = the standard four-box rack; 1..=4 = that many synthetic servers.
    synthetic_servers: usize,
    seed: u64,
    equal_policies: bool,
}

fn scen_strategy() -> impl Strategy<Value = Scen> {
    (
        1usize..4,
        1usize..5,
        1.0f64..10.0,
        0usize..5,
        0u64..1_000,
        any::<bool>(),
    )
        .prop_map(
            |(
                num_aps,
                devices_per_ap,
                arrival_rate_hz,
                synthetic_servers,
                seed,
                equal_policies,
            )| {
                Scen {
                    num_aps,
                    devices_per_ap,
                    arrival_rate_hz,
                    synthetic_servers,
                    seed,
                    equal_policies,
                }
            },
        )
}

fn build(s: &Scen) -> (Evaluator, AllocPolicies) {
    let cfg = ScenarioConfig {
        num_aps: s.num_aps,
        devices_per_ap: s.devices_per_ap,
        arrival_rate_hz: s.arrival_rate_hz,
        servers: match s.synthetic_servers {
            0 => ServerMix::Standard,
            count => ServerMix::Synthetic {
                count,
                mean_fps: 5e11,
                cv: 0.4,
            },
        },
        seed: s.seed,
        ..ScenarioConfig::default()
    };
    let ev = Evaluator::new(&cfg.build(), None);
    let policies = if s.equal_policies {
        AllocPolicies::equal()
    } else {
        AllocPolicies::optimal()
    };
    (ev, policies)
}

fn random_assignment(ev: &Evaluator, rng: &mut SimRng) -> Assignment {
    Assignment {
        plan_idx: (0..ev.num_streams())
            .map(|k| rng.index(ev.menu(k).len()))
            .collect(),
        placement: (0..ev.num_streams())
            .map(|_| rng.index(ev.num_servers()))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A freshly built context prices exactly like the evaluator.
    #[test]
    fn context_matches_full_evaluation(s in scen_strategy()) {
        let (ev, policies) = build(&s);
        let mut rng = SimRng::new(s.seed, 17);
        let asg = random_assignment(&ev, &mut rng);
        let full = ev.evaluate(&asg, policies);
        let ctx = EvalContext::new(&ev, asg, policies);
        prop_assert_eq!(full.objective.to_bits(), ctx.objective().to_bits());
        let r = ctx.result();
        for k in 0..ev.num_streams() {
            prop_assert_eq!(full.latency_s[k].to_bits(), r.latency_s[k].to_bits());
            prop_assert_eq!(full.compute_shares[k].to_bits(), r.compute_shares[k].to_bits());
            prop_assert_eq!(full.bandwidth_shares[k].to_bits(), r.bandwidth_shares[k].to_bits());
        }
        prop_assert_eq!(full.expected_misses, r.expected_misses);
    }

    /// Delta trials of random flips and moves equal a fresh evaluation of
    /// the probed assignment, bitwise (the ≤1e-9 contract, strengthened).
    #[test]
    fn delta_trials_match_fresh(s in scen_strategy(), probes in 1usize..12) {
        let (ev, policies) = build(&s);
        let mut rng = SimRng::new(s.seed, 29);
        let asg = random_assignment(&ev, &mut rng);
        let ctx = EvalContext::new(&ev, asg.clone(), policies);
        let mut scratch = DeltaScratch::default();
        for _ in 0..probes {
            let k = rng.index(ev.num_streams());
            let (delta, probe) = if rng.index(2) == 0 {
                let idx = rng.index(ev.menu(k).len());
                let mut p = asg.clone();
                p.plan_idx[k] = idx;
                (ctx.evaluate_delta(k, idx, &mut scratch), p)
            } else {
                let srv = rng.index(ev.num_servers());
                let mut p = asg.clone();
                p.placement[k] = srv;
                (ctx.evaluate_move(k, srv, &mut scratch), p)
            };
            let fresh = ev.evaluate(&probe, policies).objective;
            prop_assert_eq!(delta.to_bits(), fresh.to_bits(),
                "trial {} vs fresh {}", delta, fresh);
        }
        // Trials never mutate the context.
        prop_assert_eq!(
            ctx.objective().to_bits(),
            ev.evaluate(&asg, policies).objective.to_bits()
        );
    }

    /// A random walk of committed flips and moves keeps every cache equal
    /// to a from-scratch rebuild at each step.
    #[test]
    fn committed_walk_stays_exact(s in scen_strategy(), steps in 1usize..16) {
        let (ev, policies) = build(&s);
        let mut rng = SimRng::new(s.seed, 43);
        let asg = random_assignment(&ev, &mut rng);
        let mut ctx = EvalContext::new(&ev, asg, policies);
        for _ in 0..steps {
            let k = rng.index(ev.num_streams());
            if rng.index(2) == 0 {
                ctx.commit_plan(k, rng.index(ev.menu(k).len()));
            } else {
                ctx.commit_move(k, rng.index(ev.num_servers()));
            }
            ctx.assert_matches_fresh();
            let fresh = ev.evaluate(&ctx.assignment(), policies).objective;
            prop_assert_eq!(ctx.objective().to_bits(), fresh.to_bits());
        }
    }

    /// Both evaluation backends drive the search along the same path:
    /// identical objective traces (bitwise), evaluation counts, and final
    /// assignments — for a cold solve (descent, then Gibbs) and for a warm
    /// descent from a random assignment, with and without diversity caps.
    /// The random start gives the descent plenty of improving plans, and
    /// the caps filter some of them out.
    #[test]
    fn search_traces_identical_across_backends(s in scen_strategy(), capped in any::<bool>()) {
        let (ev, policies) = build(&s);
        let diversity = capped.then(|| DiversityConfig {
            server_domain: (0..ev.num_servers()).map(|srv| srv % 2).collect(),
        });
        let base = OptimizerConfig {
            rounds: 2,
            gibbs_iters: 25,
            policies,
            diversity,
            ..Default::default()
        };
        let mut rng = SimRng::new(s.seed, 61);
        let warm = random_assignment(&ev, &mut rng);
        let run = |eval_mode| {
            let cfg = OptimizerConfig { eval_mode, ..base.clone() };
            let cold = optimizer::solve(&ev, &cfg);
            let warm = optimizer::descent_from_with_budget(&ev, &cfg, warm.clone(), Budget::UNLIMITED);
            [cold, warm.solution]
        };
        let fulls = run(EvalMode::Full);
        let incs = run(EvalMode::Incremental);
        for (full, inc) in fulls.iter().zip(&incs) {
            prop_assert_eq!(full.trace.evaluations, inc.trace.evaluations);
            prop_assert_eq!(full.trace.objective.len(), inc.trace.objective.len());
            for (i, (a, b)) in full.trace.objective.iter().zip(&inc.trace.objective).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "trace[{}]: {} vs {}", i, a, b);
            }
            prop_assert_eq!(&full.assignment, &inc.assignment);
            prop_assert_eq!(
                full.result.objective.to_bits(),
                inc.result.objective.to_bits()
            );
        }
    }
}
