//! Property tests for the incremental evaluation layer: on random
//! topologies, random plan flips and server moves priced through
//! [`EvalContext`] must match a fresh full evaluation — not just within
//! 1e-9, but bit for bit — and the search must walk identical
//! trajectories under both evaluation backends. Topologies host one to
//! three streams per device, so a plan flip moves its device-mates'
//! wait.

use proptest::prelude::*;
use scalpel::core::config::{ScenarioConfig, ServerMix};
use scalpel::core::diversity::DiversityConfig;
use scalpel::core::eval_context::{DeltaScratch, EvalContext};
use scalpel::core::evaluator::{AllocPolicies, Assignment, Evaluator};
use scalpel::core::optimizer::{self, Budget, EvalMode, OptimizerConfig};
use scalpel::core::problem::JointProblem;
use scalpel::sim::SimRng;

/// Scenario axes small enough to keep 64 cases fast but varied: topology
/// shape, streams per device, load, server rack, and allocation policies.
#[derive(Debug, Clone)]
struct Scen {
    num_aps: usize,
    devices_per_ap: usize,
    streams_per_device: usize,
    arrival_rate_hz: f64,
    /// 0 = the standard four-box rack; 1..=4 = that many synthetic servers.
    synthetic_servers: usize,
    seed: u64,
    equal_policies: bool,
}

fn scen_strategy() -> impl Strategy<Value = Scen> {
    (
        (
            1usize..4,
            1usize..5,
            1.0f64..10.0,
            0usize..5,
            0u64..1_000,
            any::<bool>(),
        ),
        1usize..4,
    )
        .prop_map(
            |(
                (num_aps, devices_per_ap, arrival_rate_hz, synthetic_servers, seed, equal_policies),
                streams_per_device,
            )| {
                Scen {
                    num_aps,
                    devices_per_ap,
                    streams_per_device,
                    arrival_rate_hz,
                    synthetic_servers,
                    seed,
                    equal_policies,
                }
            },
        )
}

/// Give every device `streams_per_device` streams: extra stream `e` on
/// device `d` copies the stream of device `d + e` (its model, deadline
/// and floor, wrapping round), moved onto `d`.
fn add_device_mates(problem: &mut JointProblem, streams_per_device: usize) {
    let devices = problem.streams.len();
    for extra in 1..streams_per_device {
        for d in 0..devices {
            let mut spec = problem.streams[(d + extra) % devices].clone();
            spec.device = d;
            problem.streams.push(spec);
        }
    }
    assert!(problem.validate().is_ok());
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
    let mut problem = cfg.build();
    add_device_mates(&mut problem, s.streams_per_device);
    let ev = Evaluator::new(&problem, None);
    let policies = if s.equal_policies {
        AllocPolicies::equal()
    } else {
        AllocPolicies::optimal()
    };
    (ev, policies)
}

/// Every menu scan equals its plans probed one by one on fresh scratch,
/// which no scan memo reaches: bit for bit, for every stream and plan.
fn assert_scans_match_fresh_probes(ctx: &mut EvalContext) {
    for k in 0..ctx.evaluator().num_streams() {
        let scores = ctx.score_menu(k);
        for (idx, &scored) in scores.iter().enumerate() {
            let fresh = ctx.evaluate_delta(k, idx, &mut DeltaScratch::default());
            assert_eq!(
                scored.to_bits(),
                fresh.to_bits(),
                "scan of stream {k}, plan {idx}: {scored} vs {fresh}"
            );
        }
    }
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

    /// A menu scan prices every plan as a lone probe on fresh scratch does.
    #[test]
    fn menu_scans_match_fresh_probes(s in scen_strategy()) {
        let (ev, policies) = build(&s);
        let mut rng = SimRng::new(s.seed, 37);
        let asg = random_assignment(&ev, &mut rng);
        let mut ctx = EvalContext::new(&ev, asg, policies);
        assert_scans_match_fresh_probes(&mut ctx);
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

/// A hand-built device-mate case for the scan memo. One AP, two devices
/// with three streams each, every stream on its most offloading plan
/// except stream 0, which runs on the device. Stream 0's device-mates 2
/// and 4 offload to servers 1 and 0, and streams 1, 3 and 5 share those
/// servers from the other device. Every offloading plan of stream 0 is
/// a toggle, and each moves device 0's wait: server 1 holds no stream 0
/// would join, yet it must be re-solved for every plan, because its
/// member 2 waits on stream 0's device. The deadline-aware solve reads a
/// wait only through that member's deadline floor, and at this seed and
/// load the floor moves server 1's shares: a scan that kept them from
/// its first toggle would price some plans wrong.
#[test]
fn menu_scans_reprice_servers_of_device_mates() {
    let cfg = ScenarioConfig {
        num_aps: 1,
        devices_per_ap: 2,
        arrival_rate_hz: 2.0,
        servers: ServerMix::Synthetic {
            count: 2,
            mean_fps: 5e11,
            cv: 0.4,
        },
        seed: 9,
        ..ScenarioConfig::default()
    };
    let mut problem = cfg.build();
    add_device_mates(&mut problem, 3);
    let ev = Evaluator::new(&problem, None);
    assert_eq!(ev.num_streams(), 6);
    let plan_idx = (0..ev.num_streams())
        .map(|k| {
            let menu = ev.menu(k);
            let remain = |i: usize| menu[i].behavior.remain_prob;
            let pick = |better: fn(f64, f64) -> bool| {
                (0..menu.len()).fold(0, |b, i| if better(remain(i), remain(b)) { i } else { b })
            };
            if k == 0 {
                pick(|a, b| a < b)
            } else {
                pick(|a, b| a > b)
            }
        })
        .collect();
    let asg = Assignment {
        plan_idx,
        placement: vec![0, 1, 1, 1, 0, 0],
    };
    let mut ctx = EvalContext::new(&ev, asg, AllocPolicies::optimal());
    assert!(!ctx.is_offloaded(0));
    assert!((1..6).all(|k| ctx.is_offloaded(k)));
    assert_scans_match_fresh_probes(&mut ctx);
}
