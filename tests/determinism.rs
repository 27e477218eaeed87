//! Reproducibility: the entire pipeline — scenario build, menu generation,
//! joint search, simulation — is a pure function of its seeds.

use scalpel::core::baselines::{solve_with, Method};
use scalpel::core::compiler::CompileOptions;
use scalpel::core::config::ScenarioConfig;
use scalpel::core::evaluator::Evaluator;
use scalpel::core::optimizer::OptimizerConfig;
use scalpel::core::runner;
use scalpel::sim::{FaultProfile, SimConfig};

fn scenario() -> ScenarioConfig {
    ScenarioConfig {
        num_aps: 1,
        devices_per_ap: 4,
        arrival_rate_hz: 6.0,
        sim: SimConfig {
            horizon_s: 6.0,
            warmup_s: 1.0,
            seed: 77,
            fading: true,
            ..SimConfig::default()
        },
        ..ScenarioConfig::default()
    }
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let problem = scenario().build();
        let ev = Evaluator::new(&problem, None);
        let sol = solve_with(
            &ev,
            Method::Joint,
            &OptimizerConfig {
                rounds: 2,
                gibbs_iters: 30,
                ..Default::default()
            },
        );
        let opts = CompileOptions::default();
        let reports =
            runner::run_solution_seeds(&problem, &ev, &sol, scenario().sim, &[1, 2], &opts);
        (
            sol.assignment.plan_idx.clone(),
            sol.assignment.placement.clone(),
            sol.result.objective,
            reports.iter().map(|r| r.latency.mean).collect::<Vec<_>>(),
            reports.iter().map(|r| r.completed).collect::<Vec<_>>(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "plan choices differ");
    assert_eq!(a.1, b.1, "placements differ");
    assert_eq!(a.2, b.2, "objectives differ");
    assert_eq!(a.3, b.3, "simulated latencies differ");
    assert_eq!(a.4, b.4, "completion counts differ");
}

/// The scenario with a non-trivial fault plan installed (all four fault
/// classes active at a rate that disrupts most of the run).
fn faulted_scenario(fault_seed: u64) -> ScenarioConfig {
    let mut cfg = scenario();
    cfg.sim.faults = cfg.fault_plan(&FaultProfile {
        seed: fault_seed,
        rate_hz: 0.8,
        mean_outage_s: 1.5,
        start_s: 1.0,
        classes: Vec::new(),
    });
    assert!(
        !cfg.sim.faults.is_empty(),
        "profile produced an empty plan; the test would be vacuous"
    );
    cfg
}

#[test]
fn whole_pipeline_with_faults_is_bit_identical() {
    let run = || {
        let cfg = faulted_scenario(5);
        let problem = cfg.build();
        let ev = Evaluator::new(&problem, None);
        let sol = solve_with(
            &ev,
            Method::Joint,
            &OptimizerConfig {
                rounds: 2,
                gibbs_iters: 30,
                ..Default::default()
            },
        );
        let opts = CompileOptions::default();
        let reports = runner::run_solution_seeds(&problem, &ev, &sol, cfg.sim, &[1, 2], &opts);
        (
            sol.assignment.plan_idx.clone(),
            sol.result.objective,
            reports.iter().map(|r| r.latency.mean).collect::<Vec<_>>(),
            reports.iter().map(|r| r.completed).collect::<Vec<_>>(),
            reports.iter().map(|r| r.faults.clone()).collect::<Vec<_>>(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "plan choices differ");
    assert_eq!(a.1, b.1, "objectives differ");
    assert_eq!(a.2, b.2, "simulated latencies differ");
    assert_eq!(a.3, b.3, "completion counts differ");
    assert_eq!(a.4, b.4, "fault metrics differ");
    let faulted = &a.4[0];
    assert!(faulted.injected > 0, "fault plan never fired");
}

#[test]
fn fault_seed_isolation() {
    // Changing only the fault seed changes the disruption schedule (and
    // therefore the measurement) but not the solution itself.
    let solve_under = |fault_seed: u64| {
        let cfg = faulted_scenario(fault_seed);
        let problem = cfg.build();
        let ev = Evaluator::new(&problem, None);
        let sol = solve_with(&ev, Method::Joint, &OptimizerConfig::default());
        let opts = CompileOptions::default();
        let reports = runner::run_solution_seeds(&problem, &ev, &sol, cfg.sim, &[1], &opts);
        (sol.assignment.plan_idx.clone(), reports)
    };
    let (plans_a, reports_a) = solve_under(5);
    let (plans_b, reports_b) = solve_under(6);
    assert_eq!(plans_a, plans_b, "fault seed leaked into the optimizer");
    assert_ne!(
        (
            reports_a[0].faults.clone(),
            reports_a[0].latency.mean.to_bits()
        ),
        (
            reports_b[0].faults.clone(),
            reports_b[0].latency.mean.to_bits()
        ),
        "different fault seeds produced identical faulted runs"
    );
}

#[test]
fn optimizer_seed_changes_gibbs_exploration_only_deterministically() {
    let problem = scenario().build();
    let ev = Evaluator::new(&problem, None);
    let solve_gibbs = || {
        solve_with(
            &ev,
            Method::Joint,
            &OptimizerConfig {
                rounds: 1,
                gibbs_iters: 50,
                ..Default::default()
            },
        )
        .result
        .objective
    };
    assert_eq!(solve_gibbs(), solve_gibbs());
}

#[test]
fn simulation_seed_isolation() {
    // Changing only the sim seed must not change the solution, just the
    // measured sample.
    let problem = scenario().build();
    let ev = Evaluator::new(&problem, None);
    let sol = solve_with(&ev, Method::Neurosurgeon, &OptimizerConfig::default());
    let opts = CompileOptions::default();
    let r1 = runner::run_solution_seeds(&problem, &ev, &sol, scenario().sim, &[1], &opts);
    let r2 = runner::run_solution_seeds(&problem, &ev, &sol, scenario().sim, &[2], &opts);
    assert_ne!(r1[0].latency.mean, r2[0].latency.mean);
    // but both measure the same system: means within a factor of 2
    let ratio = r1[0].latency.mean / r2[0].latency.mean;
    assert!(
        ratio > 0.5 && ratio < 2.0,
        "seeds diverge too much: {ratio}"
    );
}
