//! End-to-end integration: scenario → menus → joint search → compile →
//! simulate, across crates.

use scalpel::core::baselines::{solve_with, Method};
use scalpel::core::compiler::CompileOptions;
use scalpel::core::config::ScenarioConfig;
use scalpel::core::evaluator::Evaluator;
use scalpel::core::optimizer::OptimizerConfig;
use scalpel::core::runner;
use scalpel::sim::SimConfig;

fn small_scenario() -> ScenarioConfig {
    ScenarioConfig {
        num_aps: 2,
        devices_per_ap: 3,
        arrival_rate_hz: 5.0,
        sim: SimConfig {
            horizon_s: 10.0,
            warmup_s: 1.0,
            seed: 9,
            fading: true,
            ..SimConfig::default()
        },
        ..ScenarioConfig::default()
    }
}

fn quick_opt() -> OptimizerConfig {
    OptimizerConfig {
        rounds: 2,
        gibbs_iters: 40,
        ..Default::default()
    }
}

#[test]
fn full_pipeline_every_method() {
    let scenario = small_scenario();
    let problem = scenario.build();
    problem.validate().unwrap();
    let ev = Evaluator::new(&problem, None);
    for &method in Method::ALL {
        let sol = solve_with(&ev, method, &quick_opt());
        let opts = CompileOptions::default();
        let reports =
            runner::run_solution_seeds(&problem, &ev, &sol, scenario.sim.clone(), &[1], &opts);
        let o = runner::aggregate(method, &sol, &reports);
        assert!(o.completed > 0, "{}: no completions", method.name());
        assert!(
            o.latency.mean > 0.0 && o.latency.mean.is_finite(),
            "{}: bad latency",
            method.name()
        );
        assert!(
            o.accuracy > 0.4 && o.accuracy <= 1.0,
            "{}: accuracy {}",
            method.name(),
            o.accuracy
        );
    }
}

#[test]
fn joint_beats_static_baselines_in_simulation() {
    let scenario = small_scenario();
    let problem = scenario.build();
    let ev = Evaluator::new(&problem, None);
    let measure = |method: Method| -> f64 {
        let sol = solve_with(&ev, method, &quick_opt());
        let opts = CompileOptions::default();
        let reports =
            runner::run_solution_seeds(&problem, &ev, &sol, scenario.sim.clone(), &[1, 2], &opts);
        runner::aggregate(method, &sol, &reports).latency.mean
    };
    let joint = measure(Method::Joint);
    let edge_only = measure(Method::EdgeOnly);
    let device_only = measure(Method::DeviceOnly);
    // The headline shape: Joint must clearly beat both static extremes.
    assert!(
        joint < edge_only,
        "joint {joint} not better than edge-only {edge_only}"
    );
    assert!(
        joint < device_only,
        "joint {joint} not better than device-only {device_only}"
    );
}

#[test]
fn accuracy_floor_is_respected_end_to_end() {
    let scenario = small_scenario();
    let problem = scenario.build();
    let ev = Evaluator::new(&problem, None);
    let sol = solve_with(&ev, Method::Joint, &quick_opt());
    for (k, spec) in problem.streams.iter().enumerate() {
        let plan = &ev.menu(k)[sol.assignment.plan_idx[k]];
        assert!(
            plan.exp_accuracy + 1e-9 >= spec.accuracy_floor,
            "stream {k}: accuracy {} below floor {}",
            plan.exp_accuracy,
            spec.accuracy_floor
        );
    }
}

#[test]
fn deadline_pressure_increases_offload_or_exits() {
    // With very tight deadlines the joint solution should lean on the edge
    // (devices are too slow alone); with loose deadlines anything goes.
    let scenario = small_scenario();
    let mut problem = scenario.build();
    for s in &mut problem.streams {
        s.deadline_s = 0.05;
    }
    let ev = Evaluator::new(&problem, None);
    let sol = solve_with(&ev, Method::Joint, &quick_opt());
    // At least one stream must use the edge under 50 ms deadlines (weak
    // devices cannot run the heavy zoo models alone that fast).
    let offloaded = (0..ev.num_streams())
        .filter(|&k| !ev.menu(k)[sol.assignment.plan_idx[k]].is_device_only())
        .count();
    assert!(offloaded > 0);
}

#[test]
fn simulated_misses_track_analytic_misses() {
    let scenario = small_scenario();
    let problem = scenario.build();
    let ev = Evaluator::new(&problem, None);
    let sol = solve_with(&ev, Method::Joint, &quick_opt());
    let opts = CompileOptions::default();
    let reports =
        runner::run_solution_seeds(&problem, &ev, &sol, scenario.sim.clone(), &[3], &opts);
    let o = runner::aggregate(Method::Joint, &sol, &reports);
    // If the analytic model expects zero misses, simulation should be at
    // least 80% on time (fading/queueing tails account for the gap).
    if sol.result.expected_misses == 0 {
        assert!(
            o.deadline_ratio > 0.8,
            "analytic said feasible, sim ratio {}",
            o.deadline_ratio
        );
    }
}
