//! Camera fleet: the workload the paper's introduction motivates — a fleet
//! of smart cameras streaming frames at a fixed rate with hard per-frame
//! deadlines, served by a small heterogeneous edge rack. Compares the full
//! method ladder and prints who keeps the fleet within deadline.
//!
//! ```sh
//! cargo run --release --example camera_fleet
//! ```

use scalpel::core::baselines::{solve_with, Method};
use scalpel::core::compiler::CompileOptions;
use scalpel::core::config::ScenarioConfig;
use scalpel::core::evaluator::Evaluator;
use scalpel::core::optimizer::OptimizerConfig;
use scalpel::core::problem::JointProblem;
use scalpel::core::runner;
use scalpel::sim::ArrivalProcess;

/// Make every stream a 10 fps camera with per-frame jitter and a 120 ms
/// frame budget (ResNet/MobileNet analytics-style).
fn cameraize(problem: &mut JointProblem) {
    for s in &mut problem.streams {
        s.arrivals = ArrivalProcess::Periodic {
            period_s: 0.1,
            jitter_frac: 0.2,
        };
        s.deadline_s = 0.120;
    }
}

fn main() {
    let scenario = ScenarioConfig {
        num_aps: 3,
        devices_per_ap: 6,
        ..ScenarioConfig::default()
    };
    let mut problem = scenario.build();
    cameraize(&mut problem);
    println!(
        "camera fleet: {} cameras at 10 fps, 120 ms frame budget",
        problem.streams.len()
    );

    let evaluator = Evaluator::new(&problem, None);
    let opt = OptimizerConfig::default();
    println!(
        "\n{:<14} {:>9} {:>9} {:>9} {:>10} {:>9} {:>11}",
        "method", "mean ms", "p95 ms", "p99 ms", "deadline", "accuracy", "early-exit"
    );
    for &method in Method::ALL {
        let sol = solve_with(&evaluator, method, &opt);
        let reports = runner::run_solution_seeds(
            &problem,
            &evaluator,
            &sol,
            scenario.sim.clone(),
            &[11, 22],
            &CompileOptions::default(),
        );
        let o = runner::aggregate(method, &sol, &reports);
        println!(
            "{:<14} {:>9.1} {:>9.1} {:>9.1} {:>9.1}% {:>9.3} {:>10.1}%",
            method.name(),
            o.latency.mean * 1e3,
            o.latency.p95 * 1e3,
            o.latency.p99 * 1e3,
            o.deadline_ratio * 100.0,
            o.accuracy,
            o.early_exit_fraction * 100.0
        );
    }
}
