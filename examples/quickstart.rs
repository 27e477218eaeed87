//! Quickstart: build a small heterogeneous-edge scenario, jointly optimize
//! model surgery + resource allocation, and measure the result in the
//! discrete-event simulator.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use scalpel::core::baselines::{solve_with, Method};
use scalpel::core::compiler::CompileOptions;
use scalpel::core::config::ScenarioConfig;
use scalpel::core::evaluator::Evaluator;
use scalpel::core::optimizer::OptimizerConfig;
use scalpel::core::runner;

fn main() {
    // 1. A scenario: 2 APs × 4 devices, heterogeneous boards and servers,
    //    Poisson 5 req/s per stream, per-model deadlines.
    let scenario = ScenarioConfig {
        num_aps: 2,
        devices_per_ap: 4,
        arrival_rate_hz: 5.0,
        ..ScenarioConfig::default()
    };
    let problem = scenario.build();
    println!(
        "scenario: {} devices, {} APs, {} servers, {} streams",
        problem.cluster.devices.len(),
        problem.cluster.aps.len(),
        problem.cluster.servers.len(),
        problem.streams.len()
    );

    // 2. Build the per-stream surgery menus and price configurations.
    let evaluator = Evaluator::new(&problem, None);

    // 3. Solve jointly (coordinate descent + Gibbs refinement).
    let solution = solve_with(&evaluator, Method::Joint, &OptimizerConfig::default());
    println!(
        "joint solution: objective {:.4}, {} expected deadline misses",
        solution.result.objective, solution.result.expected_misses
    );
    for (k, idx) in solution.assignment.plan_idx.iter().enumerate() {
        let plan = &evaluator.menu(k)[*idx];
        println!(
            "  stream {k}: cut {} exits {:?} prune {:?} -> server {} \
             (bw {:.2}, compute {:.2})",
            plan.plan.cut,
            plan.plan
                .exits
                .iter()
                .map(|(h, t)| format!("{h}@{t:.2}"))
                .collect::<Vec<_>>(),
            plan.plan.prune,
            solution.assignment.placement[k],
            solution.result.bandwidth_shares[k],
            solution.result.compute_shares[k],
        );
    }

    // 4. Execute in the simulator (3 seeds) and report what was measured.
    let reports = runner::run_solution_seeds(
        &problem,
        &evaluator,
        &solution,
        scenario.sim.clone(),
        &[1, 2, 3],
        &CompileOptions::default(),
    );
    let outcome = runner::aggregate(Method::Joint, &solution, &reports);
    println!(
        "simulated: mean {:.1} ms, p99 {:.1} ms, deadline {:.1}%, \
         accuracy {:.3}, early-exit {:.1}%",
        outcome.latency.mean * 1e3,
        outcome.latency.p99 * 1e3,
        outcome.deadline_ratio * 100.0,
        outcome.accuracy,
        outcome.early_exit_fraction * 100.0
    );
}
