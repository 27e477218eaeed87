//! Capacity planning: how many devices can one edge rack carry before the
//! deadline-satisfaction ratio falls below a target? Joint optimization
//! moves the wall — this example finds the wall for a static baseline and
//! for the joint scheme.
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

use scalpel::core::baselines::{solve_with, Method};
use scalpel::core::compiler::CompileOptions;
use scalpel::core::config::ScenarioConfig;
use scalpel::core::evaluator::Evaluator;
use scalpel::core::optimizer::OptimizerConfig;
use scalpel::core::runner;

const TARGET: f64 = 0.95;

/// Measured deadline ratio for one method at one fleet size.
fn deadline_ratio(devices_per_ap: usize, method: Method) -> f64 {
    let mut scenario = ScenarioConfig {
        num_aps: 2,
        devices_per_ap,
        ..ScenarioConfig::default()
    };
    scenario.sim.horizon_s = 15.0;
    scenario.sim.warmup_s = 2.0;
    let problem = scenario.build();
    let evaluator = Evaluator::new(&problem, None);
    let sol = solve_with(&evaluator, method, &OptimizerConfig::default());
    let reports = runner::run_solution_seeds(
        &problem,
        &evaluator,
        &sol,
        scenario.sim.clone(),
        &[5],
        &CompileOptions::default(),
    );
    runner::aggregate(method, &sol, &reports).deadline_ratio
}

fn main() {
    println!(
        "capacity planning: max devices with ≥{:.0}% on-time frames",
        TARGET * 100.0
    );
    for method in [Method::Neurosurgeon, Method::Joint] {
        println!("\n{}:", method.name());
        let mut last_ok = 0;
        for devices_per_ap in [2usize, 4, 6, 8, 10, 14, 18] {
            let total = devices_per_ap * 2;
            let ratio = deadline_ratio(devices_per_ap, method);
            let ok = ratio >= TARGET;
            println!(
                "  {:>3} devices -> {:>5.1}% on time {}",
                total,
                ratio * 100.0,
                if ok { "ok" } else { "MISSES TARGET" }
            );
            if ok {
                last_ok = total;
            }
        }
        println!("  => supportable fleet: ~{last_ok} devices");
    }
}
