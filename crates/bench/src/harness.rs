//! Shared experiment machinery: build a scenario, solve it with each
//! method, execute in the simulator over several seeds, aggregate.

use rayon::prelude::*;
use scalpel_core::baselines::{solve_with, Method};
use scalpel_core::compiler::CompileOptions;
use scalpel_core::config::ScenarioConfig;
use scalpel_core::evaluator::Evaluator;
use scalpel_core::optimizer::OptimizerConfig;
use scalpel_core::runner::{self, MethodOutcome};
use serde::{Deserialize, Serialize};

/// One method's aggregated results on one scenario point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodRow {
    /// The method.
    pub method: Method,
    /// Aggregated outcome.
    pub outcome: MethodOutcome,
}

/// Default simulation seeds for experiment averaging.
pub const DEFAULT_SEEDS: &[u64] = &[101, 202, 303];

/// Solve + simulate every listed method on the scenario.
///
/// Methods run in parallel (each holds its own solution; the evaluator is
/// shared read-only), and each method's seeds run in parallel inside the
/// runner.
pub fn compare_methods(
    scfg: &ScenarioConfig,
    opt_cfg: &OptimizerConfig,
    methods: &[Method],
    seeds: &[u64],
) -> Vec<MethodRow> {
    let problem = scfg.build();
    problem
        .validate()
        .expect("scenario is valid by construction");
    let ev = Evaluator::new(&problem, None);
    methods
        .par_iter()
        .map(|&method| {
            let sol = solve_with(&ev, method, opt_cfg);
            let opts = CompileOptions::default();
            let reports =
                runner::run_solution_seeds(&problem, &ev, &sol, scfg.sim.clone(), seeds, &opts);
            MethodRow {
                method,
                outcome: runner::aggregate(method, &sol, &reports),
            }
        })
        .collect()
}

/// The optimizer configuration used by all experiments (fixed so results
/// are reproducible run-to-run).
pub fn default_optimizer() -> OptimizerConfig {
    OptimizerConfig {
        rounds: 4,
        gibbs_iters: 150,
        ..Default::default()
    }
}

/// A faster scenario for smoke tests and CI.
pub fn smoke_scenario() -> ScenarioConfig {
    let mut cfg = ScenarioConfig {
        num_aps: 1,
        devices_per_ap: 4,
        arrival_rate_hz: 4.0,
        ..ScenarioConfig::default()
    };
    cfg.sim.horizon_s = 8.0;
    cfg.sim.warmup_s = 1.0;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_methods_smoke() {
        let rows = compare_methods(
            &smoke_scenario(),
            &OptimizerConfig {
                rounds: 1,
                gibbs_iters: 10,
                ..Default::default()
            },
            &[Method::EdgeOnly, Method::Joint],
            &[1],
        );
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.outcome.completed > 0, "{}", r.method.name());
            assert!(r.outcome.latency.mean > 0.0);
        }
    }
}
