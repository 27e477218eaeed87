//! F14 \[extension\] — analytic-model validation.
//!
//! The joint search is steered by the analytic evaluator; this experiment
//! quantifies how well its per-stream expected latencies track the
//! simulator with fading disabled (the planner's world) and enabled (the
//! real one), reporting the relative error distribution.

use crate::table::Table;
use scalpel_core::baselines::{solve_with, Method};
use scalpel_core::compiler::CompileOptions;
use scalpel_core::config::ScenarioConfig;
use scalpel_core::evaluator::Evaluator;
use scalpel_core::runner;
use scalpel_sim::SimConfig;

/// Print analytic-vs-simulated mean relative error per load level.
pub fn run(quick: bool) {
    println!("\n== F14 [extension]: analytic evaluator vs simulator ==");
    let rates: &[f64] = if quick {
        &[3.0]
    } else {
        &[2.0, 5.0, 8.0, 12.0]
    };
    let mut t = Table::new(vec![
        "rate",
        "fading",
        "mean rel err",
        "worst stream rel err",
        "analytic mean ms",
        "sim mean ms",
    ]);
    for &rate in rates {
        for fading in [false, true] {
            let scfg = ScenarioConfig {
                num_aps: 2,
                devices_per_ap: if quick { 3 } else { 5 },
                arrival_rate_hz: rate,
                sim: SimConfig {
                    horizon_s: if quick { 10.0 } else { 30.0 },
                    warmup_s: 2.0,
                    seed: 17,
                    fading,
                    ..SimConfig::default()
                },
                ..ScenarioConfig::default()
            };
            let problem = scfg.build();
            let ev = Evaluator::new(&problem, None);
            let sol = solve_with(&ev, Method::Joint, &harness_opt(quick));
            let report = runner::try_run_solution(
                &problem,
                &ev,
                &sol.assignment,
                &sol.result,
                scfg.sim.clone(),
                &CompileOptions::default(),
            )
            .unwrap_or_else(|e| panic!("compiled streams validate by construction: {e}"));
            // Per-stream comparison.
            let mut errs = Vec::new();
            for (k, ss) in report.per_stream.iter().enumerate() {
                if ss.completed == 0 {
                    continue;
                }
                let analytic = sol.result.latency_s[k];
                let simulated = ss.latency.mean;
                errs.push(((analytic - simulated) / simulated).abs());
            }
            let mean_err = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
            let worst = errs.iter().cloned().fold(0.0, f64::max);
            let analytic_mean =
                sol.result.latency_s.iter().sum::<f64>() / sol.result.latency_s.len() as f64;
            t.row(vec![
                format!("{rate:.0}"),
                fading.to_string(),
                format!("{:.1}%", mean_err * 100.0),
                format!("{:.1}%", worst * 100.0),
                format!("{:.2}", analytic_mean * 1e3),
                format!("{:.2}", report.latency.mean * 1e3),
            ]);
        }
    }
    t.print();
}

fn harness_opt(quick: bool) -> scalpel_core::optimizer::OptimizerConfig {
    scalpel_core::optimizer::OptimizerConfig {
        rounds: if quick { 2 } else { 4 },
        gibbs_iters: if quick { 30 } else { 150 },
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn f14_quick_runs() {
        super::run(true);
    }
}
