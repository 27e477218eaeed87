//! F9 — optimizer convergence and optimality gap.
//!
//! On a small instance where the plan product space is exhaustively
//! enumerable, trace the joint search's best-so-far objective and report
//! the final gap to the exhaustive optimum; on the default instance, print
//! the convergence series alone.

use crate::table::Table;
use scalpel_core::config::ScenarioConfig;
use scalpel_core::evaluator::Evaluator;
use scalpel_core::optimizer::{self, Budget, OptimizerConfig};
use scalpel_surgery::candidates::CandidateConfig;
use scalpel_surgery::PruneLevel;

/// Print the convergence trace and the optimality gap vs exhaustive.
pub fn run(quick: bool) {
    println!("\n== F9: convergence & optimality gap ==");
    // Small instance for the exhaustive reference.
    let scfg = ScenarioConfig {
        num_aps: 1,
        devices_per_ap: if quick { 2 } else { 3 },
        arrival_rate_hz: 5.0,
        ..ScenarioConfig::default()
    };
    let problem = scfg.build();
    let menu_cfg = CandidateConfig {
        max_cuts: 4,
        prune_levels: vec![PruneLevel::None],
        ..Default::default()
    };
    let ev = Evaluator::new(&problem, Some(menu_cfg));
    let opt_cfg = OptimizerConfig {
        rounds: 4,
        gibbs_iters: if quick { 60 } else { 200 },
        ..Default::default()
    };
    let exhaustive = optimizer::try_exhaustive(&ev, &opt_cfg, 2_000_000)
        .expect("the F9 instance fits the exhaustive limit");
    // Start the traced search from the naive configuration (every stream
    // on its first menu plan, round-robin placement) so the figure shows
    // actual descent, then Gibbs refinement.
    let naive = scalpel_core::evaluator::Assignment {
        plan_idx: vec![0; ev.num_streams()],
        placement: (0..ev.num_streams())
            .map(|k| k % ev.num_servers())
            .collect(),
    };
    let descended = optimizer::descent_from_with_budget(&ev, &opt_cfg, naive, Budget::UNLIMITED);
    let sol =
        optimizer::refine_from_with_budget(&ev, &opt_cfg, descended.solution, Budget::UNLIMITED)
            .solution;
    let gap = (sol.result.objective - exhaustive.result.objective)
        / exhaustive.result.objective.max(1e-12);
    println!(
        "streams={} menu sizes={:?} evaluations={} (exhaustive={})",
        ev.num_streams(),
        (0..ev.num_streams())
            .map(|k| ev.menu(k).len())
            .collect::<Vec<_>>(),
        sol.trace.evaluations,
        exhaustive.trace.evaluations,
    );
    println!(
        "joint objective={:.5}  exhaustive optimum={:.5}  gap={:.2}%",
        sol.result.objective,
        exhaustive.result.objective,
        gap * 100.0
    );
    // Convergence series, downsampled to ~15 points.
    let trace = &sol.trace.objective;
    let mut t = Table::new(vec!["step", "best objective"]);
    let stride = (trace.len() / 15).max(1);
    for (i, v) in trace.iter().enumerate() {
        if i % stride == 0 || i + 1 == trace.len() {
            t.row(vec![i.to_string(), format!("{v:.5}")]);
        }
    }
    t.print();
}

#[cfg(test)]
mod tests {
    #[test]
    fn f9_quick_runs() {
        super::run(true);
    }
}
