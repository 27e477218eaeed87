//! Dynamic adaptation: links degrade at runtime; the online controller
//! warm-starts a re-solve while the stale solution collapses. Also shows
//! the fully distributed best-response controller converging to a Nash
//! equilibrium without any central coordinator.
//!
//! ```sh
//! cargo run --release --example dynamic_adaptation
//! ```

use scalpel::core::config::ScenarioConfig;
use scalpel::core::distributed;
use scalpel::core::evaluator::Evaluator;
use scalpel::core::online::{remap_assignment, OnlineController};
use scalpel::core::optimizer::OptimizerConfig;

fn scenario(bandwidth_mhz: f64) -> ScenarioConfig {
    ScenarioConfig {
        num_aps: 2,
        devices_per_ap: 4,
        ap_bandwidth_hz: bandwidth_mhz * 1e6,
        ..ScenarioConfig::default()
    }
}

fn main() {
    let opt = OptimizerConfig::default();

    println!("epoch 0: 20 MHz per AP — bootstrap");
    let ev20 = Evaluator::new(&scenario(20.0).build(), None);
    let mut controller = OnlineController::bootstrap(&ev20, opt.clone());
    println!(
        "  objective {:.4}, {} expected misses",
        controller.solution().result.objective,
        controller.solution().result.expected_misses
    );

    println!("\nepoch 1: links degrade to 4 MHz");
    let ev4 = Evaluator::new(&scenario(4.0).build(), None);
    let stale = remap_assignment(&ev20, &ev4, &controller.solution().assignment.clone());
    let stale_priced = ev4.evaluate(&stale, opt.policies);
    println!(
        "  stale solution re-priced: objective {:.4}, {} expected misses",
        stale_priced.objective, stale_priced.expected_misses
    );
    let report = controller.adapt(&ev20, &ev4);
    println!(
        "  online adapt: objective {:.4} (from {:.4}), {} plans changed, \
         {} placements changed, {:.1} ms re-solve",
        report.adapted_objective,
        report.stale_objective,
        report.plans_changed,
        report.placements_changed,
        report.resolve_ms
    );

    println!("\ndistributed mode (no central controller), same 4 MHz epoch:");
    let out = distributed::solve_distributed(&ev4);
    println!(
        "  converged: {} after {} rounds, {} selfish moves; objective {:.4} \
         (centralized warm-start achieved {:.4})",
        out.converged,
        out.rounds,
        out.moves,
        out.solution.result.objective,
        report.adapted_objective
    );
}
