//! F15 \[extension\] — dynamic edge: online re-optimization and the
//! distributed controller.
//!
//! Timeline: the system runs at 20 MHz per AP, then the links degrade
//! (20 → 6 → 3 MHz). At each epoch we compare (a) keeping the stale
//! solution, (b) the online controller's warm-started re-solve, and
//! (c) the fully distributed best-response dynamics — all *simulated*
//! under the new conditions, plus the controller's re-solve cost.

use crate::table::{ms, pct, Table};
use scalpel_core::baselines::Method;
use scalpel_core::compiler;
use scalpel_core::config::ScenarioConfig;
use scalpel_core::distributed;
use scalpel_core::evaluator::Evaluator;
use scalpel_core::online::{remap_assignment, OnlineController};
use scalpel_core::optimizer::OptimizerConfig;
use scalpel_sim::EdgeSim;

fn scenario(bandwidth_mhz: f64, quick: bool) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::default();
    if quick {
        cfg.num_aps = 2;
        cfg.devices_per_ap = 3;
        cfg.sim.horizon_s = 8.0;
        cfg.sim.warmup_s = 1.0;
    }
    cfg.ap_bandwidth_hz = bandwidth_mhz * 1e6;
    cfg
}

/// Simulate an assignment under a scenario and return (mean ms, deadline).
fn simulate(
    scfg: &ScenarioConfig,
    ev: &Evaluator,
    asg: &scalpel_core::evaluator::Assignment,
    policies: scalpel_core::evaluator::AllocPolicies,
) -> (f64, f64) {
    let problem = scfg.build();
    let result = ev.evaluate(asg, policies);
    let streams = compiler::compile(&problem, ev, asg, &result);
    let report = EdgeSim::new(problem.cluster.clone(), streams, scfg.sim.clone())
        .expect("valid streams")
        .run();
    (report.latency.mean, report.deadline_ratio)
}

/// Print the degradation timeline.
pub fn run(quick: bool) {
    println!("\n== F15 [extension]: dynamic edge (bandwidth degradation timeline) ==");
    let opt = OptimizerConfig {
        rounds: 3,
        gibbs_iters: if quick { 30 } else { 100 },
        ..Default::default()
    };
    let epochs: &[f64] = if quick {
        &[20.0, 4.0]
    } else {
        &[20.0, 6.0, 3.0]
    };
    let mut t = Table::new(vec![
        "epoch (MHz)",
        "variant",
        "mean(ms)",
        "deadline",
        "resolve ms",
        "plan changes",
    ]);
    // Bootstrap on the first epoch.
    let scfg0 = scenario(epochs[0], quick);
    let ev0 = Evaluator::new(&scfg0.build(), None);
    let mut controller = OnlineController::bootstrap(&ev0, opt.clone());
    let (m0, d0) = simulate(
        &scfg0,
        &ev0,
        &controller.solution().assignment.clone(),
        opt.policies,
    );
    t.row(vec![
        format!("{:.0}", epochs[0]),
        "bootstrap (centralized)".into(),
        ms(m0),
        pct(d0),
        "-".into(),
        "-".into(),
    ]);
    let mut prev_ev = ev0;
    for &mhz in &epochs[1..] {
        let scfg = scenario(mhz, quick);
        let ev = Evaluator::new(&scfg.build(), None);
        // (a) stale decisions under new conditions.
        let stale = remap_assignment(&prev_ev, &ev, &controller.solution().assignment.clone());
        let (sm, sd) = simulate(&scfg, &ev, &stale, opt.policies);
        t.row(vec![
            format!("{mhz:.0}"),
            "stale (no adaptation)".into(),
            ms(sm),
            pct(sd),
            "-".into(),
            "-".into(),
        ]);
        // (b) online warm-started adaptation.
        let report = controller.adapt(&prev_ev, &ev);
        let (am, ad) = simulate(
            &scfg,
            &ev,
            &controller.solution().assignment.clone(),
            opt.policies,
        );
        t.row(vec![
            format!("{mhz:.0}"),
            "online adapt (warm start)".into(),
            ms(am),
            pct(ad),
            format!("{:.1}", report.resolve_ms),
            report.plans_changed.to_string(),
        ]);
        // (c) distributed best response, from scratch, for comparison.
        let dist = distributed::solve_distributed(&ev);
        let (dm, dd) = simulate(&scfg, &ev, &dist.solution.assignment, opt.policies);
        t.row(vec![
            format!("{mhz:.0}"),
            format!("distributed ({} rounds)", dist.rounds),
            ms(dm),
            pct(dd),
            "-".into(),
            "-".into(),
        ]);
        prev_ev = ev;
    }
    t.print();
    let _ = Method::Joint; // (method ladder lives in T3; here we compare controllers)
}

#[cfg(test)]
mod tests {
    #[test]
    fn f15_quick_runs() {
        super::run(true);
    }
}
