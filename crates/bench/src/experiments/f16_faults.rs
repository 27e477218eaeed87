//! F16 \[extension\] — resilience under fault injection.
//!
//! Every method solves the *clean* scenario once, then all of them face
//! the identical seeded fault schedule (device churn, AP outages, link
//! degradation, server throttling) at escalating intensity. The table
//! reports how gracefully each configuration degrades: mean latency,
//! deadline satisfaction, requests lost to faults, SLO misses
//! attributable to active faults, and observed recovery time. A final
//! `Joint+adapt` row re-solves against the sustained degradations via the
//! online controller and simulates the adapted decisions under the same
//! faults.

use crate::harness::DEFAULT_SEEDS;
use crate::table::{ms, pct, Table};
use rayon::prelude::*;
use scalpel_core::baselines::{solve_with, Method};
use scalpel_core::compiler;
use scalpel_core::config::ScenarioConfig;
use scalpel_core::evaluator::Evaluator;
use scalpel_core::online::{degraded_problem, OnlineController};
use scalpel_core::optimizer::{OptimizerConfig, Solution};
use scalpel_core::runner;
use scalpel_sim::{EdgeSim, FaultPlan, FaultProfile, RecoveryConfig, SimConfig};

/// Seed of the fault stream — fixed so every method and intensity level
/// reuses the same disruption pattern (scaled, not resampled).
pub(crate) const FAULT_SEED: u64 = 901;

pub(crate) fn scenario(quick: bool) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::default();
    if quick {
        cfg.num_aps = 2;
        cfg.devices_per_ap = 3;
        cfg.sim.horizon_s = 8.0;
        cfg.sim.warmup_s = 1.0;
    }
    cfg
}

pub(crate) fn plan_for(scfg: &ScenarioConfig, rate_hz: f64) -> FaultPlan {
    if rate_hz <= 0.0 {
        return FaultPlan::none();
    }
    scfg.fault_plan(&FaultProfile {
        seed: FAULT_SEED,
        rate_hz,
        mean_outage_s: 2.0,
        start_s: scfg.sim.warmup_s,
        classes: Vec::new(),
    })
}

/// Print the resilience table.
pub fn run(quick: bool) {
    println!("\n== F16 [extension]: fault injection (resilience vs intensity) ==");
    let scfg = scenario(quick);
    let opt = OptimizerConfig {
        rounds: 3,
        gibbs_iters: if quick { 30 } else { 100 },
        ..Default::default()
    };
    let seeds: &[u64] = if quick { &[101] } else { DEFAULT_SEEDS };
    let intensities: &[f64] = if quick {
        &[0.0, 0.4]
    } else {
        &[0.0, 0.1, 0.3, 0.6]
    };
    let problem = scfg.build();
    let ev = Evaluator::new(&problem, None);
    // Solve once per method on the clean scenario: static solutions face
    // the faults exactly as deployed.
    let sols: Vec<(Method, Solution)> = Method::ALL
        .par_iter()
        .map(|&m| (m, solve_with(&ev, m, &opt)))
        .collect();
    let mut t = Table::new(vec![
        "faults (/s)",
        "method",
        "mean(ms)",
        "deadline",
        "lost",
        "fault misses",
        "recovery(s)",
    ]);
    for &rate in intensities {
        let plan = plan_for(&scfg, rate);
        let rows: Vec<_> = sols
            .par_iter()
            .map(|(m, sol)| {
                let sim = SimConfig {
                    faults: plan.clone(),
                    ..scfg.sim.clone()
                };
                let opts = compiler::CompileOptions::default();
                let reports = runner::run_solution_seeds(&problem, &ev, sol, sim, seeds, &opts);
                runner::aggregate(*m, sol, &reports)
            })
            .collect();
        for o in &rows {
            t.row(vec![
                format!("{rate:.1}"),
                o.method.name().into(),
                ms(o.latency.mean),
                pct(o.deadline_ratio),
                o.fault_lost.to_string(),
                o.fault_misses.to_string(),
                format!("{:.2}", o.mean_recovery_s),
            ]);
        }
        // Joint + online adaptation, closed loop: a probe run of the
        // deployed Joint solution faces the faults with full recovery and
        // telemetry on; `degraded_problem` reads only the emitted health
        // snapshots (breaker states per epoch) and derates the problem
        // accordingly — no oracle access to the fault schedule. The
        // controller warm-starts against the derated problem and the
        // adapted decisions face the same faults.
        if !plan.is_empty() {
            let joint = &sols
                .iter()
                .find(|(m, _)| matches!(m, Method::Joint))
                .expect("Joint is in Method::ALL")
                .1;
            let probe_streams = compiler::compile(&problem, &ev, &joint.assignment, &joint.result);
            let mut probe_sim = scfg.sim.clone();
            probe_sim.seed = seeds[0];
            probe_sim.faults = plan.clone();
            probe_sim.recovery = RecoveryConfig::full();
            let (_, trace) = EdgeSim::new(problem.cluster.clone(), probe_streams, probe_sim)
                .expect("deployed streams validate")
                .run_logged();
            let degraded =
                degraded_problem(&problem, &trace.health).unwrap_or_else(|| problem.clone());
            let new_ev = Evaluator::new(&degraded, None);
            let mut ctl = OnlineController::bootstrap(&ev, opt.clone());
            ctl.adapt(&ev, &new_ev);
            let asg = ctl.solution().assignment.clone();
            let result = new_ev.evaluate(&asg, opt.policies);
            let streams = compiler::compile(&degraded, &new_ev, &asg, &result);
            let reports: Vec<_> = seeds
                .par_iter()
                .map(|&seed| {
                    let mut sim = scfg.sim.clone();
                    sim.seed = seed;
                    sim.faults = plan.clone();
                    // Simulate on the *real* cluster: the plan itself
                    // applies the degradations at runtime.
                    EdgeSim::new(problem.cluster.clone(), streams.clone(), sim)
                        .expect("adapted streams validate")
                        .run()
                })
                .collect();
            let o = runner::aggregate(Method::Joint, ctl.solution(), &reports);
            t.row(vec![
                format!("{rate:.1}"),
                "Joint+adapt".into(),
                ms(o.latency.mean),
                pct(o.deadline_ratio),
                o.fault_lost.to_string(),
                o.fault_misses.to_string(),
                format!("{:.2}", o.mean_recovery_s),
            ]);
        }
    }
    t.print();
}

#[cfg(test)]
mod tests {
    #[test]
    fn f16_quick_runs() {
        super::run(true);
    }

    #[test]
    fn f16_plans_scale_with_intensity() {
        let scfg = super::scenario(true);
        assert!(super::plan_for(&scfg, 0.0).is_empty());
        let low = super::plan_for(&scfg, 0.2);
        let high = super::plan_for(&scfg, 0.8);
        assert!(!low.is_empty());
        assert!(high.events.len() > low.events.len());
    }
}
