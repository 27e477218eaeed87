//! F18 \[extension\] — switching hysteresis under fleet churn.
//!
//! The same seeded churn trace (link/capacity/load drift plus device
//! up/down cycles) is replayed through two [`PlanningService`] postures:
//! *governed* (the [`SwitchGovernor`] defaults — rolling latency windows,
//! minimum dwell, switch-cost-priced acceptance, capped switches per
//! tick) and *ungoverned* (every replan adopted verbatim, the naive
//! per-event-replanning baseline). Both see identical events, identical
//! tick cadence, and identical evaluation-count solve budgets, so every
//! difference in the table is the governor's doing. The claim under test:
//! the governed service performs at least 5× fewer stream switches while
//! its deadline-hit rate (simulated, final adopted plan under the final
//! drifted conditions) stays within one percentage point of the
//! thrashing baseline.
//!
//! [`SwitchGovernor`]: scalpel_core::service::SwitchGovernor

use crate::table::{ms, pct, Table};
use rayon::prelude::*;
use scalpel_core::baselines::Method;
use scalpel_core::compiler::CompileOptions;
use scalpel_core::optimizer::{Budget, OptimizerConfig};
use scalpel_core::runner::{self, MethodOutcome};
use scalpel_core::service::{PlanningService, ServiceConfig, ServiceStatus};
use scalpel_core::ScenarioConfig;
use scalpel_sim::{ChurnProfile, ChurnTrace};

/// Seed of the shared churn trace (independent of scenario seeds).
pub(crate) const CHURN_SEED: u64 = 1818;

/// The F18 scenario: two APs of smartphones against the default
/// heterogeneous server mix, loaded enough that drift matters.
pub(crate) fn scenario(quick: bool) -> ScenarioConfig {
    ScenarioConfig {
        num_aps: 2,
        devices_per_ap: if quick { 4 } else { 8 },
        arrival_rate_hz: 3.0,
        seed: 7,
        ..ScenarioConfig::default()
    }
}

fn horizon_s(quick: bool) -> f64 {
    if quick {
        40.0
    } else {
        120.0
    }
}

/// The shared churn trace for a scenario.
pub(crate) fn churn_trace(quick: bool) -> ChurnTrace {
    let p = scenario(quick).build();
    ChurnProfile {
        seed: CHURN_SEED,
        ..ChurnProfile::default()
    }
    .plan(
        p.cluster.devices.len(),
        p.cluster.aps.len(),
        p.cluster.servers.len(),
        p.streams.len(),
        horizon_s(quick),
    )
}

/// One posture's end state: the service's final status row, how many
/// ticks it spent degraded, and the simulated outcome of its final
/// adopted plan under the final drifted conditions.
pub(crate) struct ChurnOutcome {
    /// Posture label.
    pub name: &'static str,
    /// Final service status (cumulative switch/replan counters).
    pub status: ServiceStatus,
    /// Ticks spent in degraded mode.
    pub degraded_ticks: usize,
    /// Simulated outcome of the final plan under the final conditions.
    pub sim: MethodOutcome,
}

fn drive(name: &'static str, ungoverned: bool, quick: bool) -> ChurnOutcome {
    let scfg = scenario(quick);
    let problem = scfg.build();
    let trace = churn_trace(quick);
    let cfg = ServiceConfig {
        optimizer: OptimizerConfig {
            rounds: 3,
            gibbs_iters: if quick { 20 } else { 60 },
            ..OptimizerConfig::default()
        },
        replan_budget: Budget::evals(200_000),
        tick_s: 2.0,
        ungoverned,
        ..ServiceConfig::default()
    };
    let mut svc = PlanningService::new(problem, cfg).expect("f18 scenario validates");
    let report = svc
        .drive_trace(&trace, horizon_s(quick))
        .expect("a fresh service starts at cursor 0");
    let degraded_ticks = report.outcomes.iter().filter(|o| o.degraded).count();
    let status = svc.status();
    let final_problem = svc.effective_problem();
    let seeds: &[u64] = if quick { &[101, 202] } else { &[101, 202, 303] };
    let reports = runner::run_solution_seeds(
        &final_problem,
        svc.evaluator(),
        svc.solution(),
        scfg.sim.clone(),
        seeds,
        &CompileOptions::default(),
    );
    let sim = runner::aggregate(Method::Joint, svc.solution(), &reports);
    ChurnOutcome {
        name,
        status,
        degraded_ticks,
        sim,
    }
}

/// Both postures over the shared trace, governed first.
pub(crate) fn outcomes(quick: bool) -> Vec<ChurnOutcome> {
    [("governed", false), ("ungoverned", true)]
        .par_iter()
        .map(|&(name, ungoverned)| drive(name, ungoverned, quick))
        .collect()
}

/// Print the governed-vs-ungoverned churn table.
pub fn run(quick: bool) {
    println!("\n== F18 [extension]: switching hysteresis under churn (governed vs ungoverned) ==");
    let mut t = Table::new(vec![
        "posture",
        "replans",
        "switches",
        "plan changes",
        "remap misses",
        "degraded ticks",
        "objective",
        "sim mean(ms)",
        "sim deadline",
    ]);
    for o in outcomes(quick) {
        t.row(vec![
            o.name.into(),
            o.status.total_replans.to_string(),
            o.status.total_switches.to_string(),
            o.status.total_plan_changes.to_string(),
            o.status.remap_misses.to_string(),
            o.degraded_ticks.to_string(),
            format!("{:.4}", o.status.last_objective),
            ms(o.sim.latency.mean),
            pct(o.sim.deadline_ratio),
        ]);
    }
    t.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f18_quick_runs() {
        run(true);
    }

    /// The acceptance criterion: ≥5× fewer switches at a deadline-hit
    /// rate within one percentage point, on the same churn trace.
    #[test]
    fn f18_governor_cuts_switching_without_losing_deadlines() {
        let rows = outcomes(true);
        let governed = rows.iter().find(|o| o.name == "governed").expect("row");
        let ungoverned = rows.iter().find(|o| o.name == "ungoverned").expect("row");
        assert!(
            ungoverned.status.total_switches >= 5,
            "trace too mild to thrash the baseline ({} switches)",
            ungoverned.status.total_switches
        );
        assert!(
            ungoverned.status.total_switches >= 5 * governed.status.total_switches.max(1),
            "governed {} vs ungoverned {} switches",
            governed.status.total_switches,
            ungoverned.status.total_switches
        );
        assert!(
            (governed.sim.deadline_ratio - ungoverned.sim.deadline_ratio).abs() <= 0.01,
            "deadline-hit drifted: governed {:.4} vs ungoverned {:.4}",
            governed.sim.deadline_ratio,
            ungoverned.sim.deadline_ratio
        );
        // Both services consumed the entire trace without rejections.
        assert_eq!(governed.status.rejected_batches, 0);
        assert_eq!(
            governed.status.events_consumed,
            ungoverned.status.events_consumed
        );
    }

    /// Same trace + same budgets reproduce bit-for-bit.
    #[test]
    fn f18_outcomes_are_deterministic() {
        let a = outcomes(true);
        let b = outcomes(true);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.status, y.status);
            assert_eq!(x.sim.latency.mean, y.sim.latency.mean);
            assert_eq!(x.sim.deadline_ratio, y.sim.deadline_ratio);
        }
    }
}
