//! Executing solutions in the discrete-event simulator.
//!
//! The runner is where analytic beliefs meet measured reality: it compiles
//! a solution, runs the simulator over one or more seeds (rayon-parallel),
//! and aggregates the reports the experiment harness prints.

use crate::baselines::Method;
use crate::compiler;
use crate::evaluator::{Assignment, EvalResult, Evaluator};
use crate::optimizer::Solution;
use crate::problem::JointProblem;
use rayon::prelude::*;
use scalpel_sim::{EdgeSim, LatencyStats, SimConfig, SimReport, SimScratch};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

thread_local! {
    /// Per-thread simulator scratch: the rayon seed fan-out reuses one
    /// scratch per worker across seeds, postures, and fault intensities,
    /// so only the first run on each worker pays for allocation. Safe to
    /// reuse anywhere — every run resets it on entry.
    static SIM_SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::new());
}

/// A method's end-to-end measured outcome (possibly seed-averaged).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodOutcome {
    /// Which method.
    pub method: Method,
    /// Analytic pricing of the chosen configuration.
    pub analytic_objective: f64,
    /// Mean expected accuracy over streams (analytic).
    pub analytic_accuracy: f64,
    /// Aggregated simulated latency stats (samples pooled across seeds).
    pub latency: LatencyStats,
    /// Simulated deadline-satisfaction ratio (mean over seeds).
    pub deadline_ratio: f64,
    /// Simulated mean accuracy (mean over seeds).
    pub accuracy: f64,
    /// Fraction of requests that exited on-device (mean over seeds).
    pub early_exit_fraction: f64,
    /// Requests measured across all seeds.
    pub completed: usize,
    /// Mean expected device-side energy per request, joules (analytic).
    pub device_energy_j: f64,
    /// Mean expected total energy per request, joules (analytic).
    pub total_energy_j: f64,
    /// Requests lost to faults across all seeds (stranded + stalled;
    /// zero for fault-free runs).
    pub fault_lost: usize,
    /// Deadline misses completed while a fault was active, across seeds.
    pub fault_misses: usize,
    /// Mean observed fault recovery time, seconds (mean over seeds that
    /// observed ≥1 recovery).
    pub mean_recovery_s: f64,
    /// Requests completed through the degradation ladder, across seeds
    /// (zero when recovery is off).
    #[serde(default)]
    pub degraded: usize,
    /// Requests shed by open breakers, across seeds.
    #[serde(default)]
    pub shed: usize,
    /// Retry timeouts fired, across seeds.
    #[serde(default)]
    pub retry_timeouts: usize,
    /// Mean accuracy sacrificed per degraded completion (mean over seeds
    /// that degraded ≥1 request; zero otherwise). Negative when the
    /// ladder's local-finish rung runs the full unquantized model and
    /// beats the offload plan's accuracy — degradation then trades
    /// latency, not accuracy.
    #[serde(default)]
    pub accuracy_cost: f64,
}

/// Compile one solution under `opts` and run it once. Simulator
/// construction failures surface as a typed error instead of a panic, so
/// callers may feed unvalidated or repaired problems. Faults and recovery
/// travel in `sim` ([`SimConfig::faults`], [`SimConfig::recovery`]);
/// `CompileOptions::default()` lowers the flat hedging order, other
/// options the ranked fallback menus.
pub fn try_run_solution(
    problem: &JointProblem,
    ev: &Evaluator,
    asg: &Assignment,
    result: &EvalResult,
    sim: SimConfig,
    opts: &compiler::CompileOptions,
) -> Result<SimReport, String> {
    let streams = compiler::compile_with(problem, ev, asg, result, opts);
    let sim = EdgeSim::new(problem.cluster.clone(), streams, sim)?;
    Ok(SIM_SCRATCH.with(|scratch| sim.run_with_scratch(&mut scratch.borrow_mut())))
}

/// Run one solution over several seeds in parallel, one report per seed.
/// Every seed shares `base_sim`'s fault plan and recovery policy, so
/// methods compared on the same seeds face the identical disruption
/// schedule.
pub fn run_solution_seeds(
    problem: &JointProblem,
    ev: &Evaluator,
    sol: &Solution,
    base_sim: SimConfig,
    seeds: &[u64],
    opts: &compiler::CompileOptions,
) -> Vec<SimReport> {
    seeds
        .par_iter()
        .map(|&seed| {
            let mut cfg = base_sim.clone();
            cfg.seed = seed;
            try_run_solution(problem, ev, &sol.assignment, &sol.result, cfg, opts)
                .unwrap_or_else(|e| panic!("compiled streams validate by construction: {e}"))
        })
        .collect()
}

/// Aggregate seed reports into one outcome row.
pub fn aggregate(method: Method, sol: &Solution, reports: &[SimReport]) -> MethodOutcome {
    let mut all_latencies: Vec<f64> = Vec::new();
    let mut deadline = 0.0;
    let mut acc = 0.0;
    let mut early = 0.0;
    let mut completed = 0usize;
    for r in reports {
        // Pool per-stream samples via the aggregate distribution: we only
        // kept the stats, so approximate pooling by weighting means; for
        // percentile pooling we rerun from per-report quantiles. Simpler
        // and exact: reports carry per-stream stats; the harness pools
        // means and takes the max of p99s as a conservative tail.
        deadline += r.deadline_ratio;
        acc += r.mean_accuracy;
        early += r.early_exit_fraction;
        completed += r.completed;
        all_latencies.push(r.latency.mean);
    }
    let n = reports.len().max(1) as f64;
    // Conservative pooled stats: mean of means, max of tails.
    let pooled = LatencyStats {
        count: completed,
        mean: all_latencies.iter().sum::<f64>() / n,
        p50: reports.iter().map(|r| r.latency.p50).sum::<f64>() / n,
        p95: reports.iter().map(|r| r.latency.p95).sum::<f64>() / n,
        p99: reports.iter().map(|r| r.latency.p99).fold(0.0, f64::max),
        max: reports.iter().map(|r| r.latency.max).fold(0.0, f64::max),
    };
    let analytic_accuracy =
        sol.result.accuracy.iter().sum::<f64>() / sol.result.accuracy.len().max(1) as f64;
    let mean_of = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let device_energy_j = mean_of(&sol.result.device_energy_j);
    let total_energy_j = mean_of(&sol.result.total_energy_j);
    let fault_lost = reports.iter().map(|r| r.faults.lost()).sum();
    let fault_misses = reports.iter().map(|r| r.faults.misses_during_fault).sum();
    let recovered: Vec<f64> = reports
        .iter()
        .filter(|r| r.faults.recoveries > 0)
        .map(|r| r.faults.mean_recovery_s)
        .collect();
    // An empty f64 sum is -0.0, which would print as "-0.00".
    let mean_recovery_s = if recovered.is_empty() {
        0.0
    } else {
        mean_of(&recovered)
    };
    let degraded = reports.iter().map(|r| r.recovery.degraded).sum();
    let shed = reports.iter().map(|r| r.recovery.shed).sum();
    let retry_timeouts = reports.iter().map(|r| r.recovery.timeouts).sum();
    let costs: Vec<f64> = reports
        .iter()
        .filter(|r| r.recovery.degraded > 0)
        .map(|r| r.recovery.accuracy_cost)
        .collect();
    let accuracy_cost = if costs.is_empty() {
        0.0
    } else {
        mean_of(&costs)
    };
    MethodOutcome {
        method,
        analytic_objective: sol.result.objective,
        analytic_accuracy,
        latency: pooled,
        deadline_ratio: deadline / n,
        accuracy: acc / n,
        early_exit_fraction: early / n,
        completed,
        device_energy_j,
        total_energy_j,
        fault_lost,
        fault_misses,
        mean_recovery_s,
        degraded,
        shed,
        retry_timeouts,
        accuracy_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{solve_with, Method};
    use crate::compiler::CompileOptions;
    use crate::config::ScenarioConfig;
    use crate::optimizer::OptimizerConfig;
    use scalpel_sim::{FaultProfile, RecoveryConfig};

    fn quick_scenario() -> (JointProblem, Evaluator, SimConfig) {
        let cfg = ScenarioConfig {
            num_aps: 1,
            devices_per_ap: 4,
            arrival_rate_hz: 4.0,
            sim: SimConfig {
                horizon_s: 8.0,
                warmup_s: 1.0,
                seed: 3,
                fading: true,
                ..SimConfig::default()
            },
            ..ScenarioConfig::default()
        };
        let p = cfg.build();
        let ev = Evaluator::new(&p, None);
        (p, ev, cfg.sim)
    }

    #[test]
    fn joint_solution_runs_in_simulator() {
        let (p, ev, sim) = quick_scenario();
        let cfg = OptimizerConfig {
            rounds: 2,
            gibbs_iters: 20,
            ..Default::default()
        };
        let sol = solve_with(&ev, Method::Joint, &cfg);
        let reports = run_solution_seeds(&p, &ev, &sol, sim, &[1, 2], &CompileOptions::default());
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.completed > 0);
            assert!(r.latency.mean > 0.0);
        }
        let outcome = aggregate(Method::Joint, &sol, &reports);
        assert!(outcome.deadline_ratio >= 0.0 && outcome.deadline_ratio <= 1.0);
        assert!(outcome.accuracy > 0.5);
        assert!(outcome.completed > 0);
    }

    #[test]
    fn seed_runs_differ_but_are_individually_deterministic() {
        let (p, ev, sim) = quick_scenario();
        let sol = solve_with(&ev, Method::Neurosurgeon, &OptimizerConfig::default());
        let opts = CompileOptions::default();
        let a = run_solution_seeds(&p, &ev, &sol, sim.clone(), &[7], &opts);
        let b = run_solution_seeds(&p, &ev, &sol, sim.clone(), &[7], &opts);
        assert_eq!(a[0].latency.mean, b[0].latency.mean);
        let c = run_solution_seeds(&p, &ev, &sol, sim, &[8], &opts);
        assert_ne!(a[0].latency.mean, c[0].latency.mean);
    }

    #[test]
    fn faulted_runs_conserve_requests_and_fill_outcome() {
        let (p, ev, sim) = quick_scenario();
        let sol = solve_with(&ev, Method::Joint, &OptimizerConfig::default());
        let plan = FaultProfile {
            rate_hz: 0.6,
            mean_outage_s: 1.5,
            start_s: 1.0,
            ..FaultProfile::default()
        }
        .plan(
            p.cluster.devices.len(),
            p.cluster.aps.len(),
            p.cluster.servers.len(),
            sim.horizon_s,
        );
        assert!(!plan.is_empty());
        let faulted = SimConfig {
            faults: plan,
            ..sim
        };
        let opts = CompileOptions::default();
        let reports = run_solution_seeds(&p, &ev, &sol, faulted.clone(), &[1, 2], &opts);
        for r in &reports {
            assert_eq!(r.generated, r.completed + r.faults.lost());
            assert!(r.faults.injected > 0);
        }
        let outcome = aggregate(Method::Joint, &sol, &reports);
        assert_eq!(
            outcome.fault_lost,
            reports.iter().map(|r| r.faults.lost()).sum::<usize>()
        );
        // The identical plan under the same seed reproduces bit-for-bit.
        let again = run_solution_seeds(&p, &ev, &sol, faulted, &[1, 2], &opts);
        assert_eq!(reports[0].latency.mean, again[0].latency.mean);
        assert_eq!(reports[0].faults, again[0].faults);
    }

    #[test]
    fn recovered_runs_account_every_request_and_fill_outcome() {
        let (p, ev, sim) = quick_scenario();
        let sol = solve_with(&ev, Method::Joint, &OptimizerConfig::default());
        let plan = FaultProfile {
            rate_hz: 0.8,
            mean_outage_s: 2.0,
            start_s: 1.0,
            ..FaultProfile::default()
        }
        .plan(
            p.cluster.devices.len(),
            p.cluster.aps.len(),
            p.cluster.servers.len(),
            sim.horizon_s,
        );
        let recovered = SimConfig {
            faults: plan,
            recovery: RecoveryConfig::full(),
            ..sim
        };
        let opts = CompileOptions::default();
        let reports = run_solution_seeds(&p, &ev, &sol, recovered.clone(), &[1, 2], &opts);
        for r in &reports {
            assert_eq!(r.generated, r.accounted());
        }
        let outcome = aggregate(Method::Joint, &sol, &reports);
        assert_eq!(
            outcome.degraded,
            reports.iter().map(|r| r.recovery.degraded).sum::<usize>()
        );
        assert!(outcome.accuracy_cost.is_finite());
        // Same plan, seeds, and policy reproduce bit-for-bit.
        let again = run_solution_seeds(&p, &ev, &sol, recovered, &[1, 2], &opts);
        assert_eq!(reports[0].latency.mean, again[0].latency.mean);
        assert_eq!(reports[0].recovery, again[0].recovery);
    }

    #[test]
    fn aggregate_pools_conservatively() {
        let (p, ev, sim) = quick_scenario();
        let sol = solve_with(&ev, Method::EdgeOnly, &OptimizerConfig::default());
        let reports =
            run_solution_seeds(&p, &ev, &sol, sim, &[1, 2, 3], &CompileOptions::default());
        let outcome = aggregate(Method::EdgeOnly, &sol, &reports);
        let max_p99 = reports.iter().map(|r| r.latency.p99).fold(0.0, f64::max);
        assert_eq!(outcome.latency.p99, max_p99);
        assert_eq!(
            outcome.completed,
            reports.iter().map(|r| r.completed).sum::<usize>()
        );
    }
}
