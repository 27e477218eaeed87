//! Golden-snapshot regression test: a fixed scenario + fault plan must
//! keep producing exactly this summary. If a legitimate change to the
//! simulator or fault layer moves these numbers, re-pin them consciously —
//! the point is that they never move *silently*.

use scalpel::core::baselines::{solve_with, Method};
use scalpel::core::compiler::CompileOptions;
use scalpel::core::config::ScenarioConfig;
use scalpel::core::evaluator::Evaluator;
use scalpel::core::optimizer::OptimizerConfig;
use scalpel::core::runner;
use scalpel::sim::{
    CorrelatedProfile, DomainKind, FailureDomain, FaultProfile, RecoveryConfig, SimConfig,
    SimReport,
};

/// The frozen scenario: 1 AP × 4 devices, 6 s horizon, all four fault
/// classes injected at 0.8 faults/s from t = 1 s. Every knob is pinned.
fn golden_report() -> SimReport {
    let mut cfg = ScenarioConfig {
        num_aps: 1,
        devices_per_ap: 4,
        arrival_rate_hz: 6.0,
        seed: 7,
        sim: SimConfig {
            horizon_s: 6.0,
            warmup_s: 1.0,
            seed: 77,
            fading: true,
            ..SimConfig::default()
        },
        ..ScenarioConfig::default()
    };
    cfg.sim.faults = cfg.fault_plan(&FaultProfile {
        seed: 5,
        rate_hz: 1.2,
        mean_outage_s: 1.5,
        start_s: 1.0,
        classes: Vec::new(),
    });
    let problem = cfg.build();
    let ev = Evaluator::new(&problem, None);
    // Deterministic solve: descent only, no Gibbs exploration.
    let sol = solve_with(
        &ev,
        Method::Neurosurgeon,
        &OptimizerConfig {
            rounds: 1,
            gibbs_iters: 0,
            ..Default::default()
        },
    );
    let opts = CompileOptions::default();
    runner::run_solution_seeds(&problem, &ev, &sol, cfg.sim, &[1], &opts)
        .pop()
        .expect("one seed, one report")
}

#[test]
fn golden_faulted_run_summary_is_pinned() {
    let r = golden_report();
    let summary = (
        r.generated,
        r.completed,
        r.faults.stranded,
        r.faults.stalled,
        r.faults.injected,
        r.faults.applied,
        r.faults.recoveries,
        (r.latency.p99 * 1e3).round() as i64, // p99 bucket, whole ms
    );
    println!("golden summary: {summary:?}");
    assert_eq!(
        summary,
        (95, 94, 1, 0, 16, 12, 5, 3172),
        "golden summary moved — re-pin only if the change is intentional"
    );
    // Structural invariants of the pinned run (guard the pin itself).
    assert_eq!(r.generated, r.completed + r.faults.lost());
    assert!(r.faults.injected > 0, "the pinned plan must actually fire");
}

/// The same frozen scenario with the full recovery ladder switched on.
fn golden_recovered_report() -> SimReport {
    let mut cfg = ScenarioConfig {
        num_aps: 1,
        devices_per_ap: 4,
        arrival_rate_hz: 6.0,
        seed: 7,
        sim: SimConfig {
            horizon_s: 6.0,
            warmup_s: 1.0,
            seed: 77,
            fading: true,
            ..SimConfig::default()
        },
        ..ScenarioConfig::default()
    };
    cfg.sim.faults = cfg.fault_plan(&FaultProfile {
        seed: 5,
        rate_hz: 1.2,
        mean_outage_s: 1.5,
        start_s: 1.0,
        classes: Vec::new(),
    });
    cfg.sim.recovery = RecoveryConfig::full();
    let problem = cfg.build();
    let ev = Evaluator::new(&problem, None);
    let sol = solve_with(
        &ev,
        Method::Neurosurgeon,
        &OptimizerConfig {
            rounds: 1,
            gibbs_iters: 0,
            ..Default::default()
        },
    );
    let opts = CompileOptions::default();
    runner::run_solution_seeds(&problem, &ev, &sol, cfg.sim, &[1], &opts)
        .pop()
        .expect("one seed, one report")
}

#[test]
fn golden_recovered_run_summary_is_pinned() {
    let r = golden_recovered_report();
    let summary = (
        r.generated,
        r.completed,
        r.recovery.degraded,
        r.recovery.shed,
        r.recovery.timeouts,
        r.recovery.retries,
        r.recovery.hedges,
        r.recovery.breaker_opens,
        r.faults.stranded,
        r.faults.stalled,
        (r.recovery.mean_degraded_accuracy * 1e4).round() as i64,
    );
    println!("golden recovered summary: {summary:?}");
    assert_eq!(
        summary,
        (95, 75, 19, 0, 11, 1, 1, 3, 1, 0, 6286),
        "golden recovered summary moved — re-pin only if the change is intentional"
    );
    // The extended conservation law must hold on the pinned run.
    assert_eq!(r.generated, r.accounted());
}

/// The frozen scenario under a *correlated* schedule: the three GPU
/// servers fail as one rack, recovery ladder on, ranked fallback menus
/// steering hedges outside the rack.
fn golden_correlated_report() -> SimReport {
    let cfg = ScenarioConfig {
        num_aps: 1,
        devices_per_ap: 4,
        arrival_rate_hz: 6.0,
        seed: 7,
        sim: SimConfig {
            horizon_s: 6.0,
            warmup_s: 1.0,
            seed: 77,
            fading: true,
            recovery: RecoveryConfig::full(),
            ..SimConfig::default()
        },
        ..ScenarioConfig::default()
    };
    let problem = cfg.build();
    let rack = FailureDomain {
        name: "gpu-rack".into(),
        kind: DomainKind::ServerRack,
        aps: Vec::new(),
        servers: (1..problem.cluster.servers.len()).collect(),
    };
    let server_domain = scalpel::core::diversity::server_domain_from(
        std::slice::from_ref(&rack),
        problem.cluster.servers.len(),
    );
    let plan = CorrelatedProfile {
        seed: 5,
        rate_hz: 1.2,
        mean_outage_s: 1.5,
        start_s: 1.0,
    }
    .plan(vec![rack], cfg.sim.horizon_s);
    let ev = Evaluator::new(&problem, None);
    let sol = solve_with(
        &ev,
        Method::Neurosurgeon,
        &OptimizerConfig {
            rounds: 1,
            gibbs_iters: 0,
            ..Default::default()
        },
    );
    let opts = CompileOptions {
        server_domain: Some(server_domain),
    };
    let sim = SimConfig {
        faults: plan,
        recovery: RecoveryConfig::full(),
        ..cfg.sim.clone()
    };
    runner::run_solution_seeds(&problem, &ev, &sol, sim, &[1], &opts)
        .pop()
        .expect("one seed, one report")
}

#[test]
fn golden_correlated_run_summary_is_pinned() {
    let r = golden_correlated_report();
    let summary = (
        r.generated,
        r.completed,
        r.recovery.degraded,
        r.recovery.shed,
        r.recovery.hedges,
        r.recovery.breaker_opens,
        r.faults.stranded,
        r.faults.stalled,
        r.faults.injected,
        (r.latency.p99 * 1e3).round() as i64,
    );
    println!("golden correlated summary: {summary:?}");
    assert_eq!(
        summary,
        (100, 99, 0, 0, 0, 0, 1, 0, 2, 61),
        "golden correlated summary moved — re-pin only if the change is intentional"
    );
    assert_eq!(r.generated, r.accounted());
    assert!(r.faults.injected > 0, "the rack outage must actually fire");
}

/// Identical config (recovery included) reruns bit-for-bit.
#[test]
fn golden_recovered_run_is_bit_identical_on_rerun() {
    let a = golden_recovered_report();
    let b = golden_recovered_report();
    assert_eq!(a.generated, b.generated);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.latency.mean.to_bits(), b.latency.mean.to_bits());
    assert_eq!(a.latency.p99.to_bits(), b.latency.p99.to_bits());
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.recovery, b.recovery);
}
