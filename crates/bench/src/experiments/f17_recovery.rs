//! F17 \[extension\] — closed-loop recovery under injected faults.
//!
//! The Joint solution is deployed once, then faces an identical seeded
//! path-fault schedule (AP outages, link degradation, server throttling
//! — see `plan_with_unrecovered_tail` for why device churn is left to
//! F16) under four recovery postures of escalating capability: no
//! recovery at all, deadline-aware retries with exit-degradation,
//! retries plus circuit breakers, and the full ladder (hedged re-offload
//! and shedding on open breakers). Because the fault plan, simulation
//! seeds, and deployed decisions are shared across rows, every difference
//! in the table is attributable to the recovery policy alone. The table
//! reports requests lost (stranded or stalled), SLO misses during active
//! faults, degraded completions and their accuracy cost, shed requests,
//! and retry timeouts fired.

use crate::harness::DEFAULT_SEEDS;
use crate::table::{ms, pct, Table};
use rayon::prelude::*;
use scalpel_core::baselines::{solve_with, Method};
use scalpel_core::compiler::CompileOptions;
use scalpel_core::config::ScenarioConfig;
use scalpel_core::diversity::{self, DiversityConfig};
use scalpel_core::evaluator::{Assignment, Evaluator};
use scalpel_core::optimizer::OptimizerConfig;
use scalpel_core::runner::{self, MethodOutcome};
use scalpel_sim::{
    BreakerConfig, CorrelatedProfile, DomainKind, FailureDomain, FaultClass, FaultPlan,
    FaultProfile, RecoveryConfig, SimConfig,
};

use super::f16_faults::{scenario, FAULT_SEED};

/// The F16 fault generator with two deliberate twists.
///
/// First, the schedule covers only *path* faults — AP outages, link
/// degradation, and server throttling. Device churn (covered by F16) is
/// excluded because work resident on a vanishing device is unrecoverable
/// by construction: no retry or breaker can reach it, and a degradation
/// ladder makes things strictly worse by holding extra local-finish work
/// on exactly the hardware that disappears. F17 isolates the faults a
/// recovery policy can actually mask.
///
/// Second, recovery events that would land after the run ends are
/// dropped. F16's generator always pairs every outage with its recovery,
/// so even a late outage heals during the post-horizon drain and nothing
/// ever stays broken; here an outage that outlasts the run stays down —
/// the exact situation the degradation ladder exists for. Down events
/// are untouched (the generator never emits them past the horizon).
pub(crate) fn plan_with_unrecovered_tail(rate_hz: f64, quick: bool) -> FaultPlan {
    let scfg = scenario(quick);
    if rate_hz <= 0.0 {
        return FaultPlan::none();
    }
    let mut plan = scfg.fault_plan(&FaultProfile {
        seed: FAULT_SEED,
        rate_hz,
        mean_outage_s: 2.0,
        start_s: scfg.sim.warmup_s,
        classes: vec![
            FaultClass::ApOutage,
            FaultClass::LinkDegradation,
            FaultClass::ComputeThrottle,
        ],
    });
    let horizon = scfg.sim.horizon_s;
    plan.events.retain(|e| e.at_s < horizon);
    plan
}

/// The recovery postures compared, weakest first.
pub(crate) fn presets() -> Vec<(&'static str, RecoveryConfig)> {
    vec![
        ("no-recovery", RecoveryConfig::none()),
        ("retry-only", RecoveryConfig::retry_only()),
        ("retry+breaker", RecoveryConfig::retry_breaker()),
        ("full ladder", RecoveryConfig::full()),
    ]
}

/// One outcome per (intensity, posture), with the fault plan shared
/// across postures at each intensity.
pub(crate) fn outcomes(quick: bool) -> Vec<(f64, Vec<(&'static str, MethodOutcome)>)> {
    let scfg = scenario(quick);
    let opt = OptimizerConfig {
        rounds: 3,
        gibbs_iters: if quick { 30 } else { 100 },
        ..Default::default()
    };
    let seeds: &[u64] = if quick { &[101] } else { DEFAULT_SEEDS };
    let intensities: &[f64] = if quick {
        &[1.0, 2.0, 3.6]
    } else {
        &[0.6, 1.3, 2.4, 3.6]
    };
    let problem = scfg.build();
    let ev = Evaluator::new(&problem, None);
    let sol = solve_with(&ev, Method::Joint, &opt);
    intensities
        .iter()
        .map(|&rate| {
            let plan = plan_with_unrecovered_tail(rate, quick);
            let rows: Vec<(&'static str, MethodOutcome)> = presets()
                .par_iter()
                .map(|(name, recovery)| {
                    let sim = SimConfig {
                        faults: plan.clone(),
                        recovery: recovery.clone(),
                        ..scfg.sim.clone()
                    };
                    let opts = CompileOptions::default();
                    let reports =
                        runner::run_solution_seeds(&problem, &ev, &sol, sim, seeds, &opts);
                    (*name, runner::aggregate(Method::Joint, &sol, &reports))
                })
                .collect();
            (rate, rows)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Correlated blast radius: one failure domain takes the whole GPU rack
// down as a unit; diversity-bounded placement caps how much of the fleet
// is stranded, and ranked fallback menus route the survivors' hedges
// *out* of the dying rack instead of deeper into it.
// ---------------------------------------------------------------------

/// Concentration cap enforced by the diversity-bounded solve: at most
/// this fraction of streams may land inside any one failure domain.
pub(crate) const DOMAIN_CAP: f64 = 1.0 / 3.0;

/// The standard mix's GPU rack as one failure domain: servers `1..n`
/// share power and cooling, the Xeon at index 0 sits outside it.
pub(crate) fn gpu_rack(n_servers: usize) -> FailureDomain {
    FailureDomain {
        name: "gpu-rack".into(),
        kind: DomainKind::ServerRack,
        aps: Vec::new(),
        servers: (1..n_servers).collect(),
    }
}

/// Seeded correlated schedule: the rack dies as one unit during warmup
/// and stays dark past the horizon. Because the kill lands before any
/// *measured* request is in flight and never heals, every measured loss
/// is attributable to routing — which menu the hedging walk consulted —
/// rather than to luck about what happened to be on the rack at the kill.
pub(crate) fn correlated_plan(scfg: &ScenarioConfig, n_servers: usize) -> FaultPlan {
    CorrelatedProfile {
        seed: FAULT_SEED,
        rate_hz: 8.0,
        mean_outage_s: 50.0 * scfg.sim.horizon_s,
        start_s: 0.0,
    }
    .plan(vec![gpu_rack(n_servers)], scfg.sim.horizon_s)
}

/// Fraction of streams whose plan offloads onto a rack member — the
/// blast radius a rack kill would strand if no recovery existed.
pub(crate) fn rack_fraction(ev: &Evaluator, asg: &Assignment, rack: &FailureDomain) -> f64 {
    let on_rack = (0..ev.num_streams())
        .filter(|&k| {
            !ev.menu(k)[asg.plan_idx[k]].is_device_only()
                && rack.servers.contains(&asg.placement[k])
        })
        .count();
    on_rack as f64 / ev.num_streams().max(1) as f64
}

/// One correlated-outage comparison: blast radius of the unconstrained
/// vs diversity-bounded Joint solve, and the bounded solution's measured
/// outcome under flat vs ranked fallback menus on the identical schedule.
pub(crate) struct CorrelatedRows {
    /// Rack concentration of the unconstrained Joint solve.
    pub unbounded_frac: f64,
    /// Rack concentration of the diversity-bounded solve.
    pub bounded_frac: f64,
    /// `("flat menus" | "ranked menus", outcome)` for the bounded solve.
    pub rows: Vec<(&'static str, MethodOutcome)>,
}

/// Hedging posture for the menu comparison: retries, breakers, hedged
/// re-offload and shedding, but no degradation ladder — a request either
/// reaches a live server through its fallback menu, or it is shed when
/// every path is known-dead, or it is lost at a dark server's door. The
/// menu *order* is the entire experiment. The breakers are tuned for a
/// correlated outage rather than transient flaps: the health signal
/// feeding them counts deadline misses as failures, so they trip only on
/// an all-failure window (a dark rack produces nothing else; a merely
/// slow server never does), and the cooldown outlasts the run so no
/// half-open probes leak requests back into a rack that never heals.
pub(crate) fn hedge_only() -> RecoveryConfig {
    RecoveryConfig {
        degrade: false,
        breakers: Some(BreakerConfig {
            window: 4,
            min_samples: 4,
            failure_threshold: 1.0,
            open_cooldown_s: 1e9,
            miss_is_failure: false,
            ..BreakerConfig::default()
        }),
        ..RecoveryConfig::full()
    }
}

/// Solve, bound, and measure the correlated-outage comparison.
///
/// The kill lands early in warmup, so the primaries' breakers trip just
/// as measurement begins; the measured window then opens with the flat
/// walk still discovering — the hard way — that the rest of the rack is
/// equally dark, while the ranked walk's first hedge already sits
/// outside the blast radius.
pub(crate) fn correlated_rows(quick: bool) -> CorrelatedRows {
    let scfg = scenario(quick);
    let opt = OptimizerConfig {
        rounds: 3,
        gibbs_iters: if quick { 30 } else { 100 },
        ..Default::default()
    };
    let seeds: &[u64] = if quick { &[101] } else { DEFAULT_SEEDS };
    let problem = scfg.build();
    let n_servers = problem.cluster.servers.len();
    let rack = gpu_rack(n_servers);
    let server_domain = diversity::server_domain_from(std::slice::from_ref(&rack), n_servers);
    let ev = Evaluator::new(&problem, None);
    let unbounded = solve_with(&ev, Method::Joint, &opt);
    let bounded_opt = OptimizerConfig {
        diversity: Some(DiversityConfig {
            max_server_frac: 1.0,
            max_ap_frac: 1.0,
            max_domain_frac: DOMAIN_CAP,
            server_domain: server_domain.clone(),
            ..DiversityConfig::default()
        }),
        ..opt
    };
    let bounded = solve_with(&ev, Method::Joint, &bounded_opt);
    let plan = correlated_plan(&scfg, n_servers);
    let ranked_opts = CompileOptions {
        ranked_fallbacks: true,
        server_domain: Some(server_domain),
        // Decisive blast-radius penalty: a fallback inside the primary's
        // rack must sink below even the slowest out-of-rack server, no
        // matter how fast its silicon looks in the catalog.
        same_domain_penalty_s: 1e3,
        ..CompileOptions::default()
    };
    let recovery = hedge_only();
    let rows = vec![
        ("flat menus", &CompileOptions::default()),
        ("ranked menus", &ranked_opts),
    ]
    .into_iter()
    .map(|(name, opts)| {
        let sim = SimConfig {
            faults: plan.clone(),
            recovery: recovery.clone(),
            ..scfg.sim.clone()
        };
        let reports = runner::run_solution_seeds(&problem, &ev, &bounded, sim, seeds, opts);
        (name, runner::aggregate(Method::Joint, &bounded, &reports))
    })
    .collect();
    CorrelatedRows {
        unbounded_frac: rack_fraction(&ev, &unbounded.assignment, &rack),
        bounded_frac: rack_fraction(&ev, &bounded.assignment, &rack),
        rows,
    }
}

/// Print the correlated blast-radius table.
fn run_correlated(quick: bool) {
    println!("\n== F17b [extension]: correlated rack outage (blast-radius control) ==");
    let c = correlated_rows(quick);
    println!(
        "rack concentration: unconstrained {} vs diversity-bounded {} (cap {})",
        pct(c.unbounded_frac),
        pct(c.bounded_frac),
        pct(DOMAIN_CAP),
    );
    let mut t = Table::new(vec![
        "fallback menus",
        "mean(ms)",
        "deadline",
        "lost",
        "fault misses",
        "shed",
        "timeouts",
    ]);
    for (name, o) in &c.rows {
        t.row(vec![
            (*name).into(),
            ms(o.latency.mean),
            pct(o.deadline_ratio),
            o.fault_lost.to_string(),
            o.fault_misses.to_string(),
            o.shed.to_string(),
            o.retry_timeouts.to_string(),
        ]);
    }
    t.print();
}

/// Print the recovery-posture table.
pub fn run(quick: bool) {
    println!("\n== F17 [extension]: closed-loop recovery (posture vs fault intensity) ==");
    let mut t = Table::new(vec![
        "faults (/s)",
        "recovery",
        "mean(ms)",
        "deadline",
        "lost",
        "fault misses",
        "degraded",
        "shed",
        "timeouts",
        "acc delta",
    ]);
    for (rate, rows) in outcomes(quick) {
        for (name, o) in &rows {
            t.row(vec![
                format!("{rate:.1}"),
                (*name).into(),
                ms(o.latency.mean),
                pct(o.deadline_ratio),
                o.fault_lost.to_string(),
                o.fault_misses.to_string(),
                o.degraded.to_string(),
                o.shed.to_string(),
                o.retry_timeouts.to_string(),
                // Mean accuracy movement per degraded completion versus
                // its nominal path; positive = degrading *gained*
                // accuracy (a full-precision local finish can beat a
                // quantized offload plan). `+ 0.0` folds negative zero.
                format!("{:+.4}", -o.accuracy_cost + 0.0),
            ]);
        }
    }
    t.print();
    run_correlated(quick);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f17_quick_runs() {
        run(true);
    }

    /// The correlated schedule is exactly the shape the section's causal
    /// claim needs: one rack-wide kill landing inside warmup (before any
    /// measured request is in flight) that never heals within the run.
    #[test]
    fn f17_correlated_schedule_is_one_unrecovered_warmup_kill() {
        let scfg = scenario(true);
        let plan = correlated_plan(&scfg, 4);
        assert!(scalpel_sim::validate_fault_plan(&plan, &scfg.build().cluster).is_ok());
        let downs: Vec<_> = plan
            .events
            .iter()
            .filter(|e| matches!(e.kind, scalpel_sim::FaultKind::DomainDown { .. }))
            .collect();
        assert_eq!(downs.len(), 1, "exactly one rack outage");
        assert!(
            downs[0].at_s < scfg.sim.warmup_s,
            "kill at {:.3}s must land inside warmup ({:.1}s)",
            downs[0].at_s,
            scfg.sim.warmup_s
        );
        let up = plan
            .events
            .iter()
            .find(|e| matches!(e.kind, scalpel_sim::FaultKind::DomainUp { .. }))
            .expect("paired recovery");
        assert!(
            up.at_s > scfg.sim.horizon_s,
            "recovery at {:.1}s must outlast the horizon ({:.1}s)",
            up.at_s,
            scfg.sim.horizon_s
        );
    }

    /// Tentpole acceptance, part 1: the diversity-bounded plan's blast
    /// radius under the rack kill stays within the concentration cap,
    /// while the unconstrained Joint solve exceeds it.
    #[test]
    fn f17_diversity_bound_caps_the_blast_radius() {
        let c = correlated_rows(true);
        assert!(
            c.unbounded_frac > DOMAIN_CAP,
            "unconstrained Joint must concentrate: {:.2} !> {DOMAIN_CAP}",
            c.unbounded_frac
        );
        assert!(
            c.bounded_frac <= DOMAIN_CAP,
            "bounded plan violates the cap: {:.2} > {DOMAIN_CAP}",
            c.bounded_frac
        );
    }

    /// Tentpole acceptance, part 2: on the identical correlated schedule
    /// and identical bounded placement, ranked fallback menus (rank-1
    /// outside the dying rack) lose zero requests where the flat
    /// capacity-ordered list loses some.
    #[test]
    fn f17_ranked_menus_survive_where_flat_menus_lose() {
        let c = correlated_rows(true);
        let find = |name: &str| {
            &c.rows
                .iter()
                .find(|(n, _)| *n == name)
                .expect("menu row present")
                .1
        };
        let flat = find("flat menus");
        let ranked = find("ranked menus");
        assert!(
            flat.fault_lost > 0,
            "flat menus must lose requests into the dark rack"
        );
        assert_eq!(
            ranked.fault_lost, 0,
            "ranked menus must lose nothing: rank-1 sits outside the rack"
        );
        assert!(ranked.completed >= flat.completed);
    }

    /// Identical solves + schedule + menus reproduce bit-for-bit.
    #[test]
    fn f17_correlated_rows_are_deterministic() {
        let a = correlated_rows(true);
        let b = correlated_rows(true);
        assert_eq!(a.unbounded_frac, b.unbounded_frac);
        assert_eq!(a.bounded_frac, b.bounded_frac);
        for ((na, oa), (nb, ob)) in a.rows.iter().zip(&b.rows) {
            assert_eq!(na, nb);
            assert_eq!(oa.latency.mean, ob.latency.mean);
            assert_eq!(oa.fault_lost, ob.fault_lost);
            assert_eq!(oa.completed, ob.completed);
        }
    }

    /// The acceptance criterion of the recovery subsystem: at every fault
    /// intensity, the full ladder strands strictly fewer requests and
    /// misses no more SLOs during faults than running with no recovery.
    #[test]
    fn f17_full_ladder_dominates_no_recovery() {
        for (rate, rows) in outcomes(true) {
            let find = |name: &str| {
                &rows
                    .iter()
                    .find(|(n, _)| *n == name)
                    .expect("preset present")
                    .1
            };
            let none = find("no-recovery");
            let full = find("full ladder");
            assert!(
                none.fault_lost > 0,
                "rate {rate}: schedule too mild to strand anything"
            );
            assert!(
                full.fault_lost < none.fault_lost,
                "rate {rate}: full ladder lost {} vs no-recovery {}",
                full.fault_lost,
                none.fault_lost
            );
            assert!(
                full.fault_misses <= none.fault_misses,
                "rate {rate}: full ladder missed {} vs no-recovery {}",
                full.fault_misses,
                none.fault_misses
            );
            // The ladder's price is visible and bounded: degraded
            // completions are counted and their accuracy delta reported.
            assert!(full.degraded > 0 || full.shed > 0 || full.retry_timeouts > 0);
            assert!(full.accuracy_cost.is_finite());
        }
    }

    /// Identical plan + seeds + posture reproduce bit-for-bit.
    #[test]
    fn f17_outcomes_are_deterministic() {
        let a = outcomes(true);
        let b = outcomes(true);
        for ((ra, rows_a), (rb, rows_b)) in a.iter().zip(&b) {
            assert_eq!(ra, rb);
            for ((na, oa), (nb, ob)) in rows_a.iter().zip(rows_b) {
                assert_eq!(na, nb);
                assert_eq!(oa.latency.mean, ob.latency.mean);
                assert_eq!(oa.fault_lost, ob.fault_lost);
                assert_eq!(oa.degraded, ob.degraded);
                assert_eq!(oa.accuracy_cost, ob.accuracy_cost);
            }
        }
    }
}
