//! Online re-optimization for dynamic edges.
//!
//! Edge conditions move at runtime — links degrade, devices join, servers
//! drain. The controller keeps the current solution and, when the
//! environment changes, *warm-starts* the joint search from the previous
//! decisions instead of solving from scratch: previous plans are remapped
//! onto the rebuilt menus by structural signature, placement is kept, and
//! coordinate descent runs from there (usually converging in one sweep).

use crate::evaluator::{Assignment, EvalResult, Evaluator, PlanPricing};
use crate::optimizer::{self, Budget, OptimizerConfig, Solution, SolveOutcome};
use crate::problem::JointProblem;
use crate::service::FleetState;
use scalpel_sim::HealthSnapshot;
use scalpel_surgery::SurgeryPlan;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// How one adaptation went.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptReport {
    /// Objective of the stale solution re-priced under the new conditions.
    pub stale_objective: f64,
    /// Objective after re-optimization.
    pub adapted_objective: f64,
    /// Evaluations spent adapting.
    pub evaluations: usize,
    /// Wall-clock milliseconds of the re-solve.
    pub resolve_ms: f64,
    /// Whether the re-solve ran to completion. `false` means the budget
    /// expired and the adopted solution is the best incumbent found —
    /// at worst the remapped previous plan, never anything invalid.
    pub converged: bool,
    /// Streams whose plan changed.
    pub plans_changed: usize,
    /// Streams whose server changed.
    pub placements_changed: usize,
    /// Streams whose previous plan had no structural match in the rebuilt
    /// menu and warm-started from the [`closest_idx`] fallback instead.
    /// Non-zero values mean the warm start was approximate — worth
    /// surfacing as a warning, not silently absorbing.
    pub remap_misses: usize,
}

/// Structural signature used to match plans across rebuilt menus.
fn signature(p: &SurgeryPlan) -> (usize, usize, u8, bool) {
    (
        p.cut,
        p.exits.len(),
        p.prune.flops_scale().to_bits() as u8,
        p.quantize_tx,
    )
}

/// Deterministic nearest-neighbour in plan space: the menu entry whose cut
/// is closest to `old`'s, with ties broken toward matching quantization,
/// then matching prune level, then the lowest index. Never arbitrary — two
/// runs over the same menu always pick the same entry.
pub fn closest_idx(menu: &[PlanPricing], old: &SurgeryPlan) -> usize {
    menu.iter()
        .enumerate()
        .min_by_key(|(i, p)| {
            (
                (p.plan.cut as isize - old.cut as isize).unsigned_abs(),
                (p.plan.quantize_tx != old.quantize_tx) as u8,
                (p.plan.prune != old.prune) as u8,
                *i,
            )
        })
        .map(|(i, _)| i)
        // Validation guarantees non-empty menus; tolerate a bypassed
        // ingest by pointing at index 0 instead of aborting a re-plan.
        .unwrap_or(0)
}

/// Remap an assignment onto a rebuilt evaluator: for each stream, find the
/// menu entry with the old plan's signature (falling back to the closest
/// entry via [`closest_idx`]), and clamp placements to the new server
/// count. Streams with no prior decision warm-start from the entry closest
/// to full offload — the least-committed plan — rather than whatever
/// happens to sit at index 0.
pub fn remap_assignment(old_ev: &Evaluator, new_ev: &Evaluator, asg: &Assignment) -> Assignment {
    remap_assignment_counted(old_ev, new_ev, asg).0
}

/// [`remap_assignment`] plus the number of streams that fell through to
/// the [`closest_idx`] fallback (no exact or signature match in the new
/// menu). The count feeds [`AdaptReport::remap_misses`] and the service
/// status report so approximate warm starts are visible.
pub fn remap_assignment_counted(
    old_ev: &Evaluator,
    new_ev: &Evaluator,
    asg: &Assignment,
) -> (Assignment, usize) {
    let n = new_ev.num_streams().min(old_ev.num_streams());
    let mut plan_idx = Vec::with_capacity(new_ev.num_streams());
    let mut placement = Vec::with_capacity(new_ev.num_streams());
    let mut misses = 0usize;
    for k in 0..new_ev.num_streams() {
        if k < n {
            let old_plan = &old_ev.menu(k)[asg.plan_idx[k]].plan;
            let sig = signature(old_plan);
            let menu = new_ev.menu(k);
            let idx = menu
                .iter()
                .position(|p| p.plan == *old_plan)
                .or_else(|| menu.iter().position(|p| signature(&p.plan) == sig))
                .unwrap_or_else(|| {
                    misses += 1;
                    closest_idx(menu, old_plan)
                });
            plan_idx.push(idx);
            placement.push(asg.placement[k].min(new_ev.num_servers() - 1));
        } else {
            plan_idx.push(closest_idx(new_ev.menu(k), &SurgeryPlan::full_offload()));
            placement.push(k % new_ev.num_servers());
        }
    }
    (
        Assignment {
            plan_idx,
            placement,
        },
        misses,
    )
}

/// A target must be breaker-open in at least this many epochs before
/// [`degraded_problem`] derates it (filters single-epoch blips).
const SUSTAIN_EPOCHS: usize = 2;
/// Derated capacities never drop below this fraction of nominal, so the
/// rebuilt problem always stays feasible to price.
const DERATE_FLOOR: f64 = 0.1;

/// Telemetry-driven fault detection: the closed-loop replacement for an
/// oracle that reads the injected fault schedule. The simulator emits
/// [`HealthSnapshot`]s (per-epoch completions, misses, timeouts, and
/// circuit-breaker states); a server or AP that has been breaker-open for
/// a sustained stretch is derated in proportion to the fraction of epochs
/// it spent open, through the same [`FleetState`] scaling the planning
/// service applies to churn. Misses and timeouts alone derate nothing:
/// they name no target to blame. The result is what the
/// [`OnlineController`] warm-starts against, or `None` when the telemetry
/// shows nothing sustained enough to act on — no knowledge of the
/// injected fault schedule is used.
pub fn degraded_problem(base: &JointProblem, health: &[HealthSnapshot]) -> Option<JointProblem> {
    // Target `i`'s capacity factor: 1 unless it was open in at least
    // SUSTAIN_EPOCHS epochs, else the fraction it stayed closed, floored.
    let factor = |open: fn(&HealthSnapshot) -> &[bool], i: usize| {
        let n = health
            .iter()
            .filter(|h| open(h).get(i) == Some(&true))
            .count();
        if n < SUSTAIN_EPOCHS {
            1.0
        } else {
            (1.0 - n as f64 / health.len() as f64).max(DERATE_FLOOR)
        }
    };
    let mut fleet = FleetState::nominal(base);
    for (ap, f) in fleet.link_factor.iter_mut().enumerate() {
        *f = factor(|h| h.ap_open.as_slice(), ap);
    }
    for (srv, f) in fleet.cap_factor.iter_mut().enumerate() {
        *f = factor(|h| h.server_open.as_slice(), srv);
    }
    let triggered = fleet
        .link_factor
        .iter()
        .chain(&fleet.cap_factor)
        .any(|&f| f < 1.0 - 1e-12);
    triggered.then(|| fleet.effective_problem(base))
}

/// The online controller: owns the current solution for one environment.
pub struct OnlineController {
    solution: Solution,
    cfg: OptimizerConfig,
}

impl OnlineController {
    /// Solve the initial environment from scratch.
    pub fn bootstrap(ev: &Evaluator, cfg: OptimizerConfig) -> Self {
        let solution = optimizer::solve(ev, &cfg);
        Self { solution, cfg }
    }

    /// Rebuild a controller around an externally supplied assignment —
    /// the restore path of a checkpointed service. The assignment is
    /// re-priced on `ev`; no search runs, so this is exactly as cheap and
    /// exactly as deterministic as one evaluation.
    pub fn resume(ev: &Evaluator, cfg: OptimizerConfig, assignment: Assignment) -> Self {
        let result = ev.evaluate(&assignment, cfg.policies);
        Self {
            solution: Solution {
                assignment,
                result,
                trace: Default::default(),
            },
            cfg,
        }
    }

    /// Current solution.
    pub fn solution(&self) -> &Solution {
        &self.solution
    }

    /// React to changed conditions: re-price the stale decisions on the
    /// new evaluator, warm-start descent from them, and adopt the result.
    pub fn adapt(&mut self, old_ev: &Evaluator, new_ev: &Evaluator) -> AdaptReport {
        let proposal = self.propose_with_budget(old_ev, new_ev, Budget::UNLIMITED);
        self.solution = proposal.solution;
        proposal.report
    }

    /// Compute a warm-started replan *without adopting it*: the candidate
    /// solution plus its report. This is the propose half of the
    /// propose/adopt split used by the planning service — a policy layer
    /// (e.g. [`crate::service::SwitchGovernor`]) can veto individual moves
    /// in the candidate before [`adopt`](Self::adopt) commits anything.
    /// When the budget expires mid-descent the candidate is the best
    /// incumbent found so far — never worse than the remapped previous
    /// plan — so replanning under churn degrades gracefully.
    pub fn propose_with_budget(
        &self,
        old_ev: &Evaluator,
        new_ev: &Evaluator,
        budget: Budget,
    ) -> Proposal {
        let (warm, remap_misses) =
            remap_assignment_counted(old_ev, new_ev, &self.solution.assignment);
        let stale = new_ev.evaluate(&warm, self.cfg.policies);
        let t0 = Instant::now();
        let outcome = optimizer::descent_from_with_budget(new_ev, &self.cfg, warm.clone(), budget);
        proposal(warm, stale, outcome, t0, remap_misses)
    }

    /// Warm-started *sharded* replan, not adopted: the fleet-scale
    /// counterpart of [`propose_with_budget`](Self::propose_with_budget).
    /// The previous assignment is remapped onto the new evaluator and
    /// handed to [`crate::shard::solve_sharded_with`], which polishes
    /// the warm point with the sharded path's descent rounds under the
    /// whole budget. The warm point itself joins the incumbent race, so
    /// the candidate is never worse than the re-priced stale plan. Fails
    /// only if `shard_cfg` is inconsistent with `new_problem`.
    pub fn propose_sharded(
        &self,
        old_ev: &Evaluator,
        new_problem: &JointProblem,
        new_ev: &Evaluator,
        shard_cfg: &crate::shard::ShardConfig,
        budget: Budget,
    ) -> Result<Proposal, crate::validate::ProblemError> {
        let (warm, warm_misses) =
            remap_assignment_counted(old_ev, new_ev, &self.solution.assignment);
        let stale = new_ev.evaluate(&warm, self.cfg.policies);
        let t0 = Instant::now();
        let out =
            crate::shard::solve_sharded_with(new_problem, new_ev, shard_cfg, budget, Some(&warm))?;
        let misses = warm_misses + out.remap_misses;
        Ok(proposal(warm, stale, out.outcome, t0, misses))
    }

    /// Adopt an externally chosen assignment (typically a governed blend
    /// of the incumbent and a [`Proposal`]): re-price it on `new_ev` and
    /// install it as the current solution.
    pub fn adopt(&mut self, new_ev: &Evaluator, assignment: Assignment) -> &Solution {
        let result = new_ev.evaluate(&assignment, self.cfg.policies);
        self.solution = Solution {
            assignment,
            result,
            trace: Default::default(),
        };
        &self.solution
    }
}

/// Package a warm-started solve that began at `t0` as a [`Proposal`],
/// counting the streams whose plan or server moved off the warm point.
fn proposal(
    warm: Assignment,
    stale: EvalResult,
    outcome: SolveOutcome,
    t0: Instant,
    remap_misses: usize,
) -> Proposal {
    let resolve_ms = t0.elapsed().as_secs_f64() * 1e3;
    let adapted = outcome.solution;
    let changed = |a: &[usize], b: &[usize]| a.iter().zip(b).filter(|(x, y)| x != y).count();
    let report = AdaptReport {
        stale_objective: stale.objective,
        adapted_objective: adapted.result.objective,
        evaluations: adapted.trace.evaluations,
        resolve_ms,
        converged: outcome.converged,
        plans_changed: changed(&warm.plan_idx, &adapted.assignment.plan_idx),
        placements_changed: changed(&warm.placement, &adapted.assignment.placement),
        remap_misses,
    };
    Proposal {
        solution: adapted,
        report,
        warm,
        stale,
    }
}

/// The propose half of the controller's propose/adopt split: a candidate
/// solution computed by a warm-started solve, not yet adopted.
#[derive(Debug, Clone)]
pub struct Proposal {
    /// The candidate solution (assignment + pricing + trace).
    pub solution: Solution,
    /// How the replan went, including [`AdaptReport::remap_misses`].
    pub report: AdaptReport,
    /// The incumbent remapped onto the new evaluator — the do-nothing
    /// baseline a governor compares the candidate against.
    pub warm: Assignment,
    /// The warm point priced under the new conditions (per-stream
    /// latencies drive switch-cost-aware acceptance).
    pub stale: EvalResult,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use scalpel_sim::{FaultKind, FaultPlan};

    /// Steady-state view of a faulted environment: the problem with every
    /// sustained degradation in `plan` applied at its *worst* level — each
    /// AP's bandwidth scaled by its deepest `LinkDegrade`, each server's
    /// capacity by its deepest `ServerThrottle`. Transient churn (device and
    /// AP up/down cycles) is not representable in the static problem and is
    /// left to the simulator. The tests re-solve against it as the oracle
    /// the telemetry-driven [`degraded_problem`] is compared with.
    fn faulted_problem(problem: &JointProblem, plan: &FaultPlan) -> JointProblem {
        let mut degraded = problem.clone();
        for ev in &plan.events {
            match ev.kind {
                FaultKind::LinkDegrade { ap, factor } => {
                    if let Some(spec) = degraded.cluster.aps.get_mut(ap) {
                        let nominal = problem.cluster.aps[ap].bandwidth_hz;
                        spec.bandwidth_hz = spec.bandwidth_hz.min(nominal * factor);
                    }
                }
                FaultKind::ServerThrottle { server, factor } => {
                    if let Some(spec) = degraded.cluster.servers.get_mut(server) {
                        let nominal = problem.cluster.servers[server].proc.flops_per_sec;
                        spec.proc.flops_per_sec = spec.proc.flops_per_sec.min(nominal * factor);
                    }
                }
                _ => {}
            }
        }
        degraded
    }

    fn scenario(bandwidth_mhz: f64) -> ScenarioConfig {
        ScenarioConfig {
            num_aps: 1,
            devices_per_ap: 4,
            arrival_rate_hz: 4.0,
            ap_bandwidth_hz: bandwidth_mhz * 1e6,
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn adaptation_never_worse_than_stale() {
        let old_ev = Evaluator::new(&scenario(20.0).build(), None);
        let new_ev = Evaluator::new(&scenario(4.0).build(), None); // link collapse
        let mut ctl = OnlineController::bootstrap(&old_ev, OptimizerConfig::default());
        let report = ctl.adapt(&old_ev, &new_ev);
        assert!(
            report.adapted_objective <= report.stale_objective + 1e-12,
            "adapted {} vs stale {}",
            report.adapted_objective,
            report.stale_objective
        );
    }

    #[test]
    fn bandwidth_collapse_forces_plan_changes() {
        let old_ev = Evaluator::new(&scenario(20.0).build(), None);
        let new_ev = Evaluator::new(&scenario(2.0).build(), None);
        let mut ctl = OnlineController::bootstrap(&old_ev, OptimizerConfig::default());
        let report = ctl.adapt(&old_ev, &new_ev);
        // A 10x bandwidth drop must move at least one stream's plan (more
        // on-device compute / quantized transmission).
        assert!(
            report.plans_changed > 0,
            "no plan reacted to a 10x bandwidth collapse"
        );
    }

    #[test]
    fn warm_start_is_cheaper_than_cold_solve() {
        let old_ev = Evaluator::new(&scenario(20.0).build(), None);
        let new_ev = Evaluator::new(&scenario(10.0).build(), None);
        let mut ctl = OnlineController::bootstrap(&old_ev, OptimizerConfig::default());
        let report = ctl.adapt(&old_ev, &new_ev);
        let cold = optimizer::solve(&new_ev, &OptimizerConfig::default());
        assert!(
            report.evaluations < cold.trace.evaluations,
            "warm {} vs cold {} evaluations",
            report.evaluations,
            cold.trace.evaluations
        );
        // And quality stays comparable.
        assert!(report.adapted_objective <= cold.result.objective * 1.15 + 1e-9);
    }

    #[test]
    fn faulted_problem_applies_worst_sustained_degradation() {
        use scalpel_sim::FaultEvent;
        let problem = scenario(20.0).build();
        let plan = FaultPlan {
            events: vec![
                FaultEvent {
                    at_s: 3.0,
                    kind: FaultKind::LinkDegrade { ap: 0, factor: 0.5 },
                },
                FaultEvent {
                    at_s: 6.0,
                    kind: FaultKind::LinkDegrade {
                        ap: 0,
                        factor: 0.25,
                    },
                },
                FaultEvent {
                    at_s: 9.0,
                    kind: FaultKind::ServerThrottle {
                        server: 1,
                        factor: 0.4,
                    },
                },
                // Churn does not alter the static problem.
                FaultEvent {
                    at_s: 10.0,
                    kind: FaultKind::DeviceDown { device: 0 },
                },
            ],
            domains: Vec::new(),
        };
        let degraded = faulted_problem(&problem, &plan);
        let b0 = problem.cluster.aps[0].bandwidth_hz;
        assert!((degraded.cluster.aps[0].bandwidth_hz - b0 * 0.25).abs() < 1e-6);
        let c1 = problem.cluster.servers[1].proc.flops_per_sec;
        assert!((degraded.cluster.servers[1].proc.flops_per_sec - c1 * 0.4).abs() < 1.0);
        assert_eq!(
            degraded.cluster.devices.len(),
            problem.cluster.devices.len()
        );
        assert!(degraded.validate().is_ok());
    }

    #[test]
    fn controller_adapts_to_faulted_environment() {
        use scalpel_sim::FaultEvent;
        let problem = scenario(20.0).build();
        let plan = FaultPlan {
            events: vec![FaultEvent {
                at_s: 2.0,
                kind: FaultKind::LinkDegrade { ap: 0, factor: 0.1 },
            }],
            domains: Vec::new(),
        };
        let old_ev = Evaluator::new(&problem, None);
        let new_ev = Evaluator::new(&faulted_problem(&problem, &plan), None);
        let mut ctl = OnlineController::bootstrap(&old_ev, OptimizerConfig::default());
        let report = ctl.adapt(&old_ev, &new_ev);
        assert!(report.adapted_objective <= report.stale_objective + 1e-12);
        // A 10x sustained link collapse must move at least one decision.
        assert!(report.plans_changed + report.placements_changed > 0);
    }

    #[test]
    fn closest_idx_is_deterministic_and_structure_aware() {
        let ev = Evaluator::new(&scenario(20.0).build(), None);
        let menu = ev.menu(0);
        // Exact plans map to an entry with identical structure.
        for p in menu {
            let got = &menu[closest_idx(menu, &p.plan)].plan;
            assert_eq!(got.cut, p.plan.cut);
            assert_eq!(got.quantize_tx, p.plan.quantize_tx);
            assert_eq!(got.prune, p.plan.prune);
        }
        // An off-menu cut lands on the nearest one, preferring matching
        // quantization; repeated calls agree bit-for-bit.
        let mut probe = menu[menu.len() - 1].plan.clone();
        probe.cut += 1000;
        let a = closest_idx(menu, &probe);
        let b = closest_idx(menu, &probe);
        assert_eq!(a, b);
        let max_cut = menu.iter().map(|p| p.plan.cut).max().unwrap();
        assert_eq!(menu[a].plan.cut, max_cut);
    }

    #[test]
    fn new_streams_warm_start_near_full_offload() {
        let small = ScenarioConfig {
            devices_per_ap: 2,
            ..scenario(20.0)
        };
        let old_ev = Evaluator::new(&small.build(), None);
        let new_ev = Evaluator::new(&scenario(20.0).build(), None);
        let asg = Assignment {
            plan_idx: vec![0; old_ev.num_streams()],
            placement: vec![0; old_ev.num_streams()],
        };
        let remapped = remap_assignment(&old_ev, &new_ev, &asg);
        assert_eq!(remapped.plan_idx.len(), new_ev.num_streams());
        for k in old_ev.num_streams()..new_ev.num_streams() {
            let plan = &new_ev.menu(k)[remapped.plan_idx[k]].plan;
            let min_cut = new_ev.menu(k).iter().map(|p| p.plan.cut).min().unwrap();
            assert_eq!(
                plan.cut, min_cut,
                "stream {k} did not start near full offload"
            );
            assert!(!plan.quantize_tx);
        }
    }

    fn snapshot(at_s: f64, server_open: Vec<bool>, ap_open: Vec<bool>) -> HealthSnapshot {
        HealthSnapshot {
            at_s,
            completions: 10,
            slo_misses: 0,
            timeouts: 0,
            degraded: 0,
            shed: 0,
            server_open,
            ap_open,
        }
    }

    #[test]
    fn detector_ignores_healthy_telemetry_and_blips() {
        let problem = scenario(20.0).build();
        // All-healthy window.
        let healthy: Vec<_> = (0..6)
            .map(|i| snapshot(i as f64, vec![false, false], vec![false]))
            .collect();
        assert!(degraded_problem(&problem, &healthy).is_none());
        // A single-epoch breaker blip is below SUSTAIN_EPOCHS.
        let mut blip = healthy.clone();
        blip[2].server_open[1] = true;
        assert!(degraded_problem(&problem, &blip).is_none());
        // And an empty window trivially triggers nothing.
        assert!(degraded_problem(&problem, &[]).is_none());
        // Misses and timeouts alone never derate anything — there is no
        // target to blame.
        let mut noisy: Vec<_> = (0..4).map(|i| snapshot(i as f64, vec![], vec![])).collect();
        noisy[0].slo_misses = 9; // 90 % miss rate
        noisy[1].timeouts = 5;
        assert!(degraded_problem(&problem, &noisy).is_none());
    }

    #[test]
    fn sustained_open_breaker_derates_the_target() {
        let problem = scenario(20.0).build();
        // Server 0 open in half the epochs, AP 0 open in all of them.
        let health: Vec<_> = (0..8)
            .map(|i| snapshot(i as f64, vec![i % 2 == 0, false], vec![true]))
            .collect();
        let degraded = degraded_problem(&problem, &health).expect("triggered");
        // Fully open still floors at DERATE_FLOOR so the problem prices.
        let b0 = problem.cluster.aps[0].bandwidth_hz;
        assert!((degraded.cluster.aps[0].bandwidth_hz - b0 * DERATE_FLOOR).abs() < 1e-3);
        let c0 = problem.cluster.servers[0].proc.flops_per_sec;
        assert!((degraded.cluster.servers[0].proc.flops_per_sec - c0 * 0.5).abs() < 1.0);
        assert_eq!(
            degraded.cluster.servers[1].proc.flops_per_sec,
            problem.cluster.servers[1].proc.flops_per_sec
        );
        assert!(degraded.validate().is_ok());
    }

    #[test]
    fn detector_driven_adaptation_matches_oracle_direction() {
        // The closed loop: telemetry showing a breaker stuck open on AP 0
        // yields a degraded problem whose warm-started re-solve is no
        // worse than re-pricing the stale solution — same contract the
        // oracle-driven path satisfies, without reading the fault plan.
        let problem = scenario(20.0).build();
        let health: Vec<_> = (0..10)
            .map(|i| snapshot(i as f64, vec![false], vec![i >= 2]))
            .collect();
        let degraded = degraded_problem(&problem, &health).expect("sustained");
        let old_ev = Evaluator::new(&problem, None);
        let new_ev = Evaluator::new(&degraded, None);
        let mut ctl = OnlineController::bootstrap(&old_ev, OptimizerConfig::default());
        let report = ctl.adapt(&old_ev, &new_ev);
        assert!(report.adapted_objective <= report.stale_objective + 1e-12);
    }

    #[test]
    fn remap_preserves_signatures_on_identical_menus() {
        let ev = Evaluator::new(&scenario(20.0).build(), None);
        let asg =
            optimizer::initial_assignment(&ev, scalpel_alloc::PlacementStrategy::BestResponse);
        let remapped = remap_assignment(&ev, &ev, &asg);
        assert_eq!(remapped.plan_idx, asg.plan_idx);
        assert_eq!(remapped.placement, asg.placement);
    }
}
