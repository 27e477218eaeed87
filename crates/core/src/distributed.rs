//! Distributed joint optimization by per-stream best response.
//!
//! The centralized optimizer assumes a controller that sees everything.
//! The paper family (LEIME's "distributed offloading mechanism … with
//! close-to-optimal performance guarantee") also wants a *decentralized*
//! mode: each stream's agent repeatedly best-responds over its own
//! `(plan, server)` choice against the currently-announced choices of the
//! others, with the inner allocation re-solved for every probe. Agents
//! move one at a time (an asynchronous round-robin token, the standard
//! better-response scheduling), so the dynamics terminate at a pure Nash
//! equilibrium of the stream game whenever improvements are strict.
//!
//! The guarantee mirrors the placement potential game: each stream's cost
//! is its own normalized latency, moves only ever reduce the mover's cost,
//! and the experiment (`experiments f15`) measures the empirical gap to
//! the centralized solution (typically a few percent).

use crate::eval_context::{DeltaScratch, EvalContext};
use crate::evaluator::{AllocPolicies, Evaluator};
use crate::optimizer::{initial_assignment, SearchTrace, Solution};
use scalpel_alloc::placement::PlacementStrategy;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Maximum best-response rounds of [`solve_distributed`] (each round:
/// every stream once).
const MAX_ROUNDS: usize = 20;
/// Minimum per-stream relative improvement to accept a move, in both
/// [`solve_distributed`] and [`reconcile_placement`].
const IMPROVEMENT_TOL: f64 = 1e-6;

/// Outcome of the distributed dynamics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DistributedOutcome {
    /// The converged solution.
    pub solution: Solution,
    /// Rounds executed before convergence (== `MAX_ROUNDS`, 20, if not
    /// converged).
    pub rounds: usize,
    /// Whether a full round passed with no agent moving.
    pub converged: bool,
    /// Total accepted moves.
    pub moves: usize,
}

/// Run per-stream best-response dynamics from the naive initial point.
pub fn solve_distributed(ev: &Evaluator) -> DistributedOutcome {
    let policies = AllocPolicies::optimal();
    let mut asg = initial_assignment(ev, PlacementStrategy::RoundRobin);
    let mut trace = SearchTrace::default();
    let mut current = ev.evaluate(&asg, policies);
    trace.evaluations += 1;
    trace.objective.push(current.objective);
    let n = ev.num_streams();
    let mut moves = 0usize;
    let mut rounds = 0usize;
    let mut converged = false;
    for _ in 0..MAX_ROUNDS {
        rounds += 1;
        let mut any_move = false;
        for k in 0..n {
            // Agent k probes every (plan, server) option for itself and
            // keeps the one minimizing its OWN normalized latency.
            let my_cost = |r: &crate::evaluator::EvalResult| r.latency_s[k] / ev.deadline(k);
            let mut best = (asg.plan_idx[k], asg.placement[k], my_cost(&current));
            let saved = (asg.plan_idx[k], asg.placement[k]);
            for plan in 0..ev.menu(k).len() {
                for server in 0..ev.num_servers() {
                    if (plan, server) == saved {
                        continue;
                    }
                    asg.plan_idx[k] = plan;
                    asg.placement[k] = server;
                    let r = ev.evaluate(&asg, policies);
                    trace.evaluations += 1;
                    let c = my_cost(&r);
                    if c < best.2 * (1.0 - IMPROVEMENT_TOL) {
                        best = (plan, server, c);
                    }
                }
            }
            asg.plan_idx[k] = best.0;
            asg.placement[k] = best.1;
            if (best.0, best.1) != saved {
                any_move = true;
                moves += 1;
            }
            current = ev.evaluate(&asg, policies);
            trace.evaluations += 1;
            trace.objective.push(current.objective);
        }
        if !any_move {
            converged = true;
            break;
        }
    }
    DistributedOutcome {
        solution: Solution {
            assignment: asg,
            result: current,
            trace,
        },
        rounds,
        converged,
        moves,
    }
}

/// Knobs of the cross-shard reconciliation pass (the budgeted, incremental
/// cousin of [`solve_distributed`]; no solve runs it, `e2ebench` replays
/// it over a partitioned fleet). A move is accepted under the same
/// relative improvement tolerance as [`solve_distributed`] (1e-6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconcileConfig {
    /// Maximum best-response rounds (each round: every stream once).
    pub max_rounds: usize,
}

impl Default for ReconcileConfig {
    fn default() -> Self {
        Self { max_rounds: 4 }
    }
}

/// What a reconciliation pass did.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReconcileReport {
    /// Rounds executed (== `max_rounds` if the dynamics never quiesced).
    pub rounds: usize,
    /// Accepted cross-group moves.
    pub moves: usize,
    /// Own-cost probes issued.
    pub probes: usize,
    /// Whether a full round passed with no stream moving, before any
    /// budget cut. `false` means the pass was stopped by `max_rounds`,
    /// the wall deadline, or the evaluation cap.
    pub converged: bool,
    /// Whether the wall deadline or the evaluation cap truncated the
    /// pass. Stopping at `max_rounds` is the *configured* amount of work
    /// (bounded termination), not a cut.
    pub cut: bool,
}

/// Best-response placement reconciliation over an incremental context.
///
/// The full [`solve_distributed`] dynamics price every `(plan, server)`
/// probe with a from-scratch evaluation — O(n) per probe, hopeless at
/// fleet scale. This pass keeps the plans fixed and lets each offloaded
/// stream best-respond over its *server* only, with three economies:
///
/// 1. probes use [`EvalContext::probe_move_cost`] (group re-solves only,
///    no O(n) objective resum), so a probe costs O(|touched groups|);
/// 2. instead of probing all S servers, each stream probes one candidate
///    per server *group* (shard): the least-utilized member, computed
///    once per round from live utilization tallies — the argmin of a
///    load-balancing game is where a selfish mover would land anyway;
/// 3. moves commit through [`EvalContext::commit_move`], which maintains
///    the exact pooled objective incrementally.
///
/// `groups` are disjoint server-index sets (shard server sets). `allowed`
/// optionally restricts stream→server reachability: `allowed[ap]` is the
/// ascending list of servers AP `ap` may reach (streams never probe
/// outside it). `deadline`/`max_evals` bound the pass; `trace` accrues
/// one evaluation per probe/commit and records committed objectives.
///
/// Termination: movers only ever strictly reduce their own cost in a
/// finite state space priced against a per-round frozen candidate set,
/// and the pass is hard-capped at `max_rounds` rounds regardless.
#[allow(clippy::too_many_arguments)]
pub fn reconcile_placement(
    ctx: &mut EvalContext<'_>,
    groups: &[Vec<usize>],
    allowed: Option<&[Vec<usize>]>,
    cfg: &ReconcileConfig,
    deadline: Option<Instant>,
    max_evals: Option<usize>,
    trace: &mut SearchTrace,
) -> ReconcileReport {
    let ev = ctx.evaluator();
    let n = ev.num_streams();
    let num_servers = ev.num_servers();
    // Live per-server utilization: Σ rate·remain·edge_flops / cap — the
    // same fair-share demand proxy the bandwidth stage uses, cheap to
    // maintain exactly across moves.
    let demand = |k: usize, plan: usize, srv: usize| -> f64 {
        let p = &ev.menus[k][plan];
        ev.rate_hz[k] * p.remain * p.edge_flops / ev.server_caps[srv]
    };
    let mut load = vec![0.0f64; num_servers];
    for k in 0..n {
        if ctx.is_offloaded(k) {
            load[ctx.placement()[k]] += demand(k, ctx.plan_of(k), ctx.placement()[k]);
        }
    }
    let mut scratch = DeltaScratch::default();
    let mut cand: Vec<usize> = Vec::with_capacity(groups.len());
    let mut rounds = 0usize;
    let mut moves = 0usize;
    let mut probes = 0usize;
    let mut quiesced = false;
    let mut cut = false;
    'rounds: for _ in 0..cfg.max_rounds {
        rounds += 1;
        // Frozen candidate set for this round: each group's least-loaded
        // server (ties to the lowest index — deterministic).
        cand.clear();
        for g in groups {
            let mut best: Option<usize> = None;
            for &srv in g {
                best = Some(match best {
                    Some(b) if load[b].total_cmp(&load[srv]).is_le() => b,
                    _ => srv,
                });
            }
            if let Some(b) = best {
                cand.push(b);
            }
        }
        let mut any_move = false;
        for k in 0..n {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    cut = true;
                    break 'rounds;
                }
            }
            if let Some(m) = max_evals {
                if trace.evaluations >= m {
                    cut = true;
                    break 'rounds;
                }
            }
            if !ctx.is_offloaded(k) {
                continue;
            }
            let ap = ev.ap_of[k];
            let cur_srv = ctx.placement()[k];
            let cur_cost = ctx.own_cost(k);
            let mut best = (cur_cost, cur_srv);
            for &srv in &cand {
                if srv == cur_srv {
                    continue;
                }
                if let Some(lists) = allowed {
                    if lists[ap].binary_search(&srv).is_err() {
                        continue;
                    }
                }
                // Diversity-bounded runs never move a stream onto a server
                // or failure domain that is already at its concentration
                // cap (no-op without a diversity config).
                if !ctx.move_within_caps(k, srv) {
                    continue;
                }
                let c = ctx.probe_move_cost(k, srv, &mut scratch);
                probes += 1;
                trace.evaluations += 1;
                if c < best.0 * (1.0 - IMPROVEMENT_TOL) {
                    best = (c, srv);
                }
            }
            if best.1 != cur_srv {
                let plan = ctx.plan_of(k);
                load[cur_srv] -= demand(k, plan, cur_srv);
                load[best.1] += demand(k, plan, best.1);
                let obj = ctx.commit_move(k, best.1);
                trace.evaluations += 1;
                trace.objective.push(obj);
                moves += 1;
                any_move = true;
            }
        }
        if !any_move {
            quiesced = true;
            break;
        }
    }
    ReconcileReport {
        rounds,
        moves,
        probes,
        converged: quiesced && !cut,
        cut,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::optimizer::{self, OptimizerConfig};

    fn evaluator() -> Evaluator {
        let cfg = ScenarioConfig {
            num_aps: 1,
            devices_per_ap: 4,
            arrival_rate_hz: 4.0,
            ..ScenarioConfig::default()
        };
        Evaluator::new(&cfg.build(), None)
    }

    #[test]
    fn dynamics_converge() {
        let ev = evaluator();
        let out = solve_distributed(&ev);
        assert!(out.converged, "no equilibrium in {} rounds", out.rounds);
        assert!(out.rounds < 20);
        assert!(out.solution.result.objective.is_finite());
    }

    #[test]
    fn equilibrium_is_unilaterally_stable() {
        let ev = evaluator();
        let policies = AllocPolicies::optimal();
        let out = solve_distributed(&ev);
        let mut asg = out.solution.assignment.clone();
        // No single stream can improve its own cost by more than tol.
        for k in 0..ev.num_streams() {
            let base = ev.evaluate(&asg, policies).latency_s[k] / ev.deadline(k);
            let saved = (asg.plan_idx[k], asg.placement[k]);
            for plan in 0..ev.menu(k).len() {
                for server in 0..ev.num_servers() {
                    asg.plan_idx[k] = plan;
                    asg.placement[k] = server;
                    let c = ev.evaluate(&asg, policies).latency_s[k] / ev.deadline(k);
                    assert!(
                        c >= base * (1.0 - 1e-5) - 1e-12,
                        "stream {k} deviates {saved:?} -> ({plan},{server}): {c} < {base}"
                    );
                }
            }
            asg.plan_idx[k] = saved.0;
            asg.placement[k] = saved.1;
        }
    }

    #[test]
    fn distributed_is_close_to_centralized() {
        let ev = evaluator();
        let dist = solve_distributed(&ev);
        let central = optimizer::solve(&ev, &OptimizerConfig::default());
        // "Close-to-optimal": within 30% of the centralized objective on
        // this instance (typically much closer; the bound here just guards
        // regressions).
        assert!(
            dist.solution.result.objective <= central.result.objective * 1.30 + 1e-9,
            "distributed {} vs centralized {}",
            dist.solution.result.objective,
            central.result.objective
        );
    }

    #[test]
    fn reconcile_terminates_and_tracks_exact_objective() {
        // Two-AP scenario, all streams piled onto server 0: reconciliation
        // must spread them, commit exact objectives, and quiesce within
        // the round cap.
        let cfg = ScenarioConfig {
            num_aps: 2,
            devices_per_ap: 4,
            arrival_rate_hz: 4.0,
            ..ScenarioConfig::default()
        };
        let ev = Evaluator::new(&cfg.build(), None);
        let n = ev.num_streams();
        let asg = crate::evaluator::Assignment {
            plan_idx: vec![0; n],
            placement: vec![0; n],
        };
        let mut ctx = EvalContext::new(&ev, asg.clone(), AllocPolicies::optimal());
        let before = ctx.objective();
        let mut trace = SearchTrace::default();
        let groups: Vec<Vec<usize>> = (0..ev.num_servers()).map(|s| vec![s]).collect();
        let rcfg = ReconcileConfig::default();
        let report = reconcile_placement(&mut ctx, &groups, None, &rcfg, None, None, &mut trace);
        assert!(
            report.converged,
            "no quiescence in {} rounds",
            report.rounds
        );
        assert!(report.rounds > 1, "the first round moved nothing");
        // The configured round cap is the whole pass: one round, then a
        // stop that is neither quiescence nor a budget cut.
        let one_round = ReconcileConfig { max_rounds: 1 };
        let mut ctx1 = EvalContext::new(&ev, asg, AllocPolicies::optimal());
        let mut t1 = SearchTrace::default();
        let r1 = reconcile_placement(&mut ctx1, &groups, None, &one_round, None, None, &mut t1);
        assert_eq!(r1.rounds, 1);
        assert!(!r1.converged && !r1.cut);
        assert!(report.moves > 0, "nothing moved off the overloaded server");
        assert!(report.probes >= report.moves);
        assert_eq!(
            trace.evaluations,
            report.probes + report.moves,
            "every probe and commit is counted"
        );
        assert!(
            ctx.objective() <= before,
            "selfish spreading worsened the pool"
        );
        // The incremental objective stays exact (the commit path's bit
        // parity is the eval_context contract; spot-check it here).
        ctx.assert_matches_fresh();
    }

    #[test]
    fn reconcile_respects_reachability_and_eval_cap() {
        let cfg = ScenarioConfig {
            num_aps: 2,
            devices_per_ap: 4,
            arrival_rate_hz: 4.0,
            ..ScenarioConfig::default()
        };
        let ev = Evaluator::new(&cfg.build(), None);
        let n = ev.num_streams();
        let asg = crate::evaluator::Assignment {
            plan_idx: vec![0; n],
            placement: vec![0; n],
        };
        // AP 0 may only use server 0; AP 1 may only use server 1.
        let allowed = vec![vec![0], vec![1]];
        let mut ctx = EvalContext::new(&ev, asg.clone(), AllocPolicies::optimal());
        let mut trace = SearchTrace::default();
        let groups: Vec<Vec<usize>> = (0..ev.num_servers()).map(|s| vec![s]).collect();
        let rcfg = ReconcileConfig::default();
        reconcile_placement(
            &mut ctx,
            &groups,
            Some(&allowed),
            &rcfg,
            None,
            None,
            &mut trace,
        );
        for k in 0..n {
            if ctx.is_offloaded(k) {
                let ap = ev.ap_of[k];
                let srv = ctx.placement()[k];
                assert!(
                    srv == asg.placement[k] || allowed[ap].contains(&srv),
                    "stream {k} (AP {ap}) moved to unreachable server {srv}"
                );
            }
        }
        // A zero evaluation cap cuts the pass before any probe.
        let mut ctx2 = EvalContext::new(&ev, asg, AllocPolicies::optimal());
        let mut trace2 = SearchTrace::default();
        let r2 = reconcile_placement(&mut ctx2, &groups, None, &rcfg, None, Some(0), &mut trace2);
        assert!(!r2.converged);
        assert!(r2.cut, "the eval cap must be reported as a budget cut");
        assert_eq!(r2.moves, 0);
        assert_eq!(trace2.evaluations, 0);
    }

    #[test]
    fn selfish_moves_never_worsen_the_mover() {
        // Trace inspection: the recorded global objective may fluctuate
        // (selfishness), but convergence + stability (tested above) is the
        // contract. Here we simply check the trace is non-empty and finite.
        let ev = evaluator();
        let out = solve_distributed(&ev);
        assert!(!out.solution.trace.objective.is_empty());
        assert!(out.solution.trace.objective.iter().all(|o| o.is_finite()));
    }
}
