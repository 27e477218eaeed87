//! Lowering a joint solution to simulator inputs.
//!
//! The compiler turns (problem, per-stream plan pricing, placement, shares)
//! into [`scalpel_sim::CompiledStream`]s. Both the analytic evaluator and
//! this compiler read the *same* [`crate::evaluator::PlanPricing`] numbers,
//! so what the optimizer believed and what the simulator executes differ
//! only by the things the simulator is there to measure: queueing,
//! contention and fading.

use crate::diversity::NO_DOMAIN;
use crate::evaluator::{Assignment, EvalResult, Evaluator};
use crate::problem::JointProblem;
use scalpel_sim::CompiledStream;
use scalpel_surgery::{ladder_for_plan, DegradeLadder};
use serde::{Deserialize, Serialize};

/// Options controlling how a priced solution lowers to simulator streams.
/// The default reproduces the historical flat fallback order byte for
/// byte; a domain map switches to per-stream menus ordered by expected
/// residual latency under the current blast-radius picture (the recovery
/// path walks them rank first — see DESIGN.md §2.16).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CompileOptions {
    /// Failure domain of each server ([`NO_DOMAIN`] = none; servers past
    /// the end of the table are unmapped). `Some` ranks each stream's
    /// fallback servers by expected residual latency (transmission + half
    /// RTT + edge time + spread pressure + blast-radius penalty): a
    /// fallback sharing the primary's domain dies with it, so it pays
    /// `SAME_DOMAIN_PENALTY_S` and sinks to the menu's tail. `None` keeps
    /// the raw catalog-capacity order.
    pub server_domain: Option<Vec<usize>>,
}

/// Score penalty (seconds) for a ranked fallback inside the primary's
/// failure domain: decisive, so such a server sinks below even the
/// slowest out-of-domain one.
const SAME_DOMAIN_PENALTY_S: f64 = 1e3;

/// Score increment (seconds) per stream that already chose a server as
/// its rank-1 fallback — saturating spread pressure so one fast server
/// does not become everyone's first hedge.
const SPREAD_WEIGHT_S: f64 = 0.01;

/// Rank-1 counters saturate here: beyond this many streams preferring one
/// server the spread pressure stops growing (the score stays bounded and
/// the order stays stable under fleet-size changes).
const SPREAD_SATURATION: usize = 16;

/// Compile every stream of a priced configuration (flat fallback order;
/// byte-identical to [`compile_with`] under default options).
pub fn compile(
    problem: &JointProblem,
    ev: &Evaluator,
    asg: &Assignment,
    result: &EvalResult,
) -> Vec<CompiledStream> {
    compile_with(problem, ev, asg, result, &CompileOptions::default())
}

/// Compile every stream of a priced configuration under explicit
/// [`CompileOptions`].
pub fn compile_with(
    problem: &JointProblem,
    ev: &Evaluator,
    asg: &Assignment,
    result: &EvalResult,
    opts: &CompileOptions,
) -> Vec<CompiledStream> {
    // Streams are visited in index order, so the spread counters — and
    // therefore every ranked menu — are a deterministic function of
    // (assignment, options) alone.
    let mut rank1_count = vec![0usize; problem.cluster.servers.len()];
    (0..problem.streams.len())
        .map(|k| {
            let spec = &problem.streams[k];
            let p = &ev.menu(k)[asg.plan_idx[k]];
            let device_only = p.is_device_only();
            let degrade = if device_only {
                DegradeLadder::none()
            } else {
                // The local-finish rung comes from the menu's device-only
                // entry, if the stream has one: running the whole model on
                // the device costs its full device time beyond the prefix
                // this plan has already paid for.
                let local = ev
                    .menu(k)
                    .iter()
                    .find(|c| c.is_device_only())
                    .map(|d| ((d.dev_full - p.dev_full).max(0.0), d.acc_full));
                ladder_for_plan(&p.plan, &p.acc_at_exit, local)
            };
            let fallback_servers = if device_only {
                Vec::new()
            } else if let Some(server_domain) = &opts.server_domain {
                rank_fallbacks(
                    problem,
                    ev,
                    server_domain,
                    &mut rank1_count,
                    k,
                    p,
                    asg.placement[k],
                )
            } else {
                // Every other server, best catalog capacity first (ties:
                // lowest index) — the hedging preference order.
                let primary = asg.placement[k];
                let mut alts: Vec<usize> = (0..problem.cluster.servers.len())
                    .filter(|&s| s != primary)
                    .collect();
                alts.sort_by(|&a, &b| {
                    problem.cluster.servers[b]
                        .proc
                        .flops_per_sec
                        .total_cmp(&problem.cluster.servers[a].proc.flops_per_sec)
                        .then(a.cmp(&b))
                });
                alts
            };
            CompiledStream {
                id: k,
                device: spec.device,
                server: if device_only {
                    None
                } else {
                    Some(asg.placement[k])
                },
                arrivals: spec.arrivals.clone(),
                deadline_s: spec.deadline_s,
                device_time_to_exit: p.dev_to_exit.clone(),
                device_full_time: p.dev_full,
                tx_bytes: p.tx_bytes,
                edge_flops: p.edge_flops,
                behavior: p.behavior.clone(),
                acc_at_exit: p.acc_at_exit.clone(),
                acc_full: p.acc_full,
                bandwidth_share: if device_only {
                    0.0
                } else {
                    result.bandwidth_shares[k].clamp(1e-6, 1.0)
                },
                compute_weight: if device_only {
                    0.0
                } else {
                    result.compute_shares[k].max(1e-6)
                },
                degrade,
                fallback_servers,
            }
        })
        .collect()
}

/// Rank stream `k`'s fallback servers by expected residual latency: full
/// retransmission + half RTT + edge compute, plus a blast-radius penalty
/// for sharing the primary's failure domain and a saturating spread
/// pressure on crowded rank-1 picks. Ties break to the lowest server
/// index, so the menu is bitwise-stable for a given (assignment, options)
/// pair.
fn rank_fallbacks(
    problem: &JointProblem,
    ev: &Evaluator,
    server_domain: &[usize],
    rank1_count: &mut [usize],
    k: usize,
    p: &crate::evaluator::PlanPricing,
    primary: usize,
) -> Vec<usize> {
    let domain_of = |s: usize| server_domain.get(s).copied().unwrap_or(NO_DOMAIN);
    let prim_dom = domain_of(primary);
    // A fallback re-ships the features and pays the remaining edge work
    // fresh — the same residual-latency shape the evaluator prices, so
    // the menu order agrees with what the optimizer believed.
    let resend = p.remain * ev.tx_full_seconds(k, p) + ev.rtt_s[k] / 2.0;
    let mut alts: Vec<(f64, usize)> = (0..problem.cluster.servers.len())
        .filter(|&s| s != primary)
        .map(|s| {
            let edge = p.remain * p.edge_flops / ev.server_caps[s];
            let mut score = resend + edge;
            if prim_dom != NO_DOMAIN && domain_of(s) == prim_dom {
                score += SAME_DOMAIN_PENALTY_S;
            }
            score += SPREAD_WEIGHT_S * rank1_count[s].min(SPREAD_SATURATION) as f64;
            (score, s)
        })
        .collect();
    alts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let ranked: Vec<usize> = alts.into_iter().map(|(_, s)| s).collect();
    if let Some(&first) = ranked.first() {
        rank1_count[first] = rank1_count[first].saturating_add(1);
    }
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::evaluator::AllocPolicies;
    use scalpel_sim::{EdgeSim, SimConfig};

    fn setup() -> (JointProblem, Evaluator) {
        let cfg = ScenarioConfig {
            num_aps: 1,
            devices_per_ap: 4,
            arrival_rate_hz: 3.0,
            ..ScenarioConfig::default()
        };
        let p = cfg.build();
        let ev = Evaluator::new(&p, None);
        (p, ev)
    }

    #[test]
    fn every_menu_plan_of_every_stream_compiles_and_validates() {
        // The simulator's validation must accept whatever the menus can
        // produce — sweep every plan index of every stream.
        let (p, ev) = setup();
        for k in 0..ev.num_streams() {
            for idx in 0..ev.menu(k).len() {
                let mut asg = Assignment {
                    plan_idx: vec![0; ev.num_streams()],
                    placement: vec![0; ev.num_streams()],
                };
                asg.plan_idx[k] = idx;
                let r = ev.evaluate(&asg, AllocPolicies::optimal());
                let streams = compile(&p, &ev, &asg, &r);
                for s in &streams {
                    assert!(s.validate().is_ok(), "stream {k} plan {idx}: {s:?}");
                }
            }
        }
    }

    #[test]
    fn quantized_plans_ship_fewer_bytes_into_the_simulator() {
        let (p, ev) = setup();
        for k in 0..ev.num_streams() {
            let menu = ev.menu(k);
            // find a quantized/plain pair at the same cut
            for (qi, q) in menu.iter().enumerate() {
                if !q.plan.quantize_tx {
                    continue;
                }
                if let Some((pi, _)) = menu
                    .iter()
                    .enumerate()
                    .find(|(_, c)| c.plan.cut == q.plan.cut && !c.plan.quantize_tx)
                {
                    let mut asg = Assignment {
                        plan_idx: vec![0; ev.num_streams()],
                        placement: vec![0; ev.num_streams()],
                    };
                    asg.plan_idx[k] = qi;
                    let r = ev.evaluate(&asg, AllocPolicies::optimal());
                    let quant_bytes = compile(&p, &ev, &asg, &r)[k].tx_bytes;
                    asg.plan_idx[k] = pi;
                    let r = ev.evaluate(&asg, AllocPolicies::optimal());
                    let plain_bytes = compile(&p, &ev, &asg, &r)[k].tx_bytes;
                    assert!(
                        quant_bytes < plain_bytes,
                        "stream {k}: quantized {quant_bytes} !< plain {plain_bytes}"
                    );
                    return; // one pair suffices
                }
            }
        }
    }

    #[test]
    fn default_options_reproduce_the_flat_order_exactly() {
        let (p, ev) = setup();
        let asg = Assignment {
            plan_idx: vec![0; ev.num_streams()],
            placement: (0..ev.num_streams())
                .map(|k| k % ev.num_servers())
                .collect(),
        };
        let r = ev.evaluate(&asg, AllocPolicies::optimal());
        let flat = compile(&p, &ev, &asg, &r);
        let opt = compile_with(&p, &ev, &asg, &r, &CompileOptions::default());
        for (a, b) in flat.iter().zip(&opt) {
            assert_eq!(a.fallback_servers, b.fallback_servers);
            assert_eq!(a.server, b.server);
        }
    }

    #[test]
    fn ranked_menus_are_deterministic_and_complete() {
        let (p, ev) = setup();
        let asg = Assignment {
            plan_idx: vec![0; ev.num_streams()],
            placement: vec![0; ev.num_streams()],
        };
        let r = ev.evaluate(&asg, AllocPolicies::optimal());
        let opts = CompileOptions {
            server_domain: Some(Vec::new()),
        };
        let a = compile_with(&p, &ev, &asg, &r, &opts);
        let b = compile_with(&p, &ev, &asg, &r, &opts);
        for (k, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.fallback_servers, y.fallback_servers, "stream {k}");
            if let Some(primary) = x.server {
                // Every non-primary server appears exactly once.
                let mut seen = x.fallback_servers.clone();
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(seen.len(), ev.num_servers() - 1, "stream {k}");
                assert!(!x.fallback_servers.contains(&primary));
            }
        }
    }

    #[test]
    fn ranked_rank1_leaves_the_primary_blast_radius() {
        let (p, ev) = setup();
        let n_servers = ev.num_servers();
        assert!(n_servers >= 2, "scenario must have at least two servers");
        // Put the primary (server 0) and every server except the last in
        // one domain; only the last server survives a domain kill.
        let mut server_domain = vec![0usize; n_servers];
        server_domain[n_servers - 1] = 1;
        let asg = Assignment {
            plan_idx: vec![0; ev.num_streams()],
            placement: vec![0; ev.num_streams()],
        };
        let r = ev.evaluate(&asg, AllocPolicies::optimal());
        let opts = CompileOptions {
            server_domain: Some(server_domain),
        };
        for s in compile_with(&p, &ev, &asg, &r, &opts) {
            if s.server.is_some() {
                assert_eq!(
                    s.fallback_servers[0],
                    n_servers - 1,
                    "rank-1 fallback must sit outside the primary's domain"
                );
            }
        }
    }

    #[test]
    fn compiled_streams_pass_simulator_validation() {
        let (p, ev) = setup();
        let asg = Assignment {
            plan_idx: vec![0; ev.num_streams()],
            placement: (0..ev.num_streams())
                .map(|k| k % ev.num_servers())
                .collect(),
        };
        let r = ev.evaluate(&asg, AllocPolicies::optimal());
        let streams = compile(&p, &ev, &asg, &r);
        assert_eq!(streams.len(), 4);
        let sim = EdgeSim::new(
            p.cluster.clone(),
            streams,
            SimConfig {
                horizon_s: 5.0,
                warmup_s: 1.0,
                seed: 3,
                fading: false,
                ..SimConfig::default()
            },
        );
        assert!(sim.is_ok(), "{:?}", sim.err());
        let report = sim.unwrap().run();
        assert!(report.completed > 0);
    }

    #[test]
    fn analytic_and_simulated_latencies_agree_under_light_load() {
        // With fading off and light load, the simulator should land within
        // a factor ~2 of the analytic expectation (queueing corrections are
        // approximations, not exact).
        let cfg = ScenarioConfig {
            num_aps: 1,
            devices_per_ap: 2,
            arrival_rate_hz: 1.0,
            sim: SimConfig {
                horizon_s: 30.0,
                warmup_s: 2.0,
                seed: 5,
                fading: false,
                ..SimConfig::default()
            },
            ..ScenarioConfig::default()
        };
        let p = cfg.build();
        let ev = Evaluator::new(&p, None);
        let asg = Assignment {
            plan_idx: vec![0; 2],
            placement: vec![0, 1],
        };
        let r = ev.evaluate(&asg, AllocPolicies::optimal());
        let report = EdgeSim::new(p.cluster.clone(), compile(&p, &ev, &asg, &r), cfg.sim)
            .unwrap()
            .run();
        let analytic_mean = r.latency_s.iter().sum::<f64>() / r.latency_s.len() as f64;
        let simulated = report.latency.mean;
        assert!(
            simulated < analytic_mean * 2.0 && simulated > analytic_mean * 0.3,
            "analytic {analytic_mean} vs simulated {simulated}"
        );
    }
}
