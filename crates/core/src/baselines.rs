//! The evaluation's method ladder: every baseline the paper-style
//! comparison needs, each expressed as a restriction of the joint search.
//!
//! | Method        | Surgery                         | Allocation            |
//! |---------------|---------------------------------|-----------------------|
//! | DeviceOnly    | everything on the device        | —                     |
//! | EdgeOnly      | full offload                    | equal, round-robin    |
//! | Neurosurgeon  | best static cut, no exits       | equal, round-robin    |
//! | FixedExit     | static cut + all exits @0.8     | equal, round-robin    |
//! | SurgeryOnly   | joint surgery search            | equal, round-robin    |
//! | AllocOnly     | Neurosurgeon cuts               | optimal               |
//! | Joint         | joint surgery search            | optimal               |

use crate::evaluator::{AllocPolicies, Assignment, Evaluator, PlanPricing};
use crate::optimizer::{self, OptimizerConfig, SearchTrace, Solution};
use scalpel_alloc::placement::PlacementStrategy;
use serde::{Deserialize, Serialize};

/// The seven methods compared throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// Run the whole model on the device.
    DeviceOnly,
    /// Ship the raw input to the edge (full offload).
    EdgeOnly,
    /// Latency-best static partition per stream, no exits, no pruning
    /// (Neurosurgeon-style), static resource shares.
    Neurosurgeon,
    /// Neurosurgeon's cut plus every available exit at threshold 0.8.
    FixedExit,
    /// Joint surgery search but static (equal/round-robin) resources.
    SurgeryOnly,
    /// Neurosurgeon's plans but optimal placement + allocation.
    AllocOnly,
    /// The paper's scheme: joint surgery + allocation.
    Joint,
}

impl Method {
    /// All methods in the canonical comparison order.
    pub const ALL: &'static [Method] = &[
        Method::DeviceOnly,
        Method::EdgeOnly,
        Method::Neurosurgeon,
        Method::FixedExit,
        Method::SurgeryOnly,
        Method::AllocOnly,
        Method::Joint,
    ];

    /// Display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            Method::DeviceOnly => "DeviceOnly",
            Method::EdgeOnly => "EdgeOnly",
            Method::Neurosurgeon => "Neurosurgeon",
            Method::FixedExit => "FixedExit",
            Method::SurgeryOnly => "SurgeryOnly",
            Method::AllocOnly => "AllocOnly",
            Method::Joint => "Joint",
        }
    }
}

/// Index of the menu plan closest to "device only" (max cut, no exits).
/// Prefers the *pure* classic baseline — no exits, no pruning — over
/// exit-bearing device-only plans the menu may also contain.
fn device_only_idx(menu: &[PlanPricing]) -> usize {
    menu.iter()
        .enumerate()
        .filter(|(_, p)| p.is_device_only())
        .max_by_key(|(_, p)| {
            (
                p.plan.exits.is_empty(),
                p.plan.prune == scalpel_surgery::PruneLevel::None,
            )
        })
        .map(|(i, _)| i)
        .unwrap_or_else(|| {
            // No device-only plan survived Pareto filtering (heavy model on
            // a weak device): fall back to the plan with the most device
            // work — the closest available approximation.
            menu.iter()
                .enumerate()
                .max_by(|a, b| a.1.dev_full.total_cmp(&b.1.dev_full))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
}

/// Index of the full-offload plan (cut 0).
fn full_offload_idx(menu: &[PlanPricing]) -> usize {
    menu.iter()
        .position(|p| p.plan.cut == 0)
        .unwrap_or_else(|| {
            menu.iter()
                .enumerate()
                .min_by(|a, b| a.1.dev_full.total_cmp(&b.1.dev_full))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
}

/// The static fair-share latency estimate a one-stream-at-a-time method
/// (Neurosurgeon, FixedExit) would compute: device time + transmission at
/// `1/peers` of the AP + edge at `1/streams-per-server` of the mean server.
fn static_score(ev: &Evaluator, k: usize, p: &PlanPricing) -> f64 {
    let peers = ev.peers_on_same_ap(k) as f64;
    let mean_cap = ev.server_caps().iter().sum::<f64>() / ev.server_caps().len().max(1) as f64;
    let streams_per_server =
        (ev.num_streams() as f64 / ev.server_caps().len().max(1) as f64).max(1.0);
    let mut lat = p.exp_dev;
    lat += p.remain
        * (ev.tx_full_seconds(k, p) * peers
            + p.edge_flops * streams_per_server / mean_cap.max(1.0));
    lat
}

/// Neurosurgeon: per-stream, the exit-free unpruned plan with the lowest
/// static fair-share latency estimate.
fn neurosurgeon_idx(ev: &Evaluator, k: usize) -> usize {
    let menu = ev.menu(k);
    let candidates: Vec<usize> = (0..menu.len())
        .filter(|&i| {
            menu[i].plan.exits.is_empty()
                && menu[i].plan.prune == scalpel_surgery::PruneLevel::None
                && !menu[i].plan.quantize_tx
        })
        .collect();
    let pool = if candidates.is_empty() {
        (0..menu.len()).collect::<Vec<_>>()
    } else {
        candidates
    };
    pool.into_iter()
        .min_by(|&a, &b| static_score(ev, k, &menu[a]).total_cmp(&static_score(ev, k, &menu[b])))
        .unwrap_or(0)
}

/// FixedExit: a statically-chosen multi-exit configuration — the
/// exit-bearing unpruned plan with the best static fair-share estimate
/// (no joint optimization, equal shares). Falls back to Neurosurgeon's
/// plan when no exit-bearing plan exists for the stream.
fn fixed_exit_idx(ev: &Evaluator, k: usize) -> usize {
    let menu = ev.menu(k);
    menu.iter()
        .enumerate()
        .filter(|(_, p)| {
            !p.plan.exits.is_empty() && p.plan.prune == scalpel_surgery::PruneLevel::None
        })
        .min_by(|a, b| static_score(ev, k, a.1).total_cmp(&static_score(ev, k, b.1)))
        .map(|(i, _)| i)
        .unwrap_or_else(|| neurosurgeon_idx(ev, k))
}

/// Produce a method's solution on a prepared evaluator.
pub fn solve_with(ev: &Evaluator, method: Method, cfg: &OptimizerConfig) -> Solution {
    let n = ev.num_streams();
    let static_policies = AllocPolicies::equal();
    let rr_placement =
        |_: &[usize]| -> Vec<usize> { (0..n).map(|k| k % ev.num_servers()).collect() };
    let fixed = |plan_idx: Vec<usize>, placement: Vec<usize>, policies: AllocPolicies| {
        let asg = Assignment {
            plan_idx,
            placement,
        };
        let result = ev.evaluate(&asg, policies);
        Solution {
            assignment: asg,
            result,
            trace: SearchTrace::default(),
        }
    };
    match method {
        Method::DeviceOnly => {
            let idx: Vec<usize> = (0..n).map(|k| device_only_idx(ev.menu(k))).collect();
            let placement = rr_placement(&idx);
            fixed(idx, placement, static_policies)
        }
        Method::EdgeOnly => {
            let idx: Vec<usize> = (0..n).map(|k| full_offload_idx(ev.menu(k))).collect();
            let placement = rr_placement(&idx);
            fixed(idx, placement, static_policies)
        }
        Method::Neurosurgeon => {
            let idx: Vec<usize> = (0..n).map(|k| neurosurgeon_idx(ev, k)).collect();
            let placement = rr_placement(&idx);
            fixed(idx, placement, static_policies)
        }
        Method::FixedExit => {
            let idx: Vec<usize> = (0..n).map(|k| fixed_exit_idx(ev, k)).collect();
            let placement = rr_placement(&idx);
            fixed(idx, placement, static_policies)
        }
        Method::SurgeryOnly => {
            let mut c = cfg.clone();
            c.policies = static_policies;
            c.placement = PlacementStrategy::RoundRobin;
            optimizer::solve(ev, &c)
        }
        Method::AllocOnly => {
            let idx: Vec<usize> = (0..n).map(|k| neurosurgeon_idx(ev, k)).collect();
            let placement = optimizer::placement_for(ev, &idx, PlacementStrategy::BestResponse);
            fixed(idx, placement, cfg.policies)
        }
        Method::Joint => optimizer::solve(ev, cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;

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
    fn every_method_produces_a_solution() {
        let ev = evaluator();
        let cfg = OptimizerConfig {
            rounds: 2,
            gibbs_iters: 30,
            ..Default::default()
        };
        for &m in Method::ALL {
            let sol = solve_with(&ev, m, &cfg);
            assert!(sol.result.objective.is_finite(), "{}", m.name());
            assert_eq!(sol.assignment.plan_idx.len(), ev.num_streams());
        }
    }

    #[test]
    fn joint_is_best_of_the_ladder_analytically() {
        let ev = evaluator();
        let cfg = OptimizerConfig {
            rounds: 4,
            gibbs_iters: 100,
            ..Default::default()
        };
        let joint = solve_with(&ev, Method::Joint, &cfg).result.objective;
        for &m in Method::ALL {
            let obj = solve_with(&ev, m, &cfg).result.objective;
            assert!(
                joint <= obj * 1.02 + 1e-9,
                "{} beat Joint: {obj} < {joint}",
                m.name()
            );
        }
    }

    #[test]
    fn single_knob_methods_beat_static_baselines() {
        let ev = evaluator();
        let cfg = OptimizerConfig {
            rounds: 3,
            gibbs_iters: 60,
            ..Default::default()
        };
        let ns = solve_with(&ev, Method::Neurosurgeon, &cfg).result.objective;
        let surgery = solve_with(&ev, Method::SurgeryOnly, &cfg).result.objective;
        let alloc = solve_with(&ev, Method::AllocOnly, &cfg).result.objective;
        // Each single-knob optimization should not be worse than its own
        // static starting point.
        assert!(surgery <= ns + 1e-9, "surgery {surgery} vs ns {ns}");
        assert!(alloc <= ns * 1.02 + 1e-9, "alloc {alloc} vs ns {ns}");
    }

    #[test]
    fn device_only_uses_no_server_resources() {
        let ev = evaluator();
        let cfg = OptimizerConfig::default();
        let sol = solve_with(&ev, Method::DeviceOnly, &cfg);
        // Streams whose menu has a true device-only plan get zero shares.
        for k in 0..ev.num_streams() {
            let p = &ev.menu(k)[sol.assignment.plan_idx[k]];
            if p.is_device_only() {
                assert_eq!(sol.result.compute_shares[k], 0.0);
            }
        }
    }

    #[test]
    fn edge_only_offloads_everything() {
        let ev = evaluator();
        let sol = solve_with(&ev, Method::EdgeOnly, &OptimizerConfig::default());
        for k in 0..ev.num_streams() {
            let p = &ev.menu(k)[sol.assignment.plan_idx[k]];
            assert_eq!(p.plan.cut, 0, "stream {k} not fully offloaded");
        }
    }

    #[test]
    fn neurosurgeon_plans_have_no_exits_or_pruning() {
        let ev = evaluator();
        let sol = solve_with(&ev, Method::Neurosurgeon, &OptimizerConfig::default());
        for k in 0..ev.num_streams() {
            let p = &ev.menu(k)[sol.assignment.plan_idx[k]];
            assert!(p.plan.exits.is_empty(), "stream {k}");
        }
    }

    #[test]
    fn method_names_are_unique() {
        let mut names: Vec<_> = Method::ALL.iter().map(|m| m.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Method::ALL.len());
    }
}
