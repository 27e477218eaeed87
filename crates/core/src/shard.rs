//! Fleet-scale replans: the warm polish behind
//! [`ServiceConfig::shard`](crate::service::ServiceConfig::shard).
//!
//! [`solve_sharded_with`] given the previous assignment prices that warm
//! point and polishes it with `POLISH_ROUNDS` (two) budgeted descent
//! rounds over the whole fleet, returning the better of {warm start,
//! polished}, so a replan never proposes worse than the plan it started
//! from. Without a warm start it is
//! [`solve_with_budget`](crate::optimizer::solve_with_budget): the
//! library has one cold solver.
//!
//! [`partition`] and [`extract`] split the fleet into AP/server shards
//! and lift one shard out as a standalone [`JointProblem`]. No solve
//! runs them; they stay as the partitioning rule `e2ebench` replays
//! (DESIGN.md §2.12). Every AP reaches every server, so a fleet within
//! [`ShardConfig::max_streams`] is one shard holding every AP and
//! server. A larger fleet goes through size-capped bisection of that
//! pool, splitting the AP list at the cumulative-stream midpoint and the
//! server list proportionally. APs are never split (their devices share
//! a bandwidth group), so [`ShardConfig::max_streams`] must admit the
//! largest AP group (enforced at ingest by [`validate_shard_config`]).
//! A shard can exceed the cap only when too few servers are left to
//! split — bisection keeps at least one server per side.
//!
//! [`validate_shard_config`]: crate::validate::validate_shard_config

use crate::distributed::ReconcileConfig;
use crate::diversity;
use crate::evaluator::{Assignment, Evaluator};
use crate::optimizer::{
    self, Budget, BudgetSpent, OptimizerConfig, SearchTrace, Solution, SolveOutcome,
};
use crate::problem::JointProblem;
use crate::validate::{validate_diversity, validate_shard_config, ProblemError};
use scalpel_surgery::candidates::CandidateConfig;
use std::time::{Duration, Instant};

/// Knobs of the sharded solve and of the partition. A solve reads `opt`
/// and validates `max_streams`; `menu` and `reconcile` configure only
/// what `e2ebench` replays over a partitioned fleet.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Bisection cap: a fleet or shard larger than this (in streams) is
    /// split. Must admit the largest AP stream group.
    pub max_streams: usize,
    /// Optimizer configuration: its policies and diversity caps price
    /// the polish, and a cold solve runs it whole.
    pub opt: OptimizerConfig,
    /// Candidate-menu configuration for evaluators built over
    /// [`extract`]ed shards. `None` = defaults.
    pub menu: Option<CandidateConfig>,
    /// Cross-shard best-response reconciliation knobs for
    /// [`reconcile_placement`](crate::distributed::reconcile_placement).
    pub reconcile: ReconcileConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            max_streams: 2048,
            opt: OptimizerConfig::default(),
            menu: None,
            reconcile: ReconcileConfig::default(),
        }
    }
}

/// One shard: a set of APs and servers, and the streams living on its
/// APs. All three lists are ascending global indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shard {
    /// Access points owned by this shard.
    pub aps: Vec<usize>,
    /// Servers owned by this shard (disjoint across shards).
    pub servers: Vec<usize>,
    /// Streams on this shard's APs (every stream is in exactly one shard).
    pub streams: Vec<usize>,
}

/// The partition of a problem into shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// The shards; their AP/server/stream sets are disjoint and their
    /// union covers the problem. A shard whose APs carry no streams is
    /// skipped by the solver but kept here so the AP and server unions
    /// stay complete.
    pub shards: Vec<Shard>,
}

/// Split an AP/server pool into size-capped shards; a pool within the
/// cap, or with fewer than two APs or servers, is one shard. The AP list
/// is cut at the cumulative-stream midpoint; servers follow proportionally
/// to stream mass, clamped so that whenever a side has at least as many
/// servers as APs the invariant is preserved recursively (each side then
/// keeps ≥ 1 server per AP and bisection can always reach single-AP
/// shards, which the ingest check guarantees fit the cap).
fn bisect(
    aps: Vec<usize>,
    servers: Vec<usize>,
    ap_streams: &[usize],
    max_streams: usize,
    out: &mut Vec<(Vec<usize>, Vec<usize>)>,
) {
    let total: usize = aps.iter().map(|&a| ap_streams[a]).sum();
    if total <= max_streams || aps.len() < 2 || servers.len() < 2 {
        out.push((aps, servers));
        return;
    }
    // Smallest AP prefix carrying at least half the stream mass, clamped
    // so both sides keep at least one AP.
    let mut acc = 0usize;
    let mut cut = aps.len() - 1;
    for (i, &a) in aps.iter().enumerate() {
        acc += ap_streams[a];
        if 2 * acc >= total {
            cut = (i + 1).clamp(1, aps.len() - 1);
            break;
        }
    }
    let left_mass: usize = aps[..cut].iter().map(|&a| ap_streams[a]).sum();
    let (s_len, a_len) = (servers.len(), aps.len());
    let prop = (s_len as f64 * left_mass as f64 / total.max(1) as f64).round() as usize;
    let (lo, hi) = if s_len >= a_len {
        (cut, s_len - (a_len - cut))
    } else {
        (1, s_len - 1)
    };
    let s_cut = prop.clamp(lo.max(1), hi.max(lo.max(1)).min(s_len - 1).max(1));
    let (a_left, a_right) = (aps[..cut].to_vec(), aps[cut..].to_vec());
    let (s_left, s_right) = (servers[..s_cut].to_vec(), servers[s_cut..].to_vec());
    bisect(a_left, s_left, ap_streams, max_streams, out);
    bisect(a_right, s_right, ap_streams, max_streams, out);
}

/// Partition `problem` into shards under `cfg`: one shard holding every
/// AP and server when the fleet fits [`ShardConfig::max_streams`],
/// otherwise the bisection of that pool. Deterministic: shards are
/// ordered by their smallest AP and all index lists ascend.
pub fn partition(problem: &JointProblem, cfg: &ShardConfig) -> Result<ShardPlan, ProblemError> {
    validate_shard_config(problem, cfg)?;
    let by_ap = problem.streams_by_ap();
    let ap_streams: Vec<usize> = by_ap.iter().map(|m| m.len()).collect();
    let mut pieces: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
    bisect(
        (0..problem.cluster.aps.len()).collect(),
        (0..problem.cluster.servers.len()).collect(),
        &ap_streams,
        cfg.max_streams,
        &mut pieces,
    );
    let shards = pieces
        .into_iter()
        .map(|(aps, servers)| {
            let mut streams: Vec<usize> =
                aps.iter().flat_map(|&a| by_ap[a].iter().copied()).collect();
            streams.sort_unstable();
            Shard {
                aps,
                servers,
                streams,
            }
        })
        .collect();
    Ok(ShardPlan { shards })
}

/// Extract one shard as a standalone [`JointProblem`]: the shard's APs,
/// their devices, its servers and streams, each reindexed ascending; the
/// model zoo and difficulty calibration are shared unchanged. A shard
/// holding every AP and server extracts the problem itself.
pub fn extract(problem: &JointProblem, shard: &Shard) -> JointProblem {
    let mut ap_local = vec![usize::MAX; problem.cluster.aps.len()];
    for (i, &a) in shard.aps.iter().enumerate() {
        ap_local[a] = i;
    }
    let mut dev_local = vec![usize::MAX; problem.cluster.devices.len()];
    let mut devices = Vec::new();
    for (gi, d) in problem.cluster.devices.iter().enumerate() {
        if ap_local[d.ap] != usize::MAX {
            dev_local[gi] = devices.len();
            let mut nd = d.clone();
            nd.id = devices.len();
            nd.ap = ap_local[d.ap];
            devices.push(nd);
        }
    }
    let aps = shard
        .aps
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            let mut na = problem.cluster.aps[a].clone();
            na.id = i;
            na
        })
        .collect();
    let servers = shard
        .servers
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let mut ns = problem.cluster.servers[s].clone();
            ns.id = i;
            ns
        })
        .collect();
    let streams = shard
        .streams
        .iter()
        .map(|&k| {
            let mut s = problem.streams[k].clone();
            s.device = dev_local[s.device];
            s
        })
        .collect();
    JointProblem {
        cluster: scalpel_sim::Cluster {
            devices,
            aps,
            servers,
        },
        models: problem.models.clone(),
        model_accuracy: problem.model_accuracy.clone(),
        streams,
        difficulty: problem.difficulty.clone(),
    }
}

/// Outcome of a sharded solve.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// The global solution with the same anytime contract as
    /// [`optimizer::solve_with_budget`]: on a warm start, the better of
    /// the warm point and its polish.
    pub outcome: SolveOutcome,
    /// Plans that had no structurally identical entry in the global menu
    /// and fell back to the closest one. Always zero: neither solve
    /// remaps a plan.
    pub remap_misses: usize,
}

/// Global descent rounds of the polish.
const POLISH_ROUNDS: usize = 2;

/// Sharded solve against a prebuilt global evaluator. `problem` and
/// `cfg` are validated first (diversity map arity and the shard cap).
/// Without a warm start this is [`optimizer::solve_with_budget`] under
/// `cfg.opt`. A warm start is priced, joins the incumbent race, and the
/// polish descends from it with the whole remaining budget; the result
/// is never worse than the warm point.
pub fn solve_sharded_with(
    problem: &JointProblem,
    ev: &Evaluator,
    cfg: &ShardConfig,
    budget: Budget,
    warm: Option<&Assignment>,
) -> Result<ShardedOutcome, ProblemError> {
    let started = Instant::now();
    if let Some(d) = &cfg.opt.diversity {
        validate_diversity(d, problem.cluster.servers.len())?;
    }
    validate_shard_config(problem, cfg)?;
    let Some(warm) = warm else {
        return Ok(ShardedOutcome {
            outcome: optimizer::solve_with_budget(ev, &cfg.opt, budget),
            remap_misses: 0,
        });
    };
    let deadline = budget.wall_time.map(|w| started + w);
    let policies = cfg.opt.policies;
    // Price the warm point on the same penalized scale the race runs on,
    // or a cap-violating incumbent would win unopposed.
    let wr = optimizer::priced(ev, policies, &cfg.opt.diversity, warm);
    let mut trace = SearchTrace {
        objective: vec![wr.objective],
        evaluations: 1,
    };
    let mut best_obj = wr.objective;
    let mut best_asg = warm.clone();

    // --- Global polish (`POLISH_ROUNDS` of descent).
    let evals_left = budget
        .max_evals
        .map(|m| m.saturating_sub(trace.evaluations));
    let wall_left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
    let mut converged = false;
    if evals_left != Some(0) && wall_left != Some(Duration::ZERO) {
        let mut pcfg = cfg.opt.clone();
        pcfg.rounds = POLISH_ROUNDS;
        let d = optimizer::descent_from_with_budget(
            ev,
            &pcfg,
            warm.clone(),
            Budget {
                wall_time: wall_left,
                max_evals: evals_left,
            },
        );
        converged = d.converged;
        trace.evaluations += d.solution.trace.evaluations;
        trace
            .objective
            .extend_from_slice(&d.solution.trace.objective);
        if d.solution.result.objective < best_obj {
            best_obj = d.solution.result.objective;
            best_asg = d.solution.assignment;
        }
    }

    // --- Materialize the incumbent (snapshot pricing, like `result()`;
    // not counted as a search evaluation).
    let mut repaired = false;
    if let Some(d) = &cfg.opt.diversity {
        // The race can still adopt a cap-violating warm start; one final
        // repair restores the hard guarantee before the result leaves
        // the solver.
        repaired = diversity::repair(ev, &mut best_asg, d) > 0;
    }
    let result = optimizer::priced(ev, policies, &cfg.opt.diversity, &best_asg);
    if repaired {
        best_obj = result.objective;
    }
    debug_assert!((result.objective - best_obj).abs() <= f64::EPSILON * best_obj.abs().max(1.0));
    let spent = BudgetSpent {
        evaluations: trace.evaluations,
        wall_s: started.elapsed().as_secs_f64(),
    };
    Ok(ShardedOutcome {
        outcome: SolveOutcome {
            solution: Solution {
                assignment: best_asg,
                result,
                trace,
            },
            // Anytime contract: `false` means the budget cut the polish.
            converged,
            spent,
        },
        remap_misses: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;

    fn scenario(num_aps: usize, devices_per_ap: usize) -> JointProblem {
        ScenarioConfig {
            num_aps,
            devices_per_ap,
            arrival_rate_hz: 4.0,
            ..ScenarioConfig::default()
        }
        .build()
    }

    #[test]
    fn fleet_is_one_shard_until_capped() {
        let p = scenario(4, 4);
        let cfg = ShardConfig {
            max_streams: 1000,
            ..ShardConfig::default()
        };
        let plan = partition(&p, &cfg).expect("valid");
        assert_eq!(plan.shards.len(), 1);
        assert_eq!(plan.shards[0].aps, vec![0, 1, 2, 3]);
        assert_eq!(plan.shards[0].servers, vec![0, 1, 2, 3]);
        assert_eq!(plan.shards[0].streams.len(), 16);
    }

    #[test]
    fn bisection_respects_cap_when_servers_suffice() {
        let p = ScenarioConfig {
            num_aps: 8,
            devices_per_ap: 4,
            servers: crate::config::ServerMix::Synthetic {
                count: 8,
                mean_fps: 3.0e12,
                cv: 0.0,
            },
            arrival_rate_hz: 4.0,
            ..ScenarioConfig::default()
        }
        .build();
        let cfg = ShardConfig {
            max_streams: 8,
            ..ShardConfig::default()
        };
        let plan = partition(&p, &cfg).expect("valid");
        assert!(plan.shards.len() > 1, "a cap below the fleet must split it");
        let mut seen = vec![false; p.streams.len()];
        for s in &plan.shards {
            assert!(
                s.streams.len() <= cfg.max_streams,
                "shard has {} streams > cap {}",
                s.streams.len(),
                cfg.max_streams
            );
            assert!(!s.servers.is_empty() || s.streams.is_empty());
            for &k in &s.streams {
                assert!(!seen[k], "stream {k} in two shards");
                seen[k] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "not every stream covered");
    }

    #[test]
    fn extraction_reindexes_ascending() {
        let p = scenario(4, 3);
        // Twelve streams over four servers, capped at six: APs {0,1} with
        // servers {0,1}, and APs {2,3} with servers {2,3}.
        let cfg = ShardConfig {
            max_streams: 6,
            ..ShardConfig::default()
        };
        let plan = partition(&p, &cfg).expect("valid");
        assert_eq!(plan.shards[1].aps, vec![2, 3]);
        assert_eq!(plan.shards[1].servers, vec![2, 3]);
        let sub = extract(&p, &plan.shards[1]);
        assert_eq!(sub.cluster.aps.len(), 2);
        assert_eq!(sub.cluster.servers.len(), 2);
        assert_eq!(sub.streams.len(), 6);
        sub.validate().expect("extracted shard is valid");
        for (i, d) in sub.cluster.devices.iter().enumerate() {
            assert_eq!(d.id, i);
            assert!(d.ap < 2);
        }
    }
}
