//! Fleet-scale sharded optimization: partition → parallel solve →
//! best-response reconciliation → global polish on a cold solve, and
//! partition → global polish on a warm replan.
//!
//! The centralized search prices every move against the whole
//! configuration; even with incremental evaluation that keeps a single
//! optimizer context for 10⁵–10⁶ streams. This module exploits the
//! locality the pricing model already has — a stream's cost depends only
//! on its device queue, its AP's bandwidth group, and its server's
//! compute group — to split the fleet into **shards**:
//!
//! 1. **Partition** ([`partition`]): every AP reaches every server, so
//!    a fleet within [`ShardConfig::max_streams`] is one shard holding
//!    every AP and server. A larger fleet goes through size-capped
//!    bisection of that one AP/server pool, splitting the AP list at the
//!    cumulative-stream midpoint and the server list proportionally. APs
//!    are never split (their devices share a bandwidth group), so
//!    [`ShardConfig::max_streams`] must admit the largest AP group
//!    (enforced at ingest by [`validate_shard_config`]). A shard can
//!    exceed the cap only when too few servers are left to split —
//!    bisection keeps at least one server per side.
//! 2. **Solve** each shard in parallel (rayon) with the existing
//!    incremental optimizer. Each shard is *extracted* into a standalone
//!    [`JointProblem`] ([`extract`]) and gets its own evaluator,
//!    [`EvalContext`] (inside the solver) and a proportional slice of
//!    the caller's [`Budget`]. When the fleet fits one shard the
//!    extraction is the problem itself — same devices, APs, servers and
//!    streams in the same order — so that shard's solve under
//!    [`Budget::UNLIMITED`] is bit-identical to
//!    [`optimizer::solve`] on the original problem (asserted by
//!    `tests/shard_parity.rs`).
//! 3. **Stitch** the shard solutions into one global assignment. Shard
//!    menus are generated against shard-local reference environments, so
//!    plans are remapped onto the global menus (exact structural match
//!    first, deterministic [`closest_idx`] fallback — misses are
//!    counted in [`ShardedOutcome::remap_misses`]).
//! 4. **Reconcile** cross-shard placements with the best-response layer
//!    ([`reconcile_placement`]): streams selfishly probe the
//!    least-loaded server of every *other* shard until no stream
//!    improves by crossing a shard boundary, or the round/budget caps
//!    hit.
//! 5. **Polish** globally: `POLISH_ROUNDS` (two) budgeted descent
//!    rounds from the reconciled point.
//!
//! Steps 2–5 are the cold path. A warm start ([`solve_sharded_with`]
//! given the previous assignment) is already a consistent global
//! placement, so it skips steps 2–4 and goes straight to the polish:
//! the warm point is priced and polished with the whole remaining
//! budget. On warm replans the shard phases cost about 40% of the
//! evaluations and their candidate lost to this polish more often than
//! it won (DESIGN.md §2.12).
//!
//! The returned incumbent is the best of {stitched, reconciled,
//! polished} on a cold solve and of {warm start, polished} on a warm
//! one, so the sharded path never returns something worse than its own
//! intermediate states. Anytime semantics match
//! [`solve_with_budget`]: under [`Budget::UNLIMITED`] the clock is never
//! consulted and the outcome is a pure function of (problem, config) —
//! including under different rayon thread counts, since shard tasks are
//! independent and reconciliation runs on the stitched result in stream
//! order. See DESIGN.md §2.12.
//!
//! [`validate_shard_config`]: crate::validate::validate_shard_config
//! [`closest_idx`]: crate::online::closest_idx
//! [`solve_with_budget`]: crate::optimizer::solve_with_budget
//! [`EvalContext`]: crate::eval_context::EvalContext

use crate::distributed::{reconcile_placement, ReconcileConfig, ReconcileReport};
use crate::diversity;
use crate::eval_context::EvalContext;
use crate::evaluator::{Assignment, Evaluator};
use crate::online;
use crate::optimizer::SolveOutcome;
use crate::optimizer::{self, Budget, BudgetSpent, OptimizerConfig, SearchTrace, Solution};
use crate::problem::JointProblem;
use crate::validate::{validate_shard_config, ProblemError};
use rayon::prelude::*;
use scalpel_surgery::candidates::CandidateConfig;
use std::time::{Duration, Instant};

/// Knobs of the sharded solve.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Bisection cap: a fleet or shard larger than this (in streams) is
    /// split. Must admit the largest AP stream group.
    pub max_streams: usize,
    /// Per-shard optimizer configuration (also supplies the policies the
    /// global stitch/reconcile/polish price under).
    pub opt: OptimizerConfig,
    /// Candidate-menu configuration forwarded to every evaluator built
    /// here (global and per-shard). `None` = defaults.
    pub menu: Option<CandidateConfig>,
    /// Cross-shard best-response reconciliation knobs.
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

/// What one shard's solve reported.
#[derive(Debug, Clone)]
pub struct ShardSolve {
    /// Index into [`ShardPlan::shards`].
    pub shard: usize,
    /// Streams in the shard.
    pub streams: usize,
    /// `true` when the wall deadline expired before this shard's solve
    /// started: its streams were filled from the cheap initial heuristic
    /// on the *global* menus instead (bounded-overshoot degradation).
    pub fallback: bool,
    /// Whether the shard solve finished within its budget slice
    /// (vacuously `true` for empty shards and on warm starts, `false`
    /// for fallbacks).
    pub converged: bool,
    /// Evaluations the shard solve spent.
    pub evaluations: usize,
    /// Shard-local objective (its own pooled objective over its streams;
    /// `None` for empty shards, fallbacks and warm starts).
    pub objective: Option<f64>,
    /// Shard-local solution assignment (indices into the shard's own
    /// menus/servers; `None` for empty shards, fallbacks and warm
    /// starts).
    pub assignment: Option<Assignment>,
}

/// Outcome of a sharded solve.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// The global solution with the same anytime contract as
    /// [`optimizer::solve_with_budget`]: best incumbent across stitch,
    /// reconciliation and polish, or across the warm start and polish.
    pub outcome: SolveOutcome,
    /// How the fleet was partitioned.
    pub plan: ShardPlan,
    /// Per-shard solve reports, parallel to [`ShardPlan::shards`]. A warm
    /// start solves no shard: every report has zero evaluations.
    pub shards: Vec<ShardSolve>,
    /// What the cross-shard reconciliation pass did. A warm start skips
    /// the pass: no rounds, moves or probes, and not cut.
    pub reconcile: ReconcileReport,
    /// Stitched plans that had no structurally identical entry in the
    /// global menu and fell back to [`online::closest_idx`]. Zero on
    /// identical reference environments and on warm starts, which
    /// stitch nothing; small when shard-local menus drift from the
    /// global ones.
    pub remap_misses: usize,
}

/// Stitched output of one shard task.
struct TaskOut {
    shard: usize,
    global_plans: Vec<usize>,
    global_placement: Vec<usize>,
    misses: usize,
    solve: ShardSolve,
}

/// Fill a shard from the global initial heuristic without building its
/// evaluator — the degraded path once the wall deadline has passed.
fn fallback_task(ev: &Evaluator, shard_idx: usize, shard: &Shard) -> TaskOut {
    let mut global_plans = Vec::with_capacity(shard.streams.len());
    let mut global_placement = Vec::with_capacity(shard.streams.len());
    for (j, &k) in shard.streams.iter().enumerate() {
        global_plans.push(optimizer::cheap_plan(ev, k));
        global_placement.push(if shard.servers.is_empty() {
            0
        } else {
            shard.servers[j % shard.servers.len()]
        });
    }
    TaskOut {
        shard: shard_idx,
        global_plans,
        global_placement,
        misses: 0,
        solve: ShardSolve {
            shard: shard_idx,
            streams: shard.streams.len(),
            fallback: true,
            converged: false,
            evaluations: 0,
            objective: None,
            assignment: None,
        },
    }
}

/// Budget slice + shard handle for one parallel task.
struct Task<'p> {
    shard_idx: usize,
    shard: &'p Shard,
    wall: Option<Duration>,
    evals: Option<usize>,
}

/// Solve one shard under its budget slice and stitch the result back to
/// global indices.
fn run_shard_task(
    problem: &JointProblem,
    ev: &Evaluator,
    cfg: &ShardConfig,
    t: &Task<'_>,
    deadline: Option<Instant>,
) -> Result<TaskOut, ProblemError> {
    if let Some(d) = deadline {
        if Instant::now() >= d {
            return Ok(fallback_task(ev, t.shard_idx, t.shard));
        }
    }
    let sub = extract(problem, t.shard);
    let sub_ev = Evaluator::try_new(&sub, cfg.menu.clone())?;
    let wall = match (t.wall, deadline) {
        (Some(w), Some(d)) => Some(w.min(d.saturating_duration_since(Instant::now()))),
        (w, _) => w,
    };
    let slice = Budget {
        wall_time: wall,
        max_evals: t.evals,
    };
    let mut local_opt = cfg.opt.clone();
    if let Some(d) = &cfg.opt.diversity {
        // Same fractional caps against the shard's own fleet, domain ids
        // remapped to the shard's server subset. Each shard bounding its
        // own fraction composes conservatively after stitching
        // (Σ⌊f·nᵢ⌋ ≤ ⌊f·Σnᵢ⌋ per server / AP / domain).
        local_opt.diversity = Some(d.for_servers(&t.shard.servers));
    }
    let out = optimizer::solve_with_budget(&sub_ev, &local_opt, slice);
    let mut global_plans = Vec::with_capacity(t.shard.streams.len());
    let mut global_placement = Vec::with_capacity(t.shard.streams.len());
    let mut misses = 0usize;
    for (j, &k) in t.shard.streams.iter().enumerate() {
        let local = &sub_ev.menu(j)[out.solution.assignment.plan_idx[j]].plan;
        let gmenu = ev.menu(k);
        let gi = match gmenu.iter().position(|p| p.plan == *local) {
            Some(i) => i,
            None => {
                misses += 1;
                online::closest_idx(gmenu, local)
            }
        };
        global_plans.push(gi);
        let lp = out.solution.assignment.placement[j];
        global_placement.push(if t.shard.servers.is_empty() {
            0
        } else {
            t.shard.servers[lp.min(t.shard.servers.len() - 1)]
        });
    }
    Ok(TaskOut {
        shard: t.shard_idx,
        global_plans,
        global_placement,
        misses,
        solve: ShardSolve {
            shard: t.shard_idx,
            streams: t.shard.streams.len(),
            fallback: false,
            converged: out.converged,
            evaluations: out.spent.evaluations,
            objective: Some(out.solution.result.objective),
            assignment: Some(out.solution.assignment),
        },
    })
}

/// Sharded solve with the evaluator built here from `cfg.menu`. See the
/// module docs for the pipeline; [`solve_sharded_with`] is the entry for
/// callers that already hold the global evaluator (online replans, the
/// chaos harness's wall-budget path).
pub fn solve_sharded(
    problem: &JointProblem,
    cfg: &ShardConfig,
    budget: Budget,
) -> Result<ShardedOutcome, ProblemError> {
    let ev = Evaluator::try_new(problem, cfg.menu.clone())?;
    solve_sharded_with(problem, &ev, cfg, budget, None)
}

/// Global descent rounds of the polish.
const POLISH_ROUNDS: usize = 2;

/// What the phases before the polish leave behind.
struct Prelude {
    /// The point the polish descends from.
    start: Assignment,
    /// Objectives and evaluations spent so far.
    trace: SearchTrace,
    /// Incumbent race so far: the best objective and its assignment.
    best_obj: f64,
    best_asg: Assignment,
    shards: Vec<ShardSolve>,
    reconcile: ReconcileReport,
    remap_misses: usize,
    /// Every shard solve finished within its slice, none fell back, and
    /// no budget cut the reconciliation.
    converged: bool,
}

/// One report per shard with no work done: what empty shards report on
/// a cold solve, and every shard on a warm one.
fn idle_reports(plan: &ShardPlan) -> Vec<ShardSolve> {
    plan.shards
        .iter()
        .enumerate()
        .map(|(i, s)| ShardSolve {
            shard: i,
            streams: s.streams.len(),
            fallback: false,
            converged: true,
            evaluations: 0,
            objective: None,
            assignment: None,
        })
        .collect()
}

/// Steps 2–4 of a cold solve: solve the shards in parallel, stitch their
/// solutions and reconcile cross-shard placements. The polish starts from
/// the reconciled point.
fn shard_phases(
    problem: &JointProblem,
    ev: &Evaluator,
    cfg: &ShardConfig,
    plan: &ShardPlan,
    budget: Budget,
    deadline: Option<Instant>,
) -> Result<Prelude, ProblemError> {
    let n = problem.streams.len();
    // --- Proportional budget slices (80% for shard solves, the rest for
    // reconciliation + polish). Each wall slice is additionally capped by
    // the remaining time at task start, so sequential execution cannot
    // pile slices past the deadline.
    let tasks: Vec<Task<'_>> = plan
        .shards
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.streams.is_empty())
        .map(|(i, s)| {
            let frac = s.streams.len() as f64 / n.max(1) as f64;
            Task {
                shard_idx: i,
                shard: s,
                wall: budget
                    .wall_time
                    .map(|w| Duration::from_secs_f64(w.as_secs_f64() * 0.8 * frac)),
                evals: budget
                    .max_evals
                    .map(|m| ((m as f64 * 0.8 * frac) as usize).max(1)),
            }
        })
        .collect();
    let outs: Result<Vec<TaskOut>, ProblemError> = tasks
        .par_iter()
        .map(|t| run_shard_task(problem, ev, cfg, t, deadline))
        .collect();
    let outs = outs?;

    // --- Stitch into one global assignment.
    let mut plan_idx = vec![0usize; n];
    let mut placement = vec![0usize; n];
    let mut remap_misses = 0usize;
    let mut shard_evals = 0usize;
    let mut shards = idle_reports(plan);
    let mut any_fallback = false;
    let mut all_shards_converged = true;
    for out in outs {
        let s = &plan.shards[out.shard];
        for (j, &k) in s.streams.iter().enumerate() {
            plan_idx[k] = out.global_plans[j];
            placement[k] = out.global_placement[j];
        }
        remap_misses += out.misses;
        shard_evals += out.solve.evaluations;
        any_fallback |= out.solve.fallback;
        all_shards_converged &= out.solve.converged;
        shards[out.shard] = out.solve;
    }

    let mut ctx = EvalContext::with_diversity(
        ev,
        Assignment {
            plan_idx,
            placement,
        },
        cfg.opt.policies,
        cfg.opt.diversity.clone(),
    );
    let mut trace = SearchTrace {
        objective: vec![ctx.objective()],
        evaluations: shard_evals + 1,
    };
    let mut best_obj = ctx.objective();
    let mut best_asg = ctx.assignment();

    // --- Cross-shard reconciliation.
    let groups: Vec<Vec<usize>> = plan
        .shards
        .iter()
        .map(|s| s.servers.clone())
        .filter(|g| !g.is_empty())
        .collect();
    let reconcile = reconcile_placement(
        &mut ctx,
        &groups,
        None,
        &cfg.reconcile,
        deadline,
        budget.max_evals,
        &mut trace,
    );
    if ctx.objective() < best_obj {
        best_obj = ctx.objective();
        best_asg = ctx.assignment();
    }
    Ok(Prelude {
        start: ctx.assignment(),
        trace,
        best_obj,
        best_asg,
        shards,
        // Reconciliation stopping at its round cap is the configured
        // amount of work (bounded termination), not a cut.
        converged: all_shards_converged && !any_fallback && !reconcile.cut,
        reconcile,
        remap_misses,
    })
}

/// Sharded solve against a prebuilt global evaluator, optionally
/// warm-started from a previous global assignment. A cold solve
/// (`warm = None`) runs the whole pipeline of the module docs. A warm
/// start is already a consistent global placement, so the shard, stitch
/// and reconcile steps are skipped: the warm point is priced, joins the
/// incumbent race, and the polish descends from it with the whole
/// remaining budget. The result is never worse than the warm point, and
/// the shard and reconcile reports record no work.
pub fn solve_sharded_with(
    problem: &JointProblem,
    ev: &Evaluator,
    cfg: &ShardConfig,
    budget: Budget,
    warm: Option<&Assignment>,
) -> Result<ShardedOutcome, ProblemError> {
    let started = Instant::now();
    let deadline = budget.wall_time.map(|w| started + w);
    if let Some(d) = &cfg.opt.diversity {
        crate::validate::validate_diversity(d, problem.cluster.servers.len())?;
    }
    let plan = partition(problem, cfg)?;
    let policies = cfg.opt.policies;
    let Prelude {
        start,
        mut trace,
        mut best_obj,
        mut best_asg,
        shards,
        reconcile,
        remap_misses,
        converged: prelude_converged,
    } = match warm {
        Some(w) => {
            // Price the warm point on the same penalized scale the race
            // runs on, or a cap-violating incumbent would win unopposed.
            let wr = optimizer::priced(ev, policies, &cfg.opt.diversity, w);
            Prelude {
                start: w.clone(),
                trace: SearchTrace {
                    objective: vec![wr.objective],
                    evaluations: 1,
                },
                best_obj: wr.objective,
                best_asg: w.clone(),
                shards: idle_reports(&plan),
                reconcile: ReconcileReport {
                    rounds: 0,
                    moves: 0,
                    probes: 0,
                    converged: false,
                    cut: false,
                },
                remap_misses: 0,
                converged: true,
            }
        }
        None => shard_phases(problem, ev, cfg, &plan, budget, deadline)?,
    };

    // --- Global polish (`POLISH_ROUNDS` of descent).
    let evals_left = budget
        .max_evals
        .map(|m| m.saturating_sub(trace.evaluations));
    let wall_left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
    let mut polish_converged = false;
    if evals_left != Some(0) && wall_left != Some(Duration::ZERO) {
        let mut pcfg = cfg.opt.clone();
        pcfg.rounds = POLISH_ROUNDS;
        let d = optimizer::descent_from_with_budget(
            ev,
            &pcfg,
            start,
            Budget {
                wall_time: wall_left,
                max_evals: evals_left,
            },
        );
        polish_converged = d.converged;
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
        // The race can still adopt an over-cap point (a cap-violating warm
        // start, or a shard cut to fallback mid-solve); one final repair
        // restores the hard guarantee before the result leaves the solver.
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
    // Anytime contract: `converged == false` means the budget truncated
    // the pipeline somewhere.
    let converged = prelude_converged && polish_converged;
    Ok(ShardedOutcome {
        outcome: SolveOutcome {
            solution: Solution {
                assignment: best_asg,
                result,
                trace,
            },
            converged,
            spent,
        },
        plan,
        shards,
        reconcile,
        remap_misses,
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

    #[test]
    fn sharded_solve_runs_and_is_deterministic() {
        let p = scenario(4, 4);
        let cfg = ShardConfig {
            max_streams: 8,
            opt: OptimizerConfig {
                rounds: 2,
                gibbs_iters: 20,
                ..OptimizerConfig::default()
            },
            ..ShardConfig::default()
        };
        let a = solve_sharded(&p, &cfg, Budget::UNLIMITED).expect("solves");
        let b = solve_sharded(&p, &cfg, Budget::UNLIMITED).expect("solves");
        assert!(a.outcome.solution.result.objective.is_finite());
        assert!(a.outcome.converged);
        assert_eq!(
            a.outcome.solution.result.objective.to_bits(),
            b.outcome.solution.result.objective.to_bits()
        );
        assert_eq!(a.outcome.solution.assignment, b.outcome.solution.assignment);
        assert_eq!(
            a.outcome.solution.trace.evaluations,
            b.outcome.solution.trace.evaluations
        );
    }

    #[test]
    fn sharded_never_worse_than_its_stitched_start() {
        let p = scenario(4, 6);
        let cfg = ShardConfig {
            max_streams: 6,
            ..ShardConfig::default()
        };
        let out = solve_sharded(&p, &cfg, Budget::UNLIMITED).expect("solves");
        // The first trace entry is the stitched objective; the adopted
        // incumbent can only improve on it.
        let stitched = out.outcome.solution.trace.objective[0];
        assert!(
            out.outcome.solution.result.objective <= stitched + 1e-12,
            "final {} worse than stitched {stitched}",
            out.outcome.solution.result.objective
        );
    }
}
