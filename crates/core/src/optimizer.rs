//! The joint search: coordinate descent + Gibbs sampling (Markov
//! approximation) over the per-stream plan menus, with the inner resource
//! allocation re-solved exactly at every step, plus an exhaustive
//! reference for small instances (F9's optimality-gap measurement).
//!
//! All three searches run over an evaluation `Engine` with two
//! interchangeable backends: the classic full re-evaluation per probe,
//! and the incremental [`EvalContext`] that re-solves only the resource
//! groups a single-coordinate move dirties. Both produce bit-identical
//! objective traces (the incremental caches are a pure function of the
//! assignment — see `eval_context`), so [`EvalMode`] is purely a
//! performance knob; the parity is enforced by property tests.

use crate::diversity::{self, DiversityConfig};
use crate::eval_context::{EvalContext, DESCENT_TOL};
use crate::evaluator::{AllocPolicies, Assignment, EvalResult, Evaluator};
use scalpel_alloc::placement::{self, PlacementStrategy, PlacementStream, ServerCap};
use scalpel_sim::SimRng;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Which evaluation backend the search probes moves with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EvalMode {
    /// Re-price the whole configuration from scratch on every probe
    /// (the reference path; O(N) group solves per move).
    Full,
    /// Delta evaluation over cached group state: only the device queue,
    /// servers and APs a move touches are re-solved. Bit-identical
    /// objectives, large constant-factor speedup.
    #[default]
    Incremental,
}

/// Search knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// Maximum coordinate-descent rounds.
    pub rounds: usize,
    /// Gibbs-sampling refinement iterations after descent.
    pub gibbs_iters: usize,
    /// Allocation policies used while pricing.
    pub policies: AllocPolicies,
    /// Placement strategy re-run whenever plans change.
    pub placement: PlacementStrategy,
    /// Evaluation backend (trace-equivalent; Incremental is faster).
    pub eval_mode: EvalMode,
    /// Diversity-bounded placement: when set, the searches start from a
    /// repaired assignment, only adopt moves that stay within the
    /// concentration caps, and price any residual excess into the
    /// objective. `None` (the default) leaves every historical trace
    /// bit-identical.
    #[serde(default)]
    pub diversity: Option<DiversityConfig>,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self {
            rounds: 6,
            gibbs_iters: 200,
            policies: AllocPolicies::optimal(),
            placement: PlacementStrategy::BestResponse,
            eval_mode: EvalMode::default(),
            diversity: None,
        }
    }
}

/// Objective values recorded during the search (one per accepted step).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SearchTrace {
    /// Best-so-far objective after each improvement / Gibbs iteration.
    pub objective: Vec<f64>,
    /// Total configuration evaluations performed.
    pub evaluations: usize,
}

/// A complete joint solution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Solution {
    /// Chosen plans and placement.
    pub assignment: Assignment,
    /// Its analytic pricing.
    pub result: EvalResult,
    /// Search trajectory.
    pub trace: SearchTrace,
}

/// Resource limits for an anytime solve. `None` means unlimited on that
/// axis; [`Budget::UNLIMITED`] makes [`solve_with_budget`] behave exactly
/// like [`solve`] (bit-identical trace — no clock is consulted on the
/// unlimited path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock limit for the whole solve.
    pub wall_time: Option<Duration>,
    /// Cap on configuration evaluations (as counted by `SearchTrace`).
    pub max_evals: Option<usize>,
}

impl Budget {
    /// No limits at all.
    pub const UNLIMITED: Budget = Budget {
        wall_time: None,
        max_evals: None,
    };

    /// An evaluation-count-only budget.
    pub fn evals(limit: usize) -> Self {
        Budget {
            wall_time: None,
            max_evals: Some(limit),
        }
    }
}

/// What an anytime solve actually consumed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BudgetSpent {
    /// Configuration evaluations performed.
    pub evaluations: usize,
    /// Wall-clock seconds elapsed.
    pub wall_s: f64,
}

/// Result of an anytime solve: the best configuration found, whether the
/// search ran to its natural end (`converged`) or was cut off by the
/// budget, and what it spent. The solution is always valid and complete —
/// an exhausted budget degrades quality, never well-formedness.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolveOutcome {
    /// Best-so-far solution at the point the search stopped.
    pub solution: Solution,
    /// `true` iff the search finished without hitting the budget.
    pub converged: bool,
    /// Evaluations and wall time consumed.
    pub spent: BudgetSpent,
}

/// Internal budget bookkeeping threaded through the search loops. A
/// tracker over [`Budget::UNLIMITED`] never consults the clock and always
/// answers `false`, so an unbudgeted search is a pure function of its
/// inputs.
struct BudgetTracker {
    deadline: Option<Instant>,
    max_evals: Option<usize>,
    exhausted: bool,
}

impl BudgetTracker {
    fn new(budget: Budget) -> Self {
        BudgetTracker {
            deadline: budget.wall_time.map(|d| Instant::now() + d),
            max_evals: budget.max_evals,
            exhausted: false,
        }
    }

    /// Whether the budget is spent, given `evals` evaluations so far.
    /// Sticky: once exhausted, stays exhausted.
    fn check(&mut self, evals: usize) -> bool {
        if self.exhausted {
            return true;
        }
        if let Some(max) = self.max_evals {
            if evals >= max {
                self.exhausted = true;
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.exhausted = true;
                return true;
            }
        }
        false
    }

    fn is_exhausted(&self) -> bool {
        self.exhausted
    }
}

/// The evaluation backend behind the search loops. `Full` re-prices the
/// entire configuration per probe; `Incremental` patches cached state.
/// Both expose the same operations with bit-identical objectives, so the
/// search code is written once against this enum.
// One Engine exists per search, so the variant size gap is irrelevant.
#[allow(clippy::large_enum_variant)]
enum Engine<'a> {
    Full {
        ev: &'a Evaluator,
        policies: AllocPolicies,
        asg: Assignment,
        current: EvalResult,
        div: Option<DiversityConfig>,
    },
    Incremental(Box<EvalContext<'a>>),
}

/// Full-path pricing with the diversity penalty folded in — the same
/// `weight × integer-excess` add the incremental context applies after
/// its pooled division, so both backends stay bit-identical.
pub(crate) fn priced(
    ev: &Evaluator,
    policies: AllocPolicies,
    div: &Option<DiversityConfig>,
    asg: &Assignment,
) -> EvalResult {
    let mut r = ev.evaluate(asg, policies);
    if let Some(d) = div {
        r.objective += diversity::penalty(diversity::assignment_excess(ev, asg, d));
    }
    r
}

impl<'a> Engine<'a> {
    /// Build the backend for `cfg.eval_mode`, pricing `asg` once.
    fn new(ev: &'a Evaluator, cfg: &OptimizerConfig, asg: Assignment) -> Self {
        match cfg.eval_mode {
            EvalMode::Full => {
                let current = priced(ev, cfg.policies, &cfg.diversity, &asg);
                Engine::Full {
                    ev,
                    policies: cfg.policies,
                    asg,
                    current,
                    div: cfg.diversity.clone(),
                }
            }
            EvalMode::Incremental => Engine::Incremental(Box::new(EvalContext::with_diversity(
                ev,
                asg,
                cfg.policies,
                cfg.diversity.clone(),
            ))),
        }
    }

    /// Whether adopting plan `idx` for stream `k` keeps the concentration
    /// caps (always true without a diversity config).
    fn plan_allowed(&self, k: usize, idx: usize) -> bool {
        match self {
            Engine::Full { ev, asg, div, .. } => div
                .as_ref()
                .is_none_or(|d| diversity::plan_flip_within_caps(ev, asg, d, k, idx)),
            Engine::Incremental(ctx) => ctx.plan_within_caps(k, idx),
        }
    }

    fn objective(&self) -> f64 {
        match self {
            Engine::Full { current, .. } => current.objective,
            Engine::Incremental(ctx) => ctx.objective(),
        }
    }

    fn plan_of(&self, k: usize) -> usize {
        match self {
            Engine::Full { asg, .. } => asg.plan_idx[k],
            Engine::Incremental(ctx) => ctx.plan_of(k),
        }
    }

    fn plan_indices(&self) -> &[usize] {
        match self {
            Engine::Full { asg, .. } => &asg.plan_idx,
            Engine::Incremental(ctx) => ctx.plan_indices(),
        }
    }

    fn placement(&self) -> &[usize] {
        match self {
            Engine::Full { asg, .. } => &asg.placement,
            Engine::Incremental(ctx) => ctx.placement(),
        }
    }

    fn assignment(&self) -> Assignment {
        match self {
            Engine::Full { asg, .. } => asg.clone(),
            Engine::Incremental(ctx) => ctx.assignment(),
        }
    }

    /// Objective for every plan in stream `k`'s menu, current state
    /// otherwise unchanged. Entry `plan_of(k)` is the cached objective
    /// (no evaluation spent); the caller accounts `menu_len - 1` probes.
    fn score_menu(&mut self, k: usize) -> Vec<f64> {
        match self {
            Engine::Full {
                ev,
                policies,
                asg,
                current,
                div,
            } => {
                let cur = asg.plan_idx[k];
                let mut probe = asg.clone();
                (0..ev.menu(k).len())
                    .map(|idx| {
                        if idx == cur {
                            current.objective
                        } else {
                            probe.plan_idx[k] = idx;
                            priced(ev, *policies, div, &probe).objective
                        }
                    })
                    .collect()
            }
            Engine::Incremental(ctx) => ctx.score_menu(k),
        }
    }

    /// The plan a descent step adopts for stream `k`: scanning the menu
    /// in order from the current objective, each plan within the caps
    /// whose objective beats the running best by more than
    /// [`DESCENT_TOL`] becomes the best; the current plan stands when
    /// none does. `Full` prices every plan, the oracle; `Incremental`
    /// prices exactly only the plans its lower bound cannot rule out and
    /// picks the same index.
    fn descent_pick(&mut self, k: usize) -> usize {
        match self {
            Engine::Full { .. } => {
                let current = self.plan_of(k);
                let mut best_idx = current;
                let mut best_obj = self.objective();
                for (idx, &o) in self.score_menu(k).iter().enumerate() {
                    if idx == current || !self.plan_allowed(k, idx) {
                        continue;
                    }
                    if o < best_obj - DESCENT_TOL {
                        best_obj = o;
                        best_idx = idx;
                    }
                }
                best_idx
            }
            Engine::Incremental(ctx) => ctx.descent_pick(k),
        }
    }

    /// Adopt plan `idx` for stream `k`; returns the new objective.
    fn commit_plan(&mut self, k: usize, idx: usize) -> f64 {
        match self {
            Engine::Full {
                ev,
                policies,
                asg,
                current,
                div,
            } => {
                asg.plan_idx[k] = idx;
                *current = priced(ev, *policies, div, asg);
                current.objective
            }
            Engine::Incremental(ctx) => ctx.commit_plan(k, idx),
        }
    }

    /// Adopt a whole placement vector; returns the new objective.
    fn set_placement(&mut self, new_placement: &[usize]) -> f64 {
        match self {
            Engine::Full {
                ev,
                policies,
                asg,
                current,
                div,
            } => {
                if asg.placement == new_placement {
                    return current.objective;
                }
                asg.placement.copy_from_slice(new_placement);
                *current = priced(ev, *policies, div, asg);
                current.objective
            }
            Engine::Incremental(ctx) => ctx.set_placement(new_placement),
        }
    }

    /// Adopt a whole assignment; returns the new objective.
    fn reconfigure(&mut self, plan_idx: &[usize], placement: &[usize]) -> f64 {
        match self {
            Engine::Full {
                ev,
                policies,
                asg,
                current,
                div,
            } => {
                asg.plan_idx.copy_from_slice(plan_idx);
                asg.placement.copy_from_slice(placement);
                *current = priced(ev, *policies, div, asg);
                current.objective
            }
            Engine::Incremental(ctx) => ctx.reconfigure(plan_idx, placement),
        }
    }

    /// Pricing of the current state.
    fn result(&self) -> EvalResult {
        match self {
            Engine::Full { current, .. } => current.clone(),
            Engine::Incremental(ctx) => ctx.result(),
        }
    }

    /// Pricing of an arbitrary assignment (moves the engine there; used
    /// only to materialize the final [`Solution`], never counted as a
    /// search evaluation — both backends derive it identically).
    fn result_for(&mut self, asg: &Assignment) -> EvalResult {
        self.reconfigure(&asg.plan_idx, &asg.placement);
        self.result()
    }
}

/// [`placement_for`], then — only when a diversity config is active —
/// deterministically repaired back inside the concentration caps. With
/// `diversity: None` this is exactly `placement_for` (same bits).
fn capped_placement(
    ev: &Evaluator,
    cfg: &OptimizerConfig,
    plan_idx: &[usize],
    strategy: PlacementStrategy,
) -> Vec<usize> {
    let placement = placement_for(ev, plan_idx, strategy);
    match &cfg.diversity {
        Some(d) => {
            let mut asg = Assignment {
                plan_idx: plan_idx.to_vec(),
                placement,
            };
            diversity::repair(ev, &mut asg, d);
            asg.placement
        }
        None => placement,
    }
}

/// Placement for a fixed plan selection: streams weighted by their
/// expected edge load, servers by capacity.
pub fn placement_for(
    ev: &Evaluator,
    plan_idx: &[usize],
    strategy: PlacementStrategy,
) -> Vec<usize> {
    let streams: Vec<PlacementStream> = (0..ev.num_streams())
        .map(|k| {
            let p = &ev.menu(k)[plan_idx[k]];
            PlacementStream {
                stream: k,
                edge_flops: p.remain * p.edge_flops,
                weight: ev.rate(k),
            }
        })
        .collect();
    let servers: Vec<ServerCap> = ev
        .server_caps()
        .iter()
        .enumerate()
        .map(|(server, &capacity_fps)| ServerCap {
            server,
            capacity_fps,
        })
        .collect();
    placement::place(&streams, &servers, strategy)
}

/// The cheap per-stream plan heuristic: the menu index with the lowest
/// reference expected latency proxy for stream `k`.
fn cheap_plan(ev: &Evaluator, k: usize) -> usize {
    let menu = ev.menu(k);
    (0..menu.len())
        .min_by(|&a, &b| {
            let score = |i: usize| {
                let p = &menu[i];
                p.exp_dev + p.remain * (ev.tx_full_seconds(k, p) * 4.0 + 1e-3)
            };
            score(a).total_cmp(&score(b))
        })
        // Validation guarantees non-empty menus; an empty one can only mean
        // the caller bypassed ingest, so fall back to 0 rather than abort
        // mid-solve.
        .unwrap_or(0)
}

/// A reasonable starting point: per stream, the plan with the lowest
/// reference expected latency proxy; placement by the chosen strategy.
pub fn initial_assignment(ev: &Evaluator, strategy: PlacementStrategy) -> Assignment {
    let plan_idx: Vec<usize> = (0..ev.num_streams()).map(|k| cheap_plan(ev, k)).collect();
    let placement = placement_for(ev, &plan_idx, strategy);
    Assignment {
        plan_idx,
        placement,
    }
}

/// Greedy coordinate descent from `start` under a budget: sweep streams,
/// trying every plan in each stream's menu (re-solving allocation each
/// time), until a full round yields no improvement or the budget runs
/// out, and report what it spent. Used by the online controller so
/// replanning under churn degrades to the (remapped) incumbent instead of
/// blocking, and by the convergence experiment to show descent from a
/// naive configuration.
pub fn descent_from_with_budget(
    ev: &Evaluator,
    cfg: &OptimizerConfig,
    start: Assignment,
    budget: Budget,
) -> SolveOutcome {
    let started = Instant::now();
    let mut tracker = BudgetTracker::new(budget);
    let solution = descent_impl(ev, cfg, start, &mut tracker);
    let spent = BudgetSpent {
        evaluations: solution.trace.evaluations,
        wall_s: started.elapsed().as_secs_f64(),
    };
    SolveOutcome {
        converged: !tracker.is_exhausted(),
        solution,
        spent,
    }
}

/// Budget-aware descent body. With the unlimited tracker every branch the
/// tracker guards is dead, so the walk — and its trace — is bit-identical
/// to the historical unbudgeted implementation. A step commits a plan
/// only when it lowers the objective, but each round's re-placement is
/// adopted whenever it differs from the current placement, even when it
/// raises the objective. When the budget runs out mid-round the engine's
/// current configuration, the last one committed, is returned as a
/// complete, valid solution; it need not be the best one visited.
fn descent_impl(
    ev: &Evaluator,
    cfg: &OptimizerConfig,
    start: Assignment,
    tracker: &mut BudgetTracker,
) -> Solution {
    let mut start = start;
    if let Some(d) = &cfg.diversity {
        // A capped start makes every subsequent state capped by induction:
        // plan flips are filtered below and placements are re-repaired.
        diversity::repair(ev, &mut start, d);
    }
    let mut eng = Engine::new(ev, cfg, start);
    let mut trace = SearchTrace::default();
    trace.evaluations += 1;
    trace.objective.push(eng.objective());
    'rounds: for _ in 0..cfg.rounds {
        let mut improved = false;
        for k in 0..ev.num_streams() {
            if tracker.check(trace.evaluations) {
                break 'rounds;
            }
            let current = eng.plan_of(k);
            let best_idx = eng.descent_pick(k);
            // The step counts every other plan of the menu as probed,
            // however many the pick priced exactly.
            trace.evaluations += ev.menu(k).len() - 1;
            // Adopt the chosen plan. A plan that stood keeps the cached
            // objective, the bits a re-pricing would give; the step still
            // counts one evaluation, so budget cut points do not move.
            let obj = if best_idx != current {
                improved = true;
                eng.commit_plan(k, best_idx)
            } else {
                eng.objective()
            };
            trace.evaluations += 1;
            trace.objective.push(obj);
        }
        // Re-place with the new plan demands.
        let new_placement = capped_placement(ev, cfg, eng.plan_indices(), cfg.placement);
        if new_placement != eng.placement() {
            let pre = eng.objective();
            let obj = eng.set_placement(&new_placement);
            trace.evaluations += 1;
            if obj < pre {
                improved = true;
            }
            trace.objective.push(obj);
        }
        if !improved {
            break;
        }
    }
    Solution {
        assignment: eng.assignment(),
        result: eng.result(),
        trace,
    }
}

/// Gibbs-sampling refinement (Markov approximation) under a budget:
/// resample one stream's plan from the Boltzmann distribution of the
/// objective, annealing the temperature, and return the best
/// configuration visited. The budget is *relative* to the start: the
/// chain may spend up to `budget.max_evals` evaluations and
/// `budget.wall_time` on top of whatever `start.trace` already records.
/// `spent` counts only the refinement's own evaluations. Under
/// [`Budget::UNLIMITED`] the clock is never consulted.
pub fn refine_from_with_budget(
    ev: &Evaluator,
    cfg: &OptimizerConfig,
    start: Solution,
    budget: Budget,
) -> SolveOutcome {
    let started = Instant::now();
    let base_evals = start.trace.evaluations;
    let mut tracker = BudgetTracker::new(Budget {
        wall_time: budget.wall_time,
        max_evals: budget.max_evals.map(|m| m.saturating_add(base_evals)),
    });
    let solution = gibbs_impl(ev, cfg, start, &mut tracker);
    let spent = BudgetSpent {
        evaluations: solution.trace.evaluations.saturating_sub(base_evals),
        wall_s: started.elapsed().as_secs_f64(),
    };
    SolveOutcome {
        converged: !tracker.is_exhausted(),
        solution,
        spent,
    }
}

/// Initial Boltzmann temperature of the Gibbs chain (objective units).
const INIT_TEMPERATURE: f64 = 0.5;
/// Multiplicative cooling per Gibbs iteration.
const COOLING: f64 = 0.985;

/// RNG seed of the Gibbs chain.
const GIBBS_SEED: u64 = 11;

/// Budget-aware Gibbs body; see [`descent_impl`] for the parity argument.
/// The chain tracks its best-visited assignment separately, so a budget
/// cut simply materializes the incumbent early.
fn gibbs_impl(
    ev: &Evaluator,
    cfg: &OptimizerConfig,
    start: Solution,
    tracker: &mut BudgetTracker,
) -> Solution {
    let mut rng = SimRng::new(GIBBS_SEED, 4242);
    let mut trace = start.trace.clone();
    let mut start = start;
    if let Some(d) = &cfg.diversity {
        // Warm starts arrive from arbitrary callers; re-anchor inside the
        // caps so the chain's induction holds (no-op on capped starts).
        diversity::repair(ev, &mut start.assignment, d);
    }
    // Rebuilding the start state is not counted: the search inherits the
    // already-priced descent result.
    let mut eng = Engine::new(ev, cfg, start.assignment.clone());
    let mut best_asg = start.assignment;
    let mut best_obj = eng.objective();
    let mut temp = INIT_TEMPERATURE;
    for it in 0..cfg.gibbs_iters {
        if tracker.check(trace.evaluations) {
            break;
        }
        let k = rng.index(ev.num_streams());
        let menu_len = ev.menu(k).len();
        if menu_len <= 1 {
            continue;
        }
        // Price every plan of stream k in the current context.
        let objs = eng.score_menu(k);
        trace.evaluations += menu_len - 1;
        // Boltzmann sample.
        let min_obj = objs.iter().cloned().fold(f64::INFINITY, f64::min);
        let weights: Vec<f64> = objs
            .iter()
            .enumerate()
            .map(|(i, &o)| {
                // Cap-violating plans get zero mass (the current plan is
                // always allowed, so the distribution never degenerates).
                if !eng.plan_allowed(k, i) {
                    return 0.0;
                }
                (-(o - min_obj) / temp.max(1e-9)).exp()
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let mut u = rng.open01() * total;
        let mut chosen = menu_len - 1;
        for (i, &w) in weights.iter().enumerate() {
            if u < w {
                chosen = i;
                break;
            }
            u -= w;
        }
        if !eng.plan_allowed(k, chosen) {
            // Floating-point tail landed on a zero-weight entry; stand pat.
            chosen = eng.plan_of(k);
        }
        // Committing the sampled plan reuses the trial's pricing (the
        // cached state is a pure function of the assignment), so it is
        // not another evaluation.
        let obj = eng.commit_plan(k, chosen);
        if obj < best_obj {
            best_obj = obj;
            best_asg = eng.assignment();
        }
        trace.objective.push(best_obj);
        temp *= COOLING;
        // Periodically re-run placement.
        if it % 50 == 49 {
            let np = capped_placement(ev, cfg, eng.plan_indices(), cfg.placement);
            if np != eng.placement() {
                let obj = eng.set_placement(&np);
                trace.evaluations += 1;
                if obj < best_obj {
                    best_obj = obj;
                    best_asg = eng.assignment();
                }
            }
        }
    }
    let result = eng.result_for(&best_asg);
    Solution {
        assignment: best_asg,
        result,
        trace,
    }
}

/// The full joint algorithm, unbudgeted: descent, then annealed Gibbs
/// refinement.
pub fn solve(ev: &Evaluator, cfg: &OptimizerConfig) -> Solution {
    solve_with_budget(ev, cfg, Budget::UNLIMITED).solution
}

/// Anytime variant of [`solve`]: runs descent then Gibbs under `budget`,
/// checkpointing best-so-far, and returns the incumbent with a
/// convergence flag instead of running unbounded. The budget is checked
/// between per-stream steps, so the wall-clock overshoot is bounded by
/// one menu scan.
pub fn solve_with_budget(ev: &Evaluator, cfg: &OptimizerConfig, budget: Budget) -> SolveOutcome {
    let started = Instant::now();
    let mut tracker = BudgetTracker::new(budget);
    let start = initial_assignment(ev, cfg.placement);
    let descended = descent_impl(ev, cfg, start, &mut tracker);
    let solution = if cfg.gibbs_iters == 0 || tracker.is_exhausted() {
        descended
    } else {
        gibbs_impl(ev, cfg, descended, &mut tracker)
    };
    let spent = BudgetSpent {
        evaluations: solution.trace.evaluations,
        wall_s: started.elapsed().as_secs_f64(),
    };
    SolveOutcome {
        converged: !tracker.is_exhausted(),
        solution,
        spent,
    }
}

/// Size of the full plan product space.
fn combo_count(ev: &Evaluator) -> u64 {
    let mut combos: u64 = 1;
    for k in 0..ev.num_streams() {
        combos = combos.saturating_mul(ev.menu(k).len() as u64);
    }
    combos
}

/// Exhaustive search over the full plan product space (placement re-solved
/// per combination), refusing with `None` when the space exceeds `limit`
/// combinations.
pub fn try_exhaustive(ev: &Evaluator, cfg: &OptimizerConfig, limit: u64) -> Option<Solution> {
    if combo_count(ev) > limit {
        return None;
    }
    let n = ev.num_streams();
    let mut idx = vec![0usize; n];
    let mut trace = SearchTrace::default();
    // Evaluate the all-zeros combination first so the engine and incumbent
    // exist unconditionally for the rest of the sweep.
    let placement = capped_placement(ev, cfg, &idx, cfg.placement);
    let mut eng = Engine::new(
        ev,
        cfg,
        Assignment {
            plan_idx: idx.clone(),
            placement,
        },
    );
    trace.evaluations += 1;
    let mut best_obj = eng.objective();
    let mut best_asg = eng.assignment();
    // Best cap-respecting combination, tracked separately: the reference
    // answer for diversity-bounded runs is the best *feasible* point, with
    // the overall incumbent as fallback when the caps admit nothing.
    let mut best_feasible: Option<(f64, Assignment)> = None;
    let note_feasible = |obj: f64, asg: &Assignment, feas: &mut Option<(f64, Assignment)>| {
        if let Some(d) = &cfg.diversity {
            if diversity::assignment_excess(ev, asg, d) == 0
                && feas.as_ref().is_none_or(|(b, _)| obj < *b)
            {
                *feas = Some((obj, asg.clone()));
            }
        }
    };
    note_feasible(best_obj, &best_asg, &mut best_feasible);
    trace.objective.push(best_obj);
    'sweep: loop {
        // Odometer increment.
        let mut pos = 0;
        loop {
            if pos == n {
                break 'sweep;
            }
            idx[pos] += 1;
            if idx[pos] < ev.menu(pos).len() {
                break;
            }
            idx[pos] = 0;
            pos += 1;
        }
        let placement = capped_placement(ev, cfg, &idx, cfg.placement);
        let obj = eng.reconfigure(&idx, &placement);
        trace.evaluations += 1;
        if obj < best_obj {
            trace.objective.push(obj);
            best_obj = obj;
            best_asg = eng.assignment();
        }
        if cfg.diversity.is_some() {
            note_feasible(obj, &eng.assignment(), &mut best_feasible);
        }
    }
    if let Some((_, feas)) = best_feasible {
        best_asg = feas;
    }
    let result = eng.result_for(&best_asg);
    Some(Solution {
        assignment: best_asg,
        result,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;

    fn tiny_evaluator() -> Evaluator {
        let cfg = ScenarioConfig {
            num_aps: 1,
            devices_per_ap: 3,
            arrival_rate_hz: 4.0,
            ..ScenarioConfig::default()
        };
        Evaluator::new(&cfg.build(), None)
    }

    #[test]
    fn descent_improves_on_initial() {
        let ev = tiny_evaluator();
        let cfg = OptimizerConfig::default();
        let init = initial_assignment(&ev, cfg.placement);
        let init_obj = ev.evaluate(&init, cfg.policies).objective;
        let sol = descent_from_with_budget(&ev, &cfg, init, Budget::UNLIMITED).solution;
        assert!(sol.result.objective <= init_obj + 1e-12);
        assert!(!sol.trace.objective.is_empty());
    }

    #[test]
    fn trace_best_so_far_is_monotone_in_descent() {
        let ev = tiny_evaluator();
        let cfg = OptimizerConfig::default();
        let init = initial_assignment(&ev, cfg.placement);
        let sol = descent_from_with_budget(&ev, &cfg, init, Budget::UNLIMITED).solution;
        // The recorded series is best-after-each-accepted-step; descent
        // only accepts improvements, so it must be non-increasing.
        for w in sol.trace.objective.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "{:?}", sol.trace.objective);
        }
    }

    #[test]
    fn gibbs_never_loses_the_best() {
        let ev = tiny_evaluator();
        let cfg = OptimizerConfig {
            gibbs_iters: 60,
            ..OptimizerConfig::default()
        };
        let init = initial_assignment(&ev, cfg.placement);
        let descended = descent_from_with_budget(&ev, &cfg, init, Budget::UNLIMITED).solution;
        let d_obj = descended.result.objective;
        let refined = refine_from_with_budget(&ev, &cfg, descended, Budget::UNLIMITED).solution;
        assert!(refined.result.objective <= d_obj + 1e-12);
    }

    #[test]
    fn full_solve_close_to_exhaustive_on_tiny_instance() {
        let scfg = ScenarioConfig {
            num_aps: 1,
            devices_per_ap: 2,
            arrival_rate_hz: 4.0,
            ..ScenarioConfig::default()
        };
        let p = scfg.build();
        let menu_cfg = scalpel_surgery::candidates::CandidateConfig {
            max_cuts: 4,
            prune_levels: vec![scalpel_surgery::PruneLevel::None],
            ..Default::default()
        };
        let ev = Evaluator::new(&p, Some(menu_cfg));
        let cfg = OptimizerConfig::default();
        let ex = try_exhaustive(&ev, &cfg, 100_000).expect("space fits the limit");
        let sol = solve(&ev, &cfg);
        assert!(
            sol.result.objective <= ex.result.objective * 1.10 + 1e-9,
            "joint {} vs exhaustive {}",
            sol.result.objective,
            ex.result.objective
        );
    }

    #[test]
    fn unlimited_budget_reproduces_solve_bit_for_bit() {
        let ev = tiny_evaluator();
        let cfg = OptimizerConfig::default();
        let plain = solve(&ev, &cfg);
        let outcome = solve_with_budget(&ev, &cfg, Budget::UNLIMITED);
        assert!(outcome.converged);
        assert_eq!(
            plain.result.objective.to_bits(),
            outcome.solution.result.objective.to_bits()
        );
        assert_eq!(plain.trace.objective, outcome.solution.trace.objective);
        assert_eq!(plain.trace.evaluations, outcome.solution.trace.evaluations);
        assert_eq!(outcome.spent.evaluations, plain.trace.evaluations);
    }

    #[test]
    fn eval_budget_stops_early_with_a_valid_incumbent() {
        let ev = tiny_evaluator();
        let cfg = OptimizerConfig::default();
        let full = solve_with_budget(&ev, &cfg, Budget::UNLIMITED);
        let max_menu: usize = (0..ev.num_streams())
            .map(|k| ev.menu(k).len())
            .max()
            .unwrap();
        let cap = 5;
        let cut = solve_with_budget(&ev, &cfg, Budget::evals(cap));
        assert!(!cut.converged);
        // Overshoot bounded by one per-stream menu scan.
        assert!(
            cut.spent.evaluations <= cap + max_menu,
            "spent {} vs cap {cap} + menu {max_menu}",
            cut.spent.evaluations
        );
        assert!(cut.spent.evaluations < full.spent.evaluations);
        assert!(cut.solution.result.objective.is_finite());
        assert_eq!(cut.solution.assignment.plan_idx.len(), ev.num_streams());
        for (k, &i) in cut.solution.assignment.plan_idx.iter().enumerate() {
            assert!(i < ev.menu(k).len());
        }
    }

    #[test]
    fn zero_wall_budget_returns_initial_incumbent_immediately() {
        let ev = tiny_evaluator();
        let cfg = OptimizerConfig::default();
        let budget = Budget {
            wall_time: Some(Duration::ZERO),
            max_evals: None,
        };
        let outcome = solve_with_budget(&ev, &cfg, budget);
        assert!(!outcome.converged);
        assert!(outcome.solution.result.objective.is_finite());
        // At most the initial evaluation plus one guarded menu scan.
        let max_menu: usize = (0..ev.num_streams())
            .map(|k| ev.menu(k).len())
            .max()
            .unwrap();
        assert!(outcome.spent.evaluations <= 1 + max_menu);
    }

    #[test]
    fn try_exhaustive_refuses_oversized_spaces() {
        let ev = tiny_evaluator();
        let cfg = OptimizerConfig::default();
        assert!(try_exhaustive(&ev, &cfg, 1).is_none());
    }

    #[test]
    fn determinism_same_seed_same_solution() {
        let ev = tiny_evaluator();
        let cfg = OptimizerConfig::default();
        let a = solve(&ev, &cfg);
        let b = solve(&ev, &cfg);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.result.objective, b.result.objective);
    }

    #[test]
    fn placement_keeps_every_stream_on_a_valid_server() {
        let ev = tiny_evaluator();
        let asg = initial_assignment(&ev, PlacementStrategy::BestResponse);
        assert!(asg.placement.iter().all(|&s| s < ev.num_servers()));
        assert_eq!(asg.plan_idx.len(), ev.num_streams());
    }

    /// The two engines must walk the same trajectory: identical objective
    /// traces (bitwise), evaluation counts, and final assignments.
    #[test]
    fn full_and_incremental_traces_are_bit_identical() {
        let ev = tiny_evaluator();
        let base = OptimizerConfig {
            gibbs_iters: 80,
            ..OptimizerConfig::default()
        };
        let full_cfg = OptimizerConfig {
            eval_mode: EvalMode::Full,
            ..base.clone()
        };
        let inc_cfg = OptimizerConfig {
            eval_mode: EvalMode::Incremental,
            ..base
        };
        let a = solve(&ev, &full_cfg);
        let b = solve(&ev, &inc_cfg);
        assert_eq!(a.trace.evaluations, b.trace.evaluations);
        assert_eq!(a.trace.objective.len(), b.trace.objective.len());
        for (i, (x, y)) in a.trace.objective.iter().zip(&b.trace.objective).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "trace[{i}]: {x} vs {y}");
        }
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.result.objective.to_bits(), b.result.objective.to_bits());
    }

    /// Same for the exhaustive reference on a tiny space.
    #[test]
    fn exhaustive_engines_agree() {
        let scfg = ScenarioConfig {
            num_aps: 1,
            devices_per_ap: 2,
            arrival_rate_hz: 4.0,
            ..ScenarioConfig::default()
        };
        let ev = Evaluator::new(&scfg.build(), None);
        let full_cfg = OptimizerConfig {
            eval_mode: EvalMode::Full,
            ..OptimizerConfig::default()
        };
        let inc_cfg = OptimizerConfig {
            eval_mode: EvalMode::Incremental,
            ..OptimizerConfig::default()
        };
        let a = try_exhaustive(&ev, &full_cfg, 1_000_000).expect("space fits the limit");
        let b = try_exhaustive(&ev, &inc_cfg, 1_000_000).expect("space fits the limit");
        assert_eq!(a.trace.evaluations, b.trace.evaluations);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.result.objective.to_bits(), b.result.objective.to_bits());
    }
}
