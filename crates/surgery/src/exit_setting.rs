//! The exit-setting dynamic program.
//!
//! Given candidate exit hosts inside a device prefix, pick at most
//! `max_exits` of them and one confidence threshold so that *expected*
//! end-to-end latency is minimized subject to an accuracy floor.
//!
//! With a common threshold `t`, coverage is monotone in depth, so the
//! expected cost and accuracy of a selection decompose over *consecutive
//! selected pairs* — which admits an exact `O(E·m²)` DP per threshold with
//! Pareto fronts over `(cost, accuracy)` per state (the accuracy constraint
//! makes the problem bi-criteria). This mirrors the low-complexity
//! exit-setting algorithm of the LEIME line of work.

use scalpel_models::{DepthCache, DifficultyModel, NodeId};
use serde::{Deserialize, Serialize};

/// One possible exit host.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ExitCandidate {
    /// Backbone node id of the host.
    pub(crate) node: NodeId,
    /// Fraction of backbone FLOPs completed at the host.
    pub(crate) depth_fraction: f64,
    /// Device seconds to compute the backbone through the host.
    pub(crate) time_to_host_s: f64,
    /// Device seconds to evaluate this host's head.
    pub(crate) head_time_s: f64,
}

/// An exit-setting instance for one (stream, cut) pair, short of its
/// rest time: the seconds non-exiting inputs pay *after* the prefix
/// (transmission + edge compute + queueing estimate), which each solve
/// takes as an argument.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ExitSettingProblem {
    /// Candidate hosts in ascending depth order.
    pub(crate) hosts: Vec<ExitCandidate>,
    /// Device seconds for the full prefix when no exit fires.
    pub(crate) full_prefix_time_s: f64,
    /// Maximum number of exits surgery may attach.
    pub(crate) max_exits: usize,
    /// Minimum acceptable expected accuracy.
    pub(crate) accuracy_floor: f64,
    /// Accuracy of the full path (after pruning, if any).
    pub(crate) acc_full: f64,
    /// Difficulty calibration.
    pub(crate) difficulty: DifficultyModel,
}

/// The confidence thresholds the DP sweeps.
const THRESHOLD_GRID: [f64; 6] = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95];

/// The chosen exits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ExitSettingSolution {
    /// Indices into `problem.hosts`, ascending. Empty = no exits.
    pub(crate) selected: Vec<usize>,
    /// The common threshold.
    pub(crate) threshold: f64,
    /// Expected end-to-end seconds under the plan.
    pub(crate) expected_latency_s: f64,
    /// Expected accuracy under the plan.
    pub(crate) expected_accuracy: f64,
}

#[derive(Debug, Clone)]
struct Entry {
    cost: f64,
    acc: f64,
    /// Host the selection ends at.
    host: usize,
    /// The state this one extends, an index into the same arena.
    parent: Option<usize>,
}

/// Keep only Pareto-optimal `(cost ↓, acc ↑)` entries.
fn pareto_prune(mut entries: Vec<Entry>) -> Vec<Entry> {
    entries.sort_by(|a, b| a.cost.total_cmp(&b.cost));
    let mut out: Vec<Entry> = Vec::with_capacity(entries.len());
    let mut best_acc = f64::NEG_INFINITY;
    for e in entries {
        if e.acc > best_acc + 1e-15 {
            best_acc = e.acc;
            out.push(e);
        }
    }
    out
}

/// A state of one threshold's DP that clears the accuracy floor once
/// closed with the non-exiting tail. Its closed cost is
/// `cost + remain · (full_prefix + rest)`; nothing else depends on the
/// rest time.
#[derive(Debug)]
struct Closing {
    /// Cost of the exits alone.
    cost: f64,
    /// Probability no selected exit fires.
    remain: f64,
    /// Expected accuracy of the closed state.
    acc: f64,
    /// The state, an index into the front's arena.
    state: usize,
}

/// The DP of one grid threshold, run to its Pareto fronts.
#[derive(Debug)]
struct Front {
    threshold: f64,
    /// Every Pareto state, host by host and exit count by exit count (the
    /// order the closing scan visits them).
    arena: Vec<Entry>,
    /// The feasible closings, in that same order.
    closings: Vec<Closing>,
}

/// The exit-setting DP, split at the rest time. The rest time enters the
/// DP only when a state is closed, `cost + remain · (full_prefix +
/// rest)`; feasibility, `acc + remain · acc_full ≥ floor`, does not read
/// it. So the fronts are built once per instance shape and closed per
/// rest time, bit-identical to solving each instance afresh.
#[derive(Debug)]
pub(crate) struct ExitFronts {
    /// Depth transcendentals of each host (`x^γ`, `(1−x)^η`).
    depth: Vec<DepthCache>,
    /// `t^ρ` of each grid threshold.
    grid_pows: Vec<f64>,
    /// One front per grid threshold, in grid order (empty when no exit
    /// can be placed).
    fronts: Vec<Front>,
}

/// Per-exit thresholds after [`ExitFronts::refine`] (empty for the empty
/// selection).
#[derive(Debug, Default)]
pub(crate) struct Refined {
    /// `thresholds[j]` belongs to `sol.selected[j]`.
    pub(crate) thresholds: Vec<f64>,
    /// `t^ρ` of each threshold.
    pub(crate) thr_pows: Vec<f64>,
}

impl ExitFronts {
    /// Run the DP of every grid threshold on `p`.
    pub(crate) fn new(p: &ExitSettingProblem) -> Self {
        // The depth transcendentals are threshold-invariant and `t^ρ` is
        // depth-invariant: each is paid once, not once per (host,
        // threshold) pair.
        let depth: Vec<DepthCache> = p
            .hosts
            .iter()
            .map(|h| p.difficulty.depth_cache(h.depth_fraction))
            .collect();
        let grid_pows: Vec<f64> = THRESHOLD_GRID
            .iter()
            .map(|&t| p.difficulty.threshold_pow(t))
            .collect();
        let fronts = if p.hosts.is_empty() || p.max_exits == 0 {
            Vec::new()
        } else {
            THRESHOLD_GRID
                .iter()
                .zip(&grid_pows)
                .map(|(&t, &thr_pow)| Front::new(p, &depth, t, thr_pow))
                .collect()
        };
        Self {
            depth,
            grid_pows,
            fronts,
        }
    }

    /// Depth cache of host `i`.
    pub(crate) fn depth(&self, i: usize) -> DepthCache {
        self.depth[i]
    }

    /// The solution of `p` at `rest_time_s`: the empty selection when no
    /// exit helps or none is feasible *and* the empty selection itself
    /// clears the floor; if even `acc_full` is below the floor, the empty
    /// selection anyway — callers treat that plan as infeasible
    /// downstream.
    pub(crate) fn close(&self, p: &ExitSettingProblem, rest_time_s: f64) -> ExitSettingSolution {
        let tail = p.full_prefix_time_s + rest_time_s;
        // (cost, acc, (front, state)); `None` is the empty selection.
        let mut best: (f64, f64, Option<(usize, usize)>) = (tail, p.acc_full, None);
        for (f, front) in self.fronts.iter().enumerate() {
            let mut win: Option<(f64, f64, usize)> = None;
            for c in &front.closings {
                let cost = c.cost + c.remain * tail;
                if win.is_none_or(|(w, _, _)| cost < w) {
                    win = Some((cost, c.acc, c.state));
                }
            }
            let Some((cost, a, state)) = win else {
                continue;
            };
            let best_feasible = best.1 + 1e-12 >= p.accuracy_floor;
            if a + 1e-12 >= p.accuracy_floor && (!best_feasible || cost < best.0) {
                best = (cost, a, Some((f, state)));
            }
        }
        let (expected_latency_s, expected_accuracy, at) = best;
        let Some((f, state)) = at else {
            return ExitSettingSolution {
                selected: Vec::new(),
                threshold: 1.0,
                expected_latency_s,
                expected_accuracy,
            };
        };
        // Only the winner's selection is reconstructed.
        let front = &self.fronts[f];
        let mut selected = Vec::new();
        let mut at = Some(state);
        while let Some(s) = at {
            selected.push(front.arena[s].host);
            at = front.arena[s].parent;
        }
        selected.reverse();
        ExitSettingSolution {
            selected,
            threshold: front.threshold,
            expected_latency_s,
            expected_accuracy,
        }
    }

    /// Refine a uniform-threshold solution of `p` (at `rest_time_s`) by
    /// coordinate ascent on individual exit thresholds: each exit tries
    /// every grid value while the others stay fixed, and only feasible
    /// strict improvements are accepted. The result is never worse than
    /// `sol`.
    pub(crate) fn refine(
        &self,
        p: &ExitSettingProblem,
        rest_time_s: f64,
        sol: &ExitSettingSolution,
    ) -> Refined {
        if sol.selected.is_empty() {
            return Refined::default();
        }
        let mut thresholds = vec![sol.threshold; sol.selected.len()];
        let mut thr_pows = vec![p.difficulty.threshold_pow(sol.threshold); thresholds.len()];
        let eval = |thresholds: &[f64], thr_pows: &[f64]| {
            evaluate_selection_cached(
                p,
                rest_time_s,
                &sol.selected,
                &self.depth,
                thresholds,
                thr_pows,
            )
        };
        let (mut best_cost, _) = eval(&thresholds, &thr_pows);
        let max_rounds = 8;
        for _ in 0..max_rounds {
            let mut improved = false;
            for i in 0..thresholds.len() {
                let mut current = thresholds[i];
                let mut current_pow = thr_pows[i];
                for (g, &t) in THRESHOLD_GRID.iter().enumerate() {
                    if t == current {
                        continue;
                    }
                    thresholds[i] = t;
                    thr_pows[i] = self.grid_pows[g];
                    let (cost, acc) = eval(&thresholds, &thr_pows);
                    if acc + 1e-12 >= p.accuracy_floor && cost < best_cost - 1e-12 {
                        best_cost = cost;
                        current = t;
                        current_pow = thr_pows[i];
                        improved = true;
                    } else {
                        thresholds[i] = current;
                        thr_pows[i] = current_pow;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        Refined {
            thresholds,
            thr_pows,
        }
    }
}

impl Front {
    /// Run the DP for threshold `t` (`thr_pow` = `t^ρ`) to its Pareto
    /// fronts and keep the states that close feasibly.
    fn new(p: &ExitSettingProblem, depth: &[DepthCache], t: f64, thr_pow: f64) -> Self {
        let m = p.hosts.len();
        let e_max = p.max_exits.min(m);
        let cov: Vec<f64> = depth
            .iter()
            .map(|&d| p.difficulty.coverage_cached(d, thr_pow))
            .collect();
        let acc: Vec<f64> = depth
            .iter()
            .map(|&d| p.difficulty.conditional_accuracy_cached(d, t))
            .collect();
        // spans[i * (e_max + 1) + k]: the arena range of the Pareto
        // entries for selections of k exits ending at host i.
        let mut spans: Vec<std::ops::Range<usize>> = vec![0..0; m * (e_max + 1)];
        let mut arena: Vec<Entry> = Vec::new();
        for i in 0..m {
            let h = &p.hosts[i];
            // Every input reaching the first exit evaluates its head.
            let first = Entry {
                cost: cov[i] * (h.time_to_host_s + h.head_time_s) + (1.0 - cov[i]) * h.head_time_s,
                acc: cov[i] * acc[i],
                host: i,
                parent: None,
            };
            let start = arena.len();
            arena.extend(pareto_prune(vec![first]));
            spans[i * (e_max + 1) + 1] = start..arena.len();
            for k in 2..=e_max {
                let mut entries = Vec::new();
                for j in 0..i {
                    let mass = (cov[i] - cov[j]).max(0.0);
                    let survivors = 1.0 - cov[j];
                    for idx in spans[j * (e_max + 1) + k - 1].clone() {
                        let e = &arena[idx];
                        entries.push(Entry {
                            cost: e.cost + mass * h.time_to_host_s + survivors * h.head_time_s,
                            acc: e.acc + mass * acc[i],
                            host: i,
                            parent: Some(idx),
                        });
                    }
                }
                let start = arena.len();
                arena.extend(pareto_prune(entries));
                spans[i * (e_max + 1) + k] = start..arena.len();
            }
        }
        let closings = arena
            .iter()
            .enumerate()
            .filter_map(|(state, e)| {
                let remain = 1.0 - cov[e.host];
                let a = e.acc + remain * p.acc_full;
                (a + 1e-12 >= p.accuracy_floor).then_some(Closing {
                    cost: e.cost,
                    remain,
                    acc: a,
                    state,
                })
            })
            .collect();
        Self {
            threshold: t,
            arena,
            closings,
        }
    }
}

/// Exhaustive reference solver (small instances only; used by tests to
/// certify the DP).
#[cfg(test)]
fn solve_exhaustive(p: &ExitSettingProblem, rest_time_s: f64) -> ExitSettingSolution {
    let m = p.hosts.len();
    assert!(m <= 16, "exhaustive solver is for small instances");
    let mut best = ExitSettingSolution {
        selected: Vec::new(),
        threshold: 1.0,
        expected_latency_s: p.full_prefix_time_s + rest_time_s,
        expected_accuracy: p.acc_full,
    };
    for &t in &THRESHOLD_GRID {
        for mask in 1u32..(1 << m) {
            if mask.count_ones() as usize > p.max_exits {
                continue;
            }
            let sel: Vec<usize> = (0..m).filter(|&i| mask & (1 << i) != 0).collect();
            let (cost, acc) = evaluate_selection(p, rest_time_s, &sel, t);
            if acc + 1e-12 >= p.accuracy_floor && cost < best.expected_latency_s {
                best = ExitSettingSolution {
                    selected: sel,
                    threshold: t,
                    expected_latency_s: cost,
                    expected_accuracy: acc,
                };
            }
        }
    }
    best
}

/// Expected (latency, accuracy) of a selection with *per-exit* thresholds
/// (`thresholds[i]` belongs to `sel[i]`). Coverage uses the running
/// maximum, so non-monotone threshold patterns are handled consistently.
#[cfg(test)]
fn evaluate_selection_multi(
    p: &ExitSettingProblem,
    rest_time_s: f64,
    sel: &[usize],
    thresholds: &[f64],
) -> (f64, f64) {
    assert_eq!(sel.len(), thresholds.len());
    let depth: Vec<DepthCache> = p
        .hosts
        .iter()
        .map(|h| p.difficulty.depth_cache(h.depth_fraction))
        .collect();
    let thr_pows: Vec<f64> = thresholds
        .iter()
        .map(|&t| p.difficulty.threshold_pow(t))
        .collect();
    evaluate_selection_cached(p, rest_time_s, sel, &depth, thresholds, &thr_pows)
}

/// Expected (latency, accuracy) of a selection with per-exit thresholds
/// at `rest_time_s`, over prebuilt per-host depth caches and per-exit
/// threshold powers (`thr_pows[j]` belongs to `thresholds[j]`, which
/// belongs to `sel[j]`) — what the coordinate-ascent refinement calls in
/// its inner loop with every transcendental already paid for.
fn evaluate_selection_cached(
    p: &ExitSettingProblem,
    rest_time_s: f64,
    sel: &[usize],
    depth: &[DepthCache],
    thresholds: &[f64],
    thr_pows: &[f64],
) -> (f64, f64) {
    let mut cost = 0.0;
    let mut acc = 0.0;
    let mut cov_prev = 0.0;
    for (j, &i) in sel.iter().enumerate() {
        let h = &p.hosts[i];
        let c = p
            .difficulty
            .coverage_cached(depth[i], thr_pows[j])
            .max(cov_prev);
        let mass = c - cov_prev;
        let survivors_before = 1.0 - cov_prev;
        cost += mass * h.time_to_host_s + survivors_before * h.head_time_s;
        acc += mass
            * p.difficulty
                .conditional_accuracy_cached(depth[i], thresholds[j]);
        cov_prev = c;
    }
    let remain = 1.0 - cov_prev;
    cost += remain * (p.full_prefix_time_s + rest_time_s);
    acc += remain * p.acc_full;
    (cost, acc)
}

/// [`ExitFronts::refine`] of `sol` on `p` at `rest_time_s`: per-exit
/// thresholds and the refined (latency, accuracy).
#[cfg(test)]
fn refine_thresholds(
    p: &ExitSettingProblem,
    rest_time_s: f64,
    sol: &ExitSettingSolution,
) -> (Vec<f64>, f64, f64) {
    let thresholds = ExitFronts::new(p).refine(p, rest_time_s, sol).thresholds;
    if sol.selected.is_empty() {
        return (thresholds, sol.expected_latency_s, sol.expected_accuracy);
    }
    let (cost, acc) = evaluate_selection_multi(p, rest_time_s, &sol.selected, &thresholds);
    (thresholds, cost, acc)
}

/// Expected (latency, accuracy) of an explicit selection at threshold `t`
/// and `rest_time_s`.
#[cfg(test)]
fn evaluate_selection(
    p: &ExitSettingProblem,
    rest_time_s: f64,
    sel: &[usize],
    t: f64,
) -> (f64, f64) {
    // One `t^ρ` for the whole selection (depth-invariant).
    let thr_pow = p.difficulty.threshold_pow(t);
    let mut cost = 0.0;
    let mut acc = 0.0;
    let mut cov_prev = 0.0;
    for &i in sel {
        let h = &p.hosts[i];
        let d = p.difficulty.depth_cache(h.depth_fraction);
        let c = p.difficulty.coverage_cached(d, thr_pow).max(cov_prev);
        let mass = c - cov_prev;
        let survivors_before = 1.0 - cov_prev;
        cost += mass * h.time_to_host_s + survivors_before * h.head_time_s;
        acc += mass * p.difficulty.conditional_accuracy_cached(d, t);
        cov_prev = c;
    }
    let remain = 1.0 - cov_prev;
    cost += remain * (p.full_prefix_time_s + rest_time_s);
    acc += remain * p.acc_full;
    (cost, acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem(floor: f64) -> ExitSettingProblem {
        // Five hosts spread over a 100 ms prefix; heads cost 1 ms.
        let hosts = (1..=5)
            .map(|i| ExitCandidate {
                node: i * 2,
                depth_fraction: i as f64 * 0.15,
                time_to_host_s: i as f64 * 0.020,
                head_time_s: 0.001,
            })
            .collect();
        ExitSettingProblem {
            hosts,
            full_prefix_time_s: 0.100,
            max_exits: 3,
            accuracy_floor: floor,
            acc_full: 0.76,
            difficulty: DifficultyModel::default(),
        }
    }

    /// Solve `p` at `rest` seconds after the prefix.
    fn solve(p: &ExitSettingProblem, rest: f64) -> ExitSettingSolution {
        ExitFronts::new(p).close(p, rest)
    }

    #[test]
    fn exits_help_when_rest_is_expensive() {
        let (p, rest) = (problem(0.70), 0.5);
        let s = solve(&p, rest);
        assert!(!s.selected.is_empty());
        assert!(s.expected_latency_s < p.full_prefix_time_s + rest);
        assert!(s.expected_accuracy >= 0.70);
    }

    #[test]
    fn no_exits_when_heads_cannot_pay_off() {
        // Nothing after the prefix (device-only, rest = 0) and heads cost
        // time: the best selection may still exit early to skip prefix
        // remainder... make prefix cheap too so exits can't win.
        let mut p = problem(0.0);
        for h in &mut p.hosts {
            h.time_to_host_s = 0.0999; // exits barely before the end
            h.head_time_s = 0.01; // expensive heads
        }
        let s = solve(&p, 0.0);
        assert!(s.selected.is_empty(), "selected {:?}", s.selected);
    }

    #[test]
    fn dp_matches_exhaustive() {
        for rest in [0.0, 0.05, 0.2, 1.0] {
            for floor in [0.0, 0.72, 0.75] {
                let p = problem(floor);
                let dp = solve(&p, rest);
                let ex = solve_exhaustive(&p, rest);
                assert!(
                    (dp.expected_latency_s - ex.expected_latency_s).abs() < 1e-9,
                    "rest={rest} floor={floor}: dp {} vs exhaustive {} (dp sel {:?}, ex sel {:?})",
                    dp.expected_latency_s,
                    ex.expected_latency_s,
                    dp.selected,
                    ex.selected
                );
            }
        }
    }

    #[test]
    fn accuracy_floor_binds() {
        let loose = solve(&problem(0.0), 0.5);
        let tight = solve(&problem(0.759), 0.5);
        assert!(tight.expected_accuracy >= 0.759 - 1e-9);
        assert!(tight.expected_latency_s >= loose.expected_latency_s - 1e-12);
    }

    #[test]
    fn impossible_floor_returns_empty_selection() {
        let s = solve(&problem(0.99), 0.5);
        assert!(s.selected.is_empty());
        assert_eq!(s.expected_accuracy, 0.76);
    }

    #[test]
    fn max_exits_zero_means_no_exits() {
        let mut p = problem(0.0);
        p.max_exits = 0;
        assert!(solve(&p, 0.5).selected.is_empty());
    }

    #[test]
    fn selection_is_sorted_and_within_bounds() {
        let p = problem(0.72);
        let s = solve(&p, 0.3);
        assert!(s.selected.windows(2).all(|w| w[0] < w[1]));
        assert!(s.selected.len() <= p.max_exits);
        assert!(s.selected.iter().all(|&i| i < p.hosts.len()));
    }

    #[test]
    fn evaluate_selection_consistent_with_solution() {
        let p = problem(0.70);
        let s = solve(&p, 0.4);
        if !s.selected.is_empty() {
            let (cost, acc) = evaluate_selection(&p, 0.4, &s.selected, s.threshold);
            assert!((cost - s.expected_latency_s).abs() < 1e-9);
            assert!((acc - s.expected_accuracy).abs() < 1e-9);
        }
    }

    #[test]
    fn refinement_never_hurts_and_respects_floor() {
        for rest in [0.05, 0.2, 0.8] {
            for floor in [0.0, 0.73, 0.755] {
                let p = problem(floor);
                let sol = solve(&p, rest);
                let (thresholds, cost, acc) = refine_thresholds(&p, rest, &sol);
                assert_eq!(thresholds.len(), sol.selected.len());
                assert!(
                    cost <= sol.expected_latency_s + 1e-12,
                    "rest={rest} floor={floor}: refined {cost} worse than {}",
                    sol.expected_latency_s
                );
                if !sol.selected.is_empty() && floor > 0.0 {
                    assert!(acc + 1e-9 >= floor, "floor violated: {acc} < {floor}");
                }
            }
        }
    }

    #[test]
    fn refinement_can_strictly_improve_mixed_instances() {
        // Heads of very different costs at very different depths benefit
        // from per-exit thresholds: the cheap early exit can afford a loose
        // threshold while the deep one stays tight.
        let mut p = problem(0.73);
        p.hosts[0].head_time_s = 0.0001;
        p.hosts[4].head_time_s = 0.004;
        let sol = solve(&p, 0.6);
        let (thresholds, cost, _) = refine_thresholds(&p, 0.6, &sol);
        if sol.selected.len() >= 2 {
            // Either a strict improvement or already optimal with uniform
            // thresholds; both acceptable, but the refined cost must never
            // exceed the DP cost.
            assert!(cost <= sol.expected_latency_s + 1e-12);
            let distinct = thresholds.windows(2).any(|w| w[0] != w[1]);
            if cost < sol.expected_latency_s - 1e-9 {
                assert!(distinct, "improvement without distinct thresholds");
            }
        }
    }

    #[test]
    fn multi_threshold_evaluation_matches_uniform_case() {
        let p = problem(0.0);
        let sol = solve(&p, 0.4);
        if !sol.selected.is_empty() {
            let uniform = vec![sol.threshold; sol.selected.len()];
            let (c1, a1) = evaluate_selection(&p, 0.4, &sol.selected, sol.threshold);
            let (c2, a2) = evaluate_selection_multi(&p, 0.4, &sol.selected, &uniform);
            assert!((c1 - c2).abs() < 1e-12);
            assert!((a1 - a2).abs() < 1e-12);
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// A random instance and rest time.
        fn random_problem() -> impl Strategy<Value = (ExitSettingProblem, f64)> {
            (
                prop::collection::vec((0.01f64..0.95, 0.0001f64..0.05, 0.0001f64..0.005), 1..8),
                0.0f64..1.0,  // rest time
                0.0f64..0.77, // accuracy floor
                1usize..4,    // max exits
            )
                .prop_map(|(mut hosts_raw, rest, floor, max_exits)| {
                    hosts_raw.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
                    let hosts: Vec<ExitCandidate> = hosts_raw
                        .iter()
                        .enumerate()
                        .map(|(i, &(x, _, head))| ExitCandidate {
                            node: i * 3,
                            depth_fraction: x,
                            // times must be nondecreasing in depth
                            time_to_host_s: x * 0.2
                                + hosts_raw[..=i].iter().map(|h| h.1).sum::<f64>() * 0.1,
                            head_time_s: head,
                        })
                        .collect();
                    let full = hosts.last().map(|h| h.time_to_host_s).unwrap_or(0.0) + 0.05;
                    let p = ExitSettingProblem {
                        hosts,
                        full_prefix_time_s: full,
                        max_exits,
                        accuracy_floor: floor,
                        acc_full: 0.76,
                        difficulty: DifficultyModel::default(),
                    };
                    (p, rest)
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The DP is certified against brute force on random instances.
            #[test]
            fn dp_equals_exhaustive_on_random_instances(inst in random_problem()) {
                let (p, rest) = inst;
                let dp = solve(&p, rest);
                let ex = solve_exhaustive(&p, rest);
                prop_assert!(
                    (dp.expected_latency_s - ex.expected_latency_s).abs() < 1e-9,
                    "dp {} vs exhaustive {} (sel {:?} vs {:?})",
                    dp.expected_latency_s, ex.expected_latency_s,
                    dp.selected, ex.selected
                );
            }

            /// The split DP is certified the same way: fronts built once
            /// and closed at several rest times match brute force at each.
            #[test]
            fn fronts_closed_at_any_rest_equal_exhaustive(
                inst in random_problem(),
                rests in prop::collection::vec(0.0f64..2.0, 1..6),
            ) {
                let (p, _) = inst;
                let fronts = ExitFronts::new(&p);
                for &rest in &rests {
                    let closed = fronts.close(&p, rest);
                    let ex = solve_exhaustive(&p, rest);
                    prop_assert!(
                        (closed.expected_latency_s - ex.expected_latency_s).abs() < 1e-9,
                        "rest {rest}: closed {} vs exhaustive {} (sel {:?} vs {:?})",
                        closed.expected_latency_s, ex.expected_latency_s,
                        closed.selected, ex.selected
                    );
                    if ex.expected_accuracy + 1e-12 >= p.accuracy_floor {
                        prop_assert!(closed.expected_accuracy + 1e-12 >= p.accuracy_floor);
                    }
                }
            }

            /// Solutions are always internally consistent and feasible
            /// whenever a feasible point exists.
            #[test]
            fn solutions_are_consistent(inst in random_problem()) {
                let (p, rest) = inst;
                let sol = solve(&p, rest);
                prop_assert!(sol.selected.len() <= p.max_exits);
                prop_assert!(sol.selected.windows(2).all(|w| w[0] < w[1]));
                if !sol.selected.is_empty() {
                    let (cost, acc) = evaluate_selection(&p, rest, &sol.selected, sol.threshold);
                    prop_assert!((cost - sol.expected_latency_s).abs() < 1e-9);
                    prop_assert!((acc - sol.expected_accuracy).abs() < 1e-9);
                }
                // Refinement never worsens and keeps feasibility.
                let (_, cost, acc) = refine_thresholds(&p, rest, &sol);
                prop_assert!(cost <= sol.expected_latency_s + 1e-9);
                if sol.expected_accuracy + 1e-12 >= p.accuracy_floor {
                    prop_assert!(acc + 1e-9 >= p.accuracy_floor);
                }
            }
        }
    }

    #[test]
    fn more_allowed_exits_never_hurts() {
        let mut p1 = problem(0.70);
        p1.max_exits = 1;
        let mut p3 = problem(0.70);
        p3.max_exits = 3;
        let s1 = solve(&p1, 0.5);
        let s3 = solve(&p3, 0.5);
        assert!(s3.expected_latency_s <= s1.expected_latency_s + 1e-12);
    }
}
