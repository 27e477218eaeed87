//! Property tests for diversity-bounded placement: whenever the
//! concentration cap is *feasible* (enough aggregate domain capacity for
//! the whole fleet), every solver engine — full evaluation,
//! incremental evaluation, and the sharded warm polish — must return an
//! assignment with **zero** cap excess. The caps are a hard invariant of
//! the returned plan, not a soft penalty that better objectives may buy
//! their way out of.

use proptest::prelude::*;
use scalpel::core::config::ScenarioConfig;
use scalpel::core::diversity::{self, DiversityConfig};
use scalpel::core::evaluator::Evaluator;
use scalpel::core::optimizer::{self, Budget, EvalMode, OptimizerConfig};
use scalpel::core::shard::{self, ShardConfig};

/// A randomized small fleet with servers dealt round robin into a
/// randomized number of failure domains.
#[derive(Debug, Clone)]
struct CapCase {
    num_aps: usize,
    devices_per_ap: usize,
    seed: u64,
    domains: usize,
}

fn cap_case_strategy() -> impl Strategy<Value = CapCase> {
    (1usize..3, 2usize..5, 1u64..500, 2usize..5).prop_map(
        |(num_aps, devices_per_ap, seed, domains)| CapCase {
            num_aps,
            devices_per_ap,
            seed,
            domains,
        },
    )
}

impl CapCase {
    fn scenario(&self) -> ScenarioConfig {
        ScenarioConfig {
            num_aps: self.num_aps,
            devices_per_ap: self.devices_per_ap,
            arrival_rate_hz: 4.0,
            seed: self.seed,
            ..ScenarioConfig::default()
        }
    }

    /// The round-robin domain map of the servers.
    fn diversity(&self, num_servers: usize) -> DiversityConfig {
        DiversityConfig {
            server_domain: (0..num_servers).map(|s| s % self.domains).collect(),
        }
    }
}

/// Whether the cap admits a zero-excess assignment even if *every*
/// stream offloads: each domain holding a server contributes
/// `domain_cap` slots, and the total must cover the fleet. Infeasible
/// draws are skipped — with not enough slots to go around, residual
/// excess is priced, not forbidden.
fn feasible(div: &DiversityConfig, n_streams: usize, num_servers: usize) -> bool {
    let cap = diversity::domain_cap(n_streams);
    let occupied = (0..div.num_domains())
        .filter(|&d| (0..num_servers).any(|s| div.domain_of(s) == d))
        .count();
    occupied * cap >= n_streams
}

fn check_zero_excess(case: &CapCase, run: impl Fn(&Evaluator, &DiversityConfig) -> usize) {
    let problem = case.scenario().build();
    let ev = Evaluator::new(&problem, None);
    let div = case.diversity(problem.cluster.servers.len());
    if !feasible(&div, ev.num_streams(), problem.cluster.servers.len()) {
        return;
    }
    let excess = run(&ev, &div);
    assert_eq!(
        excess, 0,
        "feasible caps violated: {} streams over on {case:?}",
        excess
    );
}

fn solve_excess(ev: &Evaluator, div: &DiversityConfig, mode: EvalMode) -> usize {
    let cfg = OptimizerConfig {
        rounds: 2,
        gibbs_iters: 10,
        eval_mode: mode,
        diversity: Some(div.clone()),
        ..OptimizerConfig::default()
    };
    let sol = optimizer::solve(ev, &cfg);
    diversity::assignment_excess(ev, &sol.assignment, div)
}

/// Solves are costly relative to the chaos generators, so the case count
/// stays modest; the draws still cover two to four domains and both
/// parities of fleet-vs-cap rounding.
const CASES: u32 = if cfg!(debug_assertions) { 16 } else { 64 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// The full-evaluation engine never violates feasible caps.
    #[test]
    fn full_engine_respects_feasible_caps(case in cap_case_strategy()) {
        check_zero_excess(&case, |ev, div| solve_excess(ev, div, EvalMode::Full));
    }

    /// The incremental engine (saturating-counter pricing) never
    /// violates feasible caps.
    #[test]
    fn incremental_engine_respects_feasible_caps(case in cap_case_strategy()) {
        check_zero_excess(&case, |ev, div| solve_excess(ev, div, EvalMode::Incremental));
    }

    /// The sharded warm polish never violates feasible caps either, even
    /// from an unrepaired start: its final repair restores them.
    #[test]
    fn sharded_solver_respects_feasible_caps(case in cap_case_strategy()) {
        let problem = case.scenario().build();
        let ev = Evaluator::new(&problem, None);
        let div = case.diversity(problem.cluster.servers.len());
        if feasible(&div, ev.num_streams(), problem.cluster.servers.len()) {
            let largest_group = problem
                .streams_by_ap()
                .iter()
                .map(Vec::len)
                .max()
                .unwrap_or(1)
                .max(1);
            let cfg = ShardConfig {
                max_streams: largest_group,
                opt: OptimizerConfig {
                    rounds: 2,
                    gibbs_iters: 10,
                    diversity: Some(div.clone()),
                    ..OptimizerConfig::default()
                },
                ..ShardConfig::default()
            };
            let warm = optimizer::initial_assignment(&ev, cfg.opt.placement);
            let outcome =
                shard::solve_sharded_with(&problem, &ev, &cfg, Budget::UNLIMITED, Some(&warm))
                    .expect("a round-robin map over all servers is valid");
            let excess =
                diversity::assignment_excess(&ev, &outcome.outcome.solution.assignment, &div);
            prop_assert_eq!(excess, 0, "sharded solve violated feasible caps on {:?}", case);
        }
    }
}
