//! Chaos harness for the solver stack: adversarial problem instances —
//! NaN/negative latencies and distances, dead servers and APs, dangling
//! references, unsatisfiable floors — thrown at ingest validation, both
//! evaluation engines, and the anytime solver. The contract under test:
//!
//! * **No panics.** Every adversarial instance is either rejected with a
//!   typed [`ProblemError`] or repaired into a solvable one; nothing in
//!   the validate → price → solve pipeline unwinds.
//! * **Invariants.** Every produced solution has a finite objective,
//!   finite non-negative shares, per-server compute-share sums ≤ 1 and
//!   per-AP bandwidth-share sums ≤ 1.
//! * **Budget adherence.** `solve_with_budget` honors evaluation budgets
//!   to within one per-stream menu scan and wall budgets to within 10%.
//! * **Conservation.** Repaired instances run in the discrete-event
//!   simulator with every generated request accounted for.

use proptest::prelude::*;
use scalpel::core::compiler::CompileOptions;
use scalpel::core::config::ScenarioConfig;
use scalpel::core::evaluator::Evaluator;
use scalpel::core::optimizer::{self, Budget, EvalMode, OptimizerConfig, SolveOutcome};
use scalpel::core::problem::{JointProblem, StreamSpec};
use scalpel::core::runner;
use scalpel::core::shard::{self, ShardConfig};
use scalpel::core::validate::{validate_problem, ProblemError, ValidationPolicy};
use scalpel::models::{zoo, DifficultyModel, ProcessorClass};
use scalpel::sim::{
    validate_fault_plan, ApSpec, ArrivalProcess, Cluster, CorrelatedProfile, DeviceSpec,
    DomainKind, FailureDomain, FaultEvent, FaultKind, ServerSpec, SimConfig, SimError,
};

/// The poison pool: every way a scalar can be hostile.
const BAD: [f64; 7] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -1.0,
    0.0,
    -0.0,
    1e308,
];

/// One corruption: which field family, which poison, which index.
type Corruption = (u8, u8, u8);

/// An adversarial problem instance: a small well-formed base topology
/// with a batch of random corruptions applied.
#[derive(Debug, Clone)]
struct ChaosProblem {
    devices: usize,
    aps: usize,
    servers: usize,
    corruptions: Vec<Corruption>,
}

fn chaos_strategy() -> impl Strategy<Value = ChaosProblem> {
    (
        1usize..4,
        1usize..3,
        1usize..3,
        prop::collection::vec((0u8..10, 0u8..7, 0u8..4), 0..6),
    )
        .prop_map(|(devices, aps, servers, corruptions)| ChaosProblem {
            devices,
            aps,
            servers,
            corruptions,
        })
}

impl ChaosProblem {
    /// Materialize the instance: valid base problem + corruptions.
    fn build(&self) -> JointProblem {
        let cluster = Cluster {
            devices: (0..self.devices)
                .map(|id| DeviceSpec {
                    id,
                    proc: if id % 2 == 0 {
                        ProcessorClass::Smartphone.spec()
                    } else {
                        ProcessorClass::RaspberryPi4.spec()
                    },
                    ap: id % self.aps,
                    distance_m: 20.0 + 10.0 * id as f64,
                })
                .collect(),
            aps: (0..self.aps)
                .map(|id| ApSpec {
                    id,
                    bandwidth_hz: 20e6,
                    rtt_s: 2e-3,
                })
                .collect(),
            servers: (0..self.servers)
                .map(|id| ServerSpec {
                    id,
                    proc: ProcessorClass::EdgeGpuT4.spec(),
                })
                .collect(),
        };
        let mut p = JointProblem {
            cluster,
            models: vec![zoo::lenet5(10)],
            model_accuracy: vec![0.98],
            streams: (0..self.devices)
                .map(|d| StreamSpec {
                    device: d,
                    model: 0,
                    arrivals: ArrivalProcess::Poisson { rate_hz: 5.0 },
                    deadline_s: 0.2,
                    accuracy_floor: 0.5,
                })
                .collect(),
            difficulty: DifficultyModel::default(),
        };
        for &(site, poison, target) in &self.corruptions {
            let bad = BAD[poison as usize % BAD.len()];
            let d = target as usize % p.cluster.devices.len();
            let a = target as usize % p.cluster.aps.len();
            let s = target as usize % p.cluster.servers.len();
            let k = target as usize % p.streams.len();
            match site % 10 {
                0 => p.cluster.devices[d].distance_m = bad,
                1 => p.cluster.aps[a].bandwidth_hz = bad,
                2 => p.cluster.aps[a].rtt_s = bad,
                3 => p.cluster.servers[s].proc.flops_per_sec = bad,
                4 => p.streams[k].deadline_s = bad,
                5 => p.streams[k].accuracy_floor = if poison % 2 == 0 { bad } else { 2.0 },
                6 => p.model_accuracy[0] = bad,
                7 => p.streams[k].device = 99,
                8 => p.streams[k].model = 7,
                _ => p.streams[k].arrivals = ArrivalProcess::Poisson { rate_hz: bad },
            }
        }
        p
    }
}

/// Solution invariants every engine must uphold on a repaired instance.
fn check_invariants(problem: &JointProblem, ev: &Evaluator, outcome: &SolveOutcome) {
    let r = &outcome.solution.result;
    assert!(r.objective.is_finite(), "objective {}", r.objective);
    let mut per_server = vec![0.0f64; ev.num_servers()];
    let mut per_ap = vec![0.0f64; problem.cluster.aps.len()];
    for k in 0..ev.num_streams() {
        let cs = r.compute_shares[k];
        let bs = r.bandwidth_shares[k];
        assert!(cs.is_finite() && cs >= 0.0, "compute share [{k}] = {cs}");
        assert!(bs.is_finite() && bs >= 0.0, "bandwidth share [{k}] = {bs}");
        assert!(!r.latency_s[k].is_nan(), "latency [{k}] is NaN");
        assert!(r.accuracy[k].is_finite(), "accuracy [{k}]");
        let idx = outcome.solution.assignment.plan_idx[k];
        assert!(idx < ev.menu(k).len(), "plan index out of menu");
        per_server[outcome.solution.assignment.placement[k]] += cs;
        per_ap[problem.cluster.devices[problem.streams[k].device].ap] += bs;
    }
    for (s, &sum) in per_server.iter().enumerate() {
        assert!(sum <= 1.0 + 1e-6, "server {s} compute shares sum {sum}");
    }
    for (a, &sum) in per_ap.iter().enumerate() {
        assert!(sum <= 1.0 + 1e-6, "ap {a} bandwidth shares sum {sum}");
    }
}

/// Validate → repair → price → solve one chaos instance on one engine.
/// Returns whether a solve actually ran (instance wasn't rejected).
fn drive(chaos: &ChaosProblem, mode: EvalMode) -> bool {
    let raw = chaos.build();
    // Strict either accepts or rejects with a typed error — never panics.
    let strict = validate_problem(&raw, &ValidationPolicy::Strict);
    let repaired = match validate_problem(&raw, &ValidationPolicy::repair()) {
        Ok((p, report)) => {
            // A repair pass that changed nothing implies strict acceptance.
            if report.is_clean() {
                assert!(strict.is_ok(), "clean repair but strict rejected");
            }
            p
        }
        Err(e) => {
            // Unfixable: strict must also have rejected it, and the error
            // must render (Display is part of the typed contract).
            assert!(strict.is_err(), "repair rejected what strict accepted");
            assert!(!e.to_string().is_empty());
            return false;
        }
    };
    let ev = match Evaluator::try_new(&repaired, None) {
        Ok(ev) => ev,
        Err(ProblemError::EmptyExitMenu { .. }) => return false,
        Err(e) => panic!("repaired instance re-rejected: {e}"),
    };
    let cfg = OptimizerConfig {
        rounds: 2,
        gibbs_iters: 10,
        eval_mode: mode,
        ..OptimizerConfig::default()
    };
    let cap = 60;
    let outcome = optimizer::solve_with_budget(&ev, &cfg, Budget::evals(cap));
    check_invariants(&repaired, &ev, &outcome);
    let max_menu = (0..ev.num_streams())
        .map(|k| ev.menu(k).len())
        .max()
        .unwrap_or(0);
    assert!(
        outcome.spent.evaluations <= cap + max_menu,
        "evaluation budget overshoot: {} vs {cap} + {max_menu}",
        outcome.spent.evaluations
    );
    true
}

/// The same validate → repair → price pipeline, driven through the
/// sharded solver: typed rejection or a finite, invariant-preserving,
/// budget-respecting solution — never a panic.
fn drive_sharded(chaos: &ChaosProblem) -> bool {
    let raw = chaos.build();
    let Ok((repaired, _)) = validate_problem(&raw, &ValidationPolicy::repair()) else {
        return false;
    };
    let ev = match Evaluator::try_new(&repaired, None) {
        Ok(ev) => ev,
        Err(ProblemError::EmptyExitMenu { .. }) => return false,
        Err(e) => panic!("repaired instance re-rejected: {e}"),
    };
    // The cap must admit the largest AP stream group of the *repaired*
    // problem; anything smaller is a config error, not a chaos finding.
    let largest_group = repaired
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
            ..OptimizerConfig::default()
        },
        ..ShardConfig::default()
    };
    let cap = 60;
    let outcome = match shard::solve_sharded_with(&repaired, &ev, &cfg, Budget::evals(cap), None) {
        Ok(o) => o,
        Err(e) => {
            // A typed rejection must render; it is an acceptable outcome.
            assert!(!e.to_string().is_empty());
            return false;
        }
    };
    check_invariants(&repaired, &ev, &outcome.outcome);
    // Evaluation-budget adherence on the sharded path: every shard slice
    // may overshoot by one menu scan (the descent contract), the
    // reconcile pass by one probe, the polish by one more scan.
    let max_menu = (0..ev.num_streams())
        .map(|k| ev.menu(k).len())
        .max()
        .unwrap_or(0);
    let shards = outcome.plan.shards.len();
    let slack = (shards + 1) * (max_menu + 1) + 2;
    assert!(
        outcome.outcome.spent.evaluations <= cap + slack,
        "sharded evaluation budget overshoot: {} vs {cap} + {slack}",
        outcome.outcome.spent.evaluations
    );
    true
}

/// Full chaos volume (1000+ instances per engine) runs in release — the
/// CI chaos job builds `--release`; debug tier-1 runs a 100-case smoke of
/// the same generator so the harness still exercises on every `cargo test`.
const CHAOS_CASES: u32 = if cfg!(debug_assertions) { 100 } else { 1000 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CHAOS_CASES))]

    /// Adversarial instances through the full-evaluation engine:
    /// typed rejection or a valid, invariant-preserving solution.
    #[test]
    fn chaos_full_engine_never_panics(chaos in chaos_strategy()) {
        drive(&chaos, EvalMode::Full);
    }

    /// The same adversarial regime on the incremental engine.
    #[test]
    fn chaos_incremental_engine_never_panics(chaos in chaos_strategy()) {
        drive(&chaos, EvalMode::Incremental);
    }

    /// The same adversarial regime through the sharded solver: partition,
    /// parallel shard solves, reconciliation and polish all survive every
    /// corruption the repair pass lets through.
    #[test]
    fn chaos_sharded_solver_never_panics(chaos in chaos_strategy()) {
        drive_sharded(&chaos);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Repaired chaos instances execute end-to-end in the discrete-event
    /// simulator with every generated request accounted for.
    #[test]
    fn chaos_repaired_instances_conserve_requests(chaos in chaos_strategy()) {
        let raw = chaos.build();
        let Ok((repaired, _)) = validate_problem(&raw, &ValidationPolicy::repair()) else {
            return;
        };
        let Ok(ev) = Evaluator::try_new(&repaired, None) else {
            return;
        };
        let cfg = OptimizerConfig { rounds: 1, gibbs_iters: 0, ..Default::default() };
        let sol = optimizer::solve(&ev, &cfg);
        let sim = SimConfig {
            horizon_s: 3.0,
            warmup_s: 0.5,
            seed: 7,
            ..SimConfig::default()
        };
        let opts = CompileOptions::default();
        let report = runner::try_run_solution(&repaired, &ev, &sol.assignment, &sol.result, sim, &opts)
            .expect("repaired instances compile into valid simulator streams");
        prop_assert_eq!(report.generated, report.completed + report.faults.lost());
    }
}

/// Poison classes for generated fault plans — each non-`None` variant
/// maps to the typed rejection `validate_fault_plan` must return.
#[derive(Debug, Clone, Copy)]
enum PlanPoison {
    /// Leave the plan alone: it must validate and simulate to conservation.
    None,
    /// Swap two events with distinct timestamps.
    Unsorted,
    /// Duplicate a `DomainDown`, re-opening an already-open window.
    Overlap,
    /// Append an event referencing a domain index past the table.
    DanglingDomain,
    /// Append an empty failure domain to the table.
    EmptyDomain,
    /// Append a domain whose member index lies outside the cluster.
    DanglingMember,
    /// Stamp a non-finite or negative time onto an event.
    BadTime(f64),
}

fn plan_poison_strategy() -> impl Strategy<Value = PlanPoison> {
    prop_oneof![
        Just(PlanPoison::None),
        Just(PlanPoison::Unsorted),
        Just(PlanPoison::Overlap),
        Just(PlanPoison::DanglingDomain),
        Just(PlanPoison::EmptyDomain),
        Just(PlanPoison::DanglingMember),
        (0usize..4).prop_map(|i| {
            PlanPoison::BadTime([f64::NAN, f64::NEG_INFINITY, f64::INFINITY, -1.0][i])
        }),
    ]
}

/// Generate a correlated plan over the chaos topology, poison it, and
/// check `validate_fault_plan` answers with the matching typed error —
/// or, for the untouched plan, that it validates and simulates with
/// every request accounted for.
fn chaos_fault_plan_case(chaos: &ChaosProblem, fault_seed: u64, poison: PlanPoison) {
    let base = ChaosProblem {
        corruptions: Vec::new(),
        ..chaos.clone()
    };
    let problem = base.build();
    let cluster = &problem.cluster;
    let horizon_s = 3.0;
    let domains = vec![
        FailureDomain {
            name: "rack".into(),
            kind: DomainKind::ServerRack,
            aps: Vec::new(),
            servers: (0..cluster.servers.len()).collect(),
        },
        FailureDomain {
            name: "backhaul".into(),
            kind: DomainKind::SharedBackhaul,
            aps: (0..cluster.aps.len()).collect(),
            servers: Vec::new(),
        },
    ];
    let mut plan = CorrelatedProfile {
        seed: fault_seed,
        rate_hz: 2.0,
        mean_outage_s: 0.5,
        start_s: 0.0,
    }
    .plan(domains, horizon_s);
    let err = match poison {
        PlanPoison::None => {
            validate_fault_plan(&plan, cluster).expect("generated plans are well-formed");
            let ev = Evaluator::new(&problem, None);
            let cfg = OptimizerConfig {
                rounds: 1,
                gibbs_iters: 0,
                ..Default::default()
            };
            let sol = optimizer::solve(&ev, &cfg);
            let sim = SimConfig {
                horizon_s,
                warmup_s: 0.5,
                seed: 7,
                faults: plan,
                ..SimConfig::default()
            };
            let report = runner::try_run_solution(
                &problem,
                &ev,
                &sol.assignment,
                &sol.result,
                sim,
                &CompileOptions::default(),
            )
            .expect("validated plans drive valid simulator runs");
            assert_eq!(report.generated, report.completed + report.faults.lost());
            return;
        }
        PlanPoison::Unsorted => {
            let Some(i) =
                (1..plan.events.len()).find(|&i| plan.events[i].at_s > plan.events[i - 1].at_s)
            else {
                return; // No distinct-timestamp pair to swap in this draw.
            };
            plan.events.swap(i - 1, i);
            let err = validate_fault_plan(&plan, cluster).expect_err("unsorted plan must reject");
            assert!(matches!(err, SimError::UnsortedPlan { .. }), "{err}");
            err
        }
        PlanPoison::Overlap => {
            let Some(i) = plan
                .events
                .iter()
                .position(|e| matches!(e.kind, FaultKind::DomainDown { .. }))
            else {
                return; // This draw scheduled no outage to duplicate.
            };
            let dup = plan.events[i].clone();
            plan.events.insert(i + 1, dup);
            let err =
                validate_fault_plan(&plan, cluster).expect_err("overlapping window must reject");
            assert!(matches!(err, SimError::OverlappingOutage { .. }), "{err}");
            err
        }
        PlanPoison::DanglingDomain => {
            let at_s = plan.events.last().map_or(0.0, |e| e.at_s);
            let domain = plan.domains.len();
            plan.events.push(FaultEvent {
                at_s,
                kind: FaultKind::DomainDown { domain },
            });
            let err = validate_fault_plan(&plan, cluster).expect_err("dangling domain must reject");
            assert!(
                matches!(err, SimError::InvalidEvent { ref source, .. }
                    if matches!(**source, SimError::MissingDomain { .. })),
                "{err}"
            );
            err
        }
        PlanPoison::EmptyDomain => {
            plan.domains.push(FailureDomain {
                name: "ghost".into(),
                kind: DomainKind::ApGroup,
                aps: Vec::new(),
                servers: Vec::new(),
            });
            let err = validate_fault_plan(&plan, cluster).expect_err("empty domain must reject");
            assert!(matches!(err, SimError::EmptyDomain { .. }), "{err}");
            err
        }
        PlanPoison::DanglingMember => {
            plan.domains.push(FailureDomain {
                name: "dangling".into(),
                kind: DomainKind::ServerRack,
                aps: Vec::new(),
                servers: vec![cluster.servers.len()],
            });
            let err = validate_fault_plan(&plan, cluster).expect_err("dangling member must reject");
            assert!(
                matches!(err, SimError::InvalidDomain { ref source, .. }
                    if matches!(**source, SimError::MissingServer { .. })),
                "{err}"
            );
            err
        }
        PlanPoison::BadTime(t) => {
            if plan.events.is_empty() {
                plan.events.push(FaultEvent {
                    at_s: 0.0,
                    kind: FaultKind::DomainDown { domain: 0 },
                });
            }
            plan.events[0].at_s = t;
            let err = validate_fault_plan(&plan, cluster).expect_err("bad time must reject");
            assert!(matches!(err, SimError::InvalidEventTime { .. }), "{err}");
            err
        }
    };
    // Display is part of the typed contract on every rejection.
    assert!(!err.to_string().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CHAOS_CASES))]

    /// Poisoned fault plans are rejected with the matching typed
    /// [`SimError`]; untouched generated plans validate and run with
    /// every request accounted for.
    #[test]
    fn chaos_fault_plans_reject_poison_with_typed_errors(
        chaos in chaos_strategy(),
        fault_seed in 1u64..500,
        poison in plan_poison_strategy(),
    ) {
        chaos_fault_plan_case(&chaos, fault_seed, poison);
    }
}

/// Wall-clock budget adherence on a full-size scenario: the solver stops
/// within 10% of the requested wall budget (the CI gate runs this in
/// release alongside the rest of the chaos suite).
#[test]
fn chaos_wall_budget_adherence() {
    let problem = ScenarioConfig::default().build();
    let ev = Evaluator::new(&problem, None);
    let cfg = OptimizerConfig::default();
    let unlimited = optimizer::solve_with_budget(&ev, &cfg, Budget::UNLIMITED);
    let wall = std::time::Duration::from_millis(100);
    // Only meaningful when the unbudgeted solve actually takes longer
    // than the budget; the default scenario does by a wide margin.
    let outcome = optimizer::solve_with_budget(&ev, &cfg, Budget::wall(wall));
    assert!(
        outcome.spent.wall_s <= wall.as_secs_f64() * 1.10,
        "wall budget overshoot: spent {:.4}s against {:.3}s",
        outcome.spent.wall_s,
        wall.as_secs_f64()
    );
    assert!(outcome.solution.result.objective.is_finite());
    if !outcome.converged {
        assert!(outcome.spent.evaluations <= unlimited.spent.evaluations);
    }
}

/// Wall-clock budget adherence on the sharded path: shard slices are cut
/// to 80% of the wall proportionally and additionally capped by the time
/// remaining at task start, so the whole pipeline (shard solves →
/// reconcile → polish) lands within 10% of the requested budget.
#[test]
fn chaos_sharded_wall_budget_adherence() {
    let problem = ScenarioConfig::default().build();
    let ev = Evaluator::new(&problem, None);
    let cfg = ShardConfig {
        // Force several shards so slicing (not a single inherited budget)
        // is what gets exercised.
        max_streams: 10,
        ..ShardConfig::default()
    };
    let wall = std::time::Duration::from_millis(300);
    let outcome = shard::solve_sharded_with(&problem, &ev, &cfg, Budget::wall(wall), None)
        .expect("default scenario is valid");
    assert!(
        outcome.outcome.spent.wall_s <= wall.as_secs_f64() * 1.10,
        "sharded wall budget overshoot: spent {:.4}s against {:.3}s",
        outcome.outcome.spent.wall_s,
        wall.as_secs_f64()
    );
    assert!(outcome.outcome.solution.result.objective.is_finite());
    assert_eq!(
        outcome.plan.shards.len(),
        4,
        "cap of 10 splits 40 streams into 4"
    );
}

/// An evaluation budget large enough to cover the whole search changes
/// nothing: bit-identical traces on both engines.
#[test]
fn chaos_generous_budget_is_bit_identical_to_solve() {
    let problem = ScenarioConfig {
        num_aps: 1,
        devices_per_ap: 3,
        arrival_rate_hz: 4.0,
        ..ScenarioConfig::default()
    }
    .build();
    let ev = Evaluator::new(&problem, None);
    for mode in [EvalMode::Full, EvalMode::Incremental] {
        let cfg = OptimizerConfig {
            eval_mode: mode,
            ..OptimizerConfig::default()
        };
        let plain = optimizer::solve(&ev, &cfg);
        let budgeted = optimizer::solve_with_budget(&ev, &cfg, Budget::evals(usize::MAX));
        assert!(budgeted.converged);
        assert_eq!(
            plain.result.objective.to_bits(),
            budgeted.solution.result.objective.to_bits()
        );
        assert_eq!(plain.trace.objective, budgeted.solution.trace.objective);
        assert_eq!(plain.trace.evaluations, budgeted.solution.trace.evaluations);
        assert_eq!(plain.assignment, budgeted.solution.assignment);
    }
}
