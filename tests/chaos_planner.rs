//! Chaos harness for the solver stack. Ingest is strict: a problem
//! instance is accepted as measured or refused, never edited. The
//! harness checks both sides of that door.
//!
//! * **Refusal.** Healthy instances are poisoned at ten sites (distances,
//!   bandwidths, RTTs, capacities, deadlines, floors, model accuracies,
//!   dangling device and model references, arrival rates) with seven
//!   poison values (NaN, ±∞, −1, 0, −0, 1e308). `JointProblem::validate`
//!   refuses every poison that is a defect with the [`ProblemError`]
//!   variant and index naming its site, and accepts the ones that are
//!   legal there (a zero distance, a 1e308 capacity).
//! * **Extreme but valid instances.** Instances built directly from legal
//!   edge values run through both evaluation engines, the sharded warm
//!   polish and the simulator. Nothing unwinds; every objective is finite;
//!   shares are finite, non-negative and sum to ≤ 1 per server and per
//!   AP; evaluation budgets hold to within one menu scan per solve;
//!   every generated request is accounted for.
//! * **Budget adherence.** `solve_with_budget` and the warm polish honor
//!   wall budgets to within 10%, a generous evaluation budget changes no
//!   bit, and a cold sharded solve is `solve_with_budget`.

use proptest::prelude::*;
use scalpel::core::compiler::CompileOptions;
use scalpel::core::config::ScenarioConfig;
use scalpel::core::evaluator::Evaluator;
use scalpel::core::optimizer::{self, Budget, EvalMode, OptimizerConfig, SolveOutcome};
use scalpel::core::problem::{JointProblem, StreamSpec};
use scalpel::core::runner;
use scalpel::core::shard::{self, ShardConfig};
use scalpel::core::validate::{ProblemError, MAX_ARRIVAL_RATE_HZ};
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

/// A small healthy topology: one stream per device.
#[derive(Debug, Clone, Copy)]
struct Topology {
    devices: usize,
    aps: usize,
    servers: usize,
}

fn topology_strategy() -> impl Strategy<Value = Topology> {
    (1usize..4, 1usize..3, 1usize..3).prop_map(|(devices, aps, servers)| Topology {
        devices,
        aps,
        servers,
    })
}

impl Topology {
    /// The well-formed base instance.
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
        JointProblem {
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
        }
    }
}

/// One corruption: which site, which poison, which index.
type Corruption = (u8, u8, u8);

fn corruption_strategy() -> impl Strategy<Value = Corruption> {
    (0u8..10, 0u8..7, 0u8..4)
}

/// Poison one site of `p`. Returns the site, the value written (NaN for
/// the reference sites 7 and 8) and the index of the poisoned device,
/// AP, server, stream or model.
fn corrupt(p: &mut JointProblem, (site, poison, target): Corruption) -> (u8, f64, usize) {
    let bad = BAD[poison as usize % BAD.len()];
    let t = target as usize;
    let d = t % p.cluster.devices.len();
    let a = t % p.cluster.aps.len();
    let s = t % p.cluster.servers.len();
    let k = t % p.streams.len();
    let site = site % 10;
    match site {
        0 => {
            p.cluster.devices[d].distance_m = bad;
            (site, bad, d)
        }
        1 => {
            p.cluster.aps[a].bandwidth_hz = bad;
            (site, bad, a)
        }
        2 => {
            p.cluster.aps[a].rtt_s = bad;
            (site, bad, a)
        }
        3 => {
            p.cluster.servers[s].proc.flops_per_sec = bad;
            (site, bad, s)
        }
        4 => {
            p.streams[k].deadline_s = bad;
            (site, bad, k)
        }
        5 => {
            let floor = if poison % 2 == 0 { bad } else { 2.0 };
            p.streams[k].accuracy_floor = floor;
            (site, floor, k)
        }
        6 => {
            p.model_accuracy[0] = bad;
            (site, bad, 0)
        }
        7 => {
            p.streams[k].device = 99;
            (site, f64::NAN, k)
        }
        8 => {
            p.streams[k].model = 7;
            (site, f64::NAN, k)
        }
        _ => {
            p.streams[k].arrivals = ArrivalProcess::Poisson { rate_hz: bad };
            (site, bad, k)
        }
    }
}

/// Whether `v` is a legal value at `site` — the specification strict
/// ingest is checked against.
fn legal(site: u8, v: f64) -> bool {
    match site {
        0 | 2 => v.is_finite() && v >= 0.0,
        1 | 3 | 4 => v.is_finite() && v > 0.0,
        5 | 6 => (0.0..=1.0).contains(&v),
        7 | 8 => false,
        _ => v.is_finite() && v > 0.0 && v <= MAX_ARRIVAL_RATE_HZ,
    }
}

/// Whether `e` is the variant that names `site`, at `index`.
fn names_site(e: &ProblemError, site: u8, index: usize) -> bool {
    use ProblemError as E;
    match (site, e) {
        (0, E::UnreachableDevice { device: i, .. })
        | (1, E::ZeroBandwidthAp { ap: i, .. })
        | (2, E::InvalidRtt { ap: i, .. })
        | (3, E::ZeroCapacityServer { server: i, .. })
        | (4, E::NonPositiveDeadline { stream: i, .. })
        | (5, E::AccuracyFloorOutOfRange { stream: i, .. })
        | (6, E::ModelAccuracyOutOfRange { model: i, .. })
        | (7, E::MissingDevice { stream: i, .. })
        | (8, E::MissingModel { stream: i, .. })
        | (9, E::Arrival { stream: i, .. })
        | (9, E::ArrivalRateTooHigh { stream: i, .. }) => *i == index,
        _ => false,
    }
}

/// Poison a healthy instance with `corruptions` and check what strict
/// ingest answers: acceptance exactly when the last value written to
/// every poisoned field is legal, otherwise a rejection that names one
/// of the illegal fields and renders through `Display`.
fn check_refusal(topo: Topology, corruptions: &[Corruption]) {
    let mut p = topo.build();
    let writes: Vec<(u8, f64, usize)> = corruptions.iter().map(|&c| corrupt(&mut p, c)).collect();
    // A later write to the same field overrides an earlier one.
    let last = |&(site, _, index): &(u8, f64, usize)| {
        writes
            .iter()
            .rev()
            .find(|w| w.0 == site && w.2 == index)
            .copied()
    };
    let illegal: Vec<(u8, f64, usize)> = writes
        .iter()
        .filter_map(last)
        .filter(|&(site, v, _)| !legal(site, v))
        .collect();
    match p.validate() {
        Ok(()) => assert!(illegal.is_empty(), "accepted illegal {illegal:?}"),
        Err(e) => {
            assert!(
                illegal
                    .iter()
                    .any(|&(site, _, index)| names_site(&e, site, index)),
                "{e:?} names none of {illegal:?}"
            );
            assert!(!e.to_string().is_empty());
        }
    }
}

/// Legal extremes for sites 0–6 (distance, bandwidth, RTT, capacity,
/// deadline, floor, model accuracy): the bounds of each legal range (a
/// zero or signed-zero distance, RTT or accuracy; floors and accuracies
/// of 0 and 1), the 10 km edge of radio range, a 1 s deadline, and the
/// largest finite magnitudes (1e308).
const EXTREMES: [&[f64]; 7] = [
    &[0.0, -0.0, 10_000.0],
    &[1e308],
    &[0.0, -0.0, 1e308],
    &[1e308],
    &[1.0, 1e308],
    &[0.0, 1.0],
    &[0.0, -0.0, 1.0],
];

/// One legal edit: which site (7 drops a stream), which extreme, which
/// index.
type Edit = (u8, u8, u8);

/// A healthy topology pushed to legal extremes.
#[derive(Debug, Clone)]
struct ExtremeProblem {
    topo: Topology,
    edits: Vec<Edit>,
}

fn extreme_strategy() -> impl Strategy<Value = ExtremeProblem> {
    (
        topology_strategy(),
        prop::collection::vec((0u8..8, 0u8..3, 0u8..4), 0..6),
    )
        .prop_map(|(topo, edits)| ExtremeProblem { topo, edits })
}

impl ExtremeProblem {
    fn build(&self) -> JointProblem {
        let mut p = self.topo.build();
        for &(site, pick, target) in &self.edits {
            let t = target as usize;
            let d = t % p.cluster.devices.len();
            let a = t % p.cluster.aps.len();
            let s = t % p.cluster.servers.len();
            let k = t % p.streams.len();
            let Some(values) = EXTREMES.get(site as usize) else {
                // A device may carry no stream, but a problem needs one.
                if p.streams.len() > 1 {
                    p.streams.remove(k);
                }
                continue;
            };
            let v = values[pick as usize % values.len()];
            match site {
                0 => p.cluster.devices[d].distance_m = v,
                1 => p.cluster.aps[a].bandwidth_hz = v,
                2 => p.cluster.aps[a].rtt_s = v,
                3 => p.cluster.servers[s].proc.flops_per_sec = v,
                4 => p.streams[k].deadline_s = v,
                5 => p.streams[k].accuracy_floor = v,
                _ => p.model_accuracy[0] = v,
            }
        }
        p
    }

    /// The instance and its evaluator, or `None` when candidate
    /// generation admits no plan for some stream (a floor of 1, or a
    /// model accuracy of 0 under a positive floor).
    fn priced(&self) -> Option<(JointProblem, Evaluator)> {
        let p = self.build();
        assert_eq!(p.validate(), Ok(()), "extreme instance is legal");
        match Evaluator::try_new(&p, None) {
            Ok(ev) => Some((p, ev)),
            Err(ProblemError::EmptyExitMenu { .. }) => None,
            Err(e) => panic!("legal instance rejected: {e}"),
        }
    }
}

/// Solution invariants every engine must uphold.
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

/// Price and solve one extreme instance on one engine under a
/// 60-evaluation budget. Returns whether a solve ran.
fn drive(x: &ExtremeProblem, mode: EvalMode) -> bool {
    let Some((problem, ev)) = x.priced() else {
        return false;
    };
    let cfg = OptimizerConfig {
        rounds: 2,
        gibbs_iters: 10,
        eval_mode: mode,
        ..OptimizerConfig::default()
    };
    let cap = 60;
    let outcome = optimizer::solve_with_budget(&ev, &cfg, Budget::evals(cap));
    check_invariants(&problem, &ev, &outcome);
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

/// The same instance through the sharded solver's warm polish, started
/// from the budgeted centralized solve: a finite, invariant-preserving,
/// budget-respecting solution.
fn drive_sharded(x: &ExtremeProblem) -> bool {
    let Some((problem, ev)) = x.priced() else {
        return false;
    };
    // The cap must admit the largest AP stream group; anything smaller is
    // a config error, not a chaos finding.
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
            ..OptimizerConfig::default()
        },
        ..ShardConfig::default()
    };
    let cap = 60;
    let warm = optimizer::solve_with_budget(&ev, &cfg.opt, Budget::evals(cap))
        .solution
        .assignment;
    let outcome = shard::solve_sharded_with(&problem, &ev, &cfg, Budget::evals(cap), Some(&warm))
        .expect("the cap admits the largest AP group");
    check_invariants(&problem, &ev, &outcome.outcome);
    // Evaluation-budget adherence: the polish may overshoot by one menu
    // scan (the descent contract), on top of pricing the warm point.
    let max_menu = (0..ev.num_streams())
        .map(|k| ev.menu(k).len())
        .max()
        .unwrap_or(0);
    let slack = max_menu + 2;
    assert!(
        outcome.outcome.spent.evaluations <= cap + slack,
        "sharded evaluation budget overshoot: {} vs {cap} + {slack}",
        outcome.outcome.spent.evaluations
    );
    true
}

/// Full chaos volume (1000+ instances per property) runs in release — the
/// CI chaos job builds `--release`; debug tier-1 runs a 100-case smoke of
/// the same generators so the harness still exercises on every `cargo test`.
const CHAOS_CASES: u32 = if cfg!(debug_assertions) { 100 } else { 1000 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CHAOS_CASES))]

    /// One poison at one site: refused with the variant and index that
    /// name the site, unless the poisoned value is legal there.
    #[test]
    fn chaos_single_poison_is_refused_at_its_site(
        topo in topology_strategy(),
        c in corruption_strategy(),
    ) {
        check_refusal(topo, &[c]);
    }

    /// Several poisons: a typed rejection naming one of them, unless
    /// every poisoned field ends up legal.
    #[test]
    fn chaos_multi_poison_gets_a_typed_rejection(
        topo in topology_strategy(),
        cs in prop::collection::vec(corruption_strategy(), 2..6),
    ) {
        check_refusal(topo, &cs);
    }

    /// Extreme but valid instances through the full-evaluation engine.
    #[test]
    fn chaos_full_engine_never_panics(x in extreme_strategy()) {
        drive(&x, EvalMode::Full);
    }

    /// The same instances on the incremental engine.
    #[test]
    fn chaos_incremental_engine_never_panics(x in extreme_strategy()) {
        drive(&x, EvalMode::Incremental);
    }

    /// The same instances through the sharded solver's warm polish.
    #[test]
    fn chaos_sharded_solver_never_panics(x in extreme_strategy()) {
        drive_sharded(&x);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Extreme but valid instances execute end-to-end in the
    /// discrete-event simulator with every generated request accounted for.
    #[test]
    fn chaos_extreme_instances_conserve_requests(x in extreme_strategy()) {
        let Some((problem, ev)) = x.priced() else {
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
        let report = runner::try_run_solution(&problem, &ev, &sol.assignment, &sol.result, sim, &opts)
            .expect("legal instances compile into valid simulator streams");
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
fn chaos_fault_plan_case(topo: Topology, fault_seed: u64, poison: PlanPoison) {
    let problem = topo.build();
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
        topo in topology_strategy(),
        fault_seed in 1u64..500,
        poison in plan_poison_strategy(),
    ) {
        chaos_fault_plan_case(topo, fault_seed, poison);
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
    let budget = Budget {
        wall_time: Some(wall),
        max_evals: None,
    };
    let outcome = optimizer::solve_with_budget(&ev, &cfg, budget);
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

/// Wall-clock budget adherence on the sharded path: a warm polish from
/// the initial assignment takes several times longer than the 50 ms
/// wall, and the cut polish still lands within 10% of it.
#[test]
fn chaos_sharded_wall_budget_adherence() {
    // On a 2-core host the default scenario at 64 APs polishes in about
    // 0.27 s in release. A debug build takes about 0.2 s at 16 APs, where
    // one descent step stays well inside the 10% slack; at 64 APs it
    // does not.
    let problem = ScenarioConfig {
        num_aps: if cfg!(debug_assertions) { 16 } else { 64 },
        ..ScenarioConfig::default()
    }
    .build();
    let ev = Evaluator::new(&problem, None);
    let cfg = ShardConfig::default();
    let warm = optimizer::initial_assignment(&ev, cfg.opt.placement);
    let wall = std::time::Duration::from_millis(50);
    let budget = Budget {
        wall_time: Some(wall),
        max_evals: None,
    };
    let outcome = shard::solve_sharded_with(&problem, &ev, &cfg, budget, Some(&warm))
        .expect("default scenario is valid");
    assert!(
        !outcome.outcome.converged,
        "the wall must cut the polish for this gate to mean anything"
    );
    assert!(
        outcome.outcome.spent.wall_s <= wall.as_secs_f64() * 1.10,
        "sharded wall budget overshoot: spent {:.4}s against {:.3}s",
        outcome.outcome.spent.wall_s,
        wall.as_secs_f64()
    );
    assert!(outcome.outcome.solution.result.objective.is_finite());
}

/// A cold sharded solve is `solve_with_budget` under the shard config's
/// optimizer, bit for bit. One instance is the chaos base topology (3
/// devices, 1 AP, 2 servers) with an RTT of 1e308 and stream 2's floor
/// at 0.9 under 60 evaluations: the budget covers the start and two
/// menu scans, and the result must be finite.
#[test]
fn chaos_cold_sharded_solve_is_solve_with_budget() {
    let mut far = Topology {
        devices: 3,
        aps: 1,
        servers: 2,
    }
    .build();
    far.cluster.aps[0].rtt_s = 1e308;
    far.streams[2].accuracy_floor = 0.9;
    let scenario = ScenarioConfig {
        num_aps: 2,
        devices_per_ap: 3,
        ..ScenarioConfig::default()
    }
    .build();
    let cfg = ShardConfig {
        max_streams: 3,
        opt: OptimizerConfig {
            rounds: 2,
            gibbs_iters: 10,
            ..OptimizerConfig::default()
        },
        ..ShardConfig::default()
    };
    for (name, problem, budget) in [
        ("far AP", &far, Budget::evals(60)),
        ("far AP", &far, Budget::UNLIMITED),
        ("scenario", &scenario, Budget::evals(60)),
        ("scenario", &scenario, Budget::UNLIMITED),
    ] {
        let ev = Evaluator::new(problem, None);
        let central = optimizer::solve_with_budget(&ev, &cfg.opt, budget);
        let sharded = shard::solve_sharded_with(problem, &ev, &cfg, budget, None)
            .expect("valid instance")
            .outcome;
        let (a, b) = (&sharded.solution, &central.solution);
        assert!(a.result.objective.is_finite(), "{name} {budget:?}");
        assert_eq!(
            a.result.objective.to_bits(),
            b.result.objective.to_bits(),
            "{name} {budget:?}"
        );
        assert_eq!(a.assignment, b.assignment, "{name} {budget:?}");
        assert_eq!(a.trace.objective, b.trace.objective, "{name} {budget:?}");
        assert_eq!(
            a.trace.evaluations, b.trace.evaluations,
            "{name} {budget:?}"
        );
        assert_eq!(sharded.converged, central.converged, "{name} {budget:?}");
    }
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
