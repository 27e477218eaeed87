//! Simulator hot-loop benchmark: slab pool + timing-wheel event queue +
//! reusable scratch vs the pre-refactor allocating engine.
//!
//! ```text
//! simbench [--smoke] [--out PATH]
//! ```
//!
//! Drives one loaded scenario — 64 APs × 8 devices (512 streams) at
//! 4 req/s each against 40 GFLOP/s edge servers, the regime where deep
//! processor-sharing queues made the old engine's superseded
//! `ServerCheck` events pile up in the heap — at 1k, 10k and 100k
//! requests, with and without faults + the full recovery ladder. Each
//! configuration runs twice, once on a fresh scratch and once on a
//! scratch reused across every prior run, and the two [`SimReport`]s
//! must be bit-identical. The pinned golden-snapshot summaries are also
//! re-checked, so a parity break fails the bench before any number is
//! reported. Wall times are compared against the pre-refactor baseline
//! (recorded below) and land in `BENCH_sim.json` (override with
//! `--out`); `--smoke` results default to `target/BENCH_sim.smoke.json`,
//! so a smoke run never overwrites the committed record.
//!
//! `--smoke` runs the 1k size only: a CI-friendly parity gate plus one
//! throughput floor — the clean smoke row must stay at or above the
//! PR 8 events/s baseline (override the floor with the
//! `SIMBENCH_FLOOR_EVPS` env var; parity is asserted before any number
//! is reported). The full run (`cargo run --release -p scalpel-bench
//! --bin simbench`) regenerates the numbers quoted in EXPERIMENTS.md.

use scalpel_bench::table::Table;
use scalpel_core::baselines::{self, solve_with, Method};
use scalpel_core::compiler;
use scalpel_core::config::{ScenarioConfig, ServerMix};
use scalpel_core::evaluator::Evaluator;
use scalpel_core::optimizer::{Budget, OptimizerConfig};
use scalpel_core::runner;
use scalpel_sim::{
    EdgeSim, FaultProfile, LatencyStats, RecoveryConfig, SimConfig, SimReport, SimScratch,
};
use std::time::Instant;

/// Streams in the benchmark topology (64 APs × 8 devices).
const STREAMS: usize = 512;
/// Per-stream Poisson arrival rate, req/s.
const RATE_HZ: f64 = 4.0;
/// Synthetic edge-server capacity, FLOP/s — low enough that servers
/// hold deep PS queues and finish estimates sit far in the future.
const MEAN_FPS: f64 = 4e10;

/// Benchmarked request-count sizes; `--smoke` runs only the first.
const SIZES: [usize; 3] = [1_000, 10_000, 100_000];

/// Pre-refactor wall times in seconds (best of 7) for the identical
/// scenario, captured on the parent commit with a `VecDeque`-based
/// request store, a non-compacting event heap and per-run allocation.
/// Indexed like `SIZES`; `[clean, recovered]` per size. The refactor
/// provably schedules the identical event sequence, so baseline
/// events/s is `events_scheduled / baseline_wall`.
const BASELINE_WALL_S: [[f64; 2]; 3] = [[0.0019, 0.0063], [0.0109, 0.0242], [0.2554, 0.1982]];

/// Wall times in seconds recorded in BENCH_sim.json at this PR's parent
/// commit — the compacting-heap engine, before the timing wheel, the
/// virtual-time server station and the kernel/SoA work. Same indexing as
/// `BASELINE_WALL_S`. `kernel_speedup` in the JSON is measured against
/// these, isolating what *this* PR bought on top of the slab refactor.
const PRE_KERNEL_WALL_S: [[f64; 2]; 3] = [
    [0.001769, 0.001558],
    [0.008851, 0.006324],
    [0.218306, 0.058718],
];

/// Wall times in seconds at the parent commit of the whole-simulator SoA
/// PR — the timing-wheel + virtual-time engine, before columnar entity
/// state, the served-set heap, and the arena wheel. Same indexing as
/// `BASELINE_WALL_S`. `soa_speedup` in the JSON is measured against
/// these, isolating what the SoA restructuring bought.
const PRE_SOA_WALL_S: [[f64; 2]; 3] = [[0.0010, 0.0011], [0.0049, 0.0044], [0.0584, 0.0377]];

/// Default events/s floor for the clean `--smoke` row: the PR 8
/// clean-row throughput this PR started from. `SIMBENCH_FLOOR_EVPS`
/// overrides it (a pathologically noisy runner can set 0 to disable).
const FLOOR_EVPS: f64 = 6.0e6;

struct Row {
    requests: usize,
    recovered: bool,
    generated: usize,
    accounted: usize,
    events: u64,
    delivered: u64,
    cancelled: u64,
    rotations: u64,
    wall_s: f64,
    baseline_wall_s: f64,
    pre_kernel_wall_s: f64,
    pre_soa_wall_s: f64,
}

impl Row {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s.max(1e-12)
    }
    fn baseline_events_per_sec(&self) -> f64 {
        self.events as f64 / self.baseline_wall_s.max(1e-12)
    }
    fn requests_per_sec(&self) -> f64 {
        self.generated as f64 / self.wall_s.max(1e-12)
    }
    fn speedup(&self) -> f64 {
        self.baseline_wall_s / self.wall_s.max(1e-12)
    }
    fn kernel_speedup(&self) -> f64 {
        self.pre_kernel_wall_s / self.wall_s.max(1e-12)
    }
    fn soa_speedup(&self) -> f64 {
        self.pre_soa_wall_s / self.wall_s.max(1e-12)
    }
}

fn scenario(requests: usize, recovered: bool) -> ScenarioConfig {
    let num_aps = STREAMS / 8;
    let total_rate = STREAMS as f64 * RATE_HZ;
    let warmup = 1.0;
    let mut cfg = ScenarioConfig {
        num_aps,
        devices_per_ap: STREAMS / num_aps,
        arrival_rate_hz: RATE_HZ,
        servers: ServerMix::Synthetic {
            count: num_aps,
            mean_fps: MEAN_FPS,
            cv: 0.3,
        },
        sim: SimConfig {
            horizon_s: warmup + requests as f64 / total_rate,
            warmup_s: warmup,
            seed: 11,
            fading: true,
            ..SimConfig::default()
        },
        ..ScenarioConfig::default()
    };
    if recovered {
        cfg.apply_fault_profile(&FaultProfile {
            seed: 5,
            rate_hz: 0.5,
            mean_outage_s: 2.0,
            start_s: 1.0,
            classes: Vec::new(),
        });
        cfg.apply_recovery(RecoveryConfig::full());
    }
    cfg
}

fn build_sim(cfg: &ScenarioConfig) -> EdgeSim {
    let problem = cfg.build();
    let ev = Evaluator::new(&problem, None);
    let opt_cfg = OptimizerConfig {
        rounds: 1,
        gibbs_iters: 0,
        ..Default::default()
    };
    let sol = solve_with(&ev, Method::Neurosurgeon, &opt_cfg);
    // Anytime-API guard: with no budget the budgeted entry point must plan
    // exactly like the plain one, so the simulated trace below is the same
    // golden trace regardless of which entry point callers use.
    let anytime =
        baselines::solve_with_budget(&ev, Method::Neurosurgeon, &opt_cfg, Budget::UNLIMITED);
    assert!(
        anytime.converged,
        "unlimited budget reported non-convergence"
    );
    assert_eq!(
        sol.assignment, anytime.solution.assignment,
        "budgeted planner diverged from plain planner"
    );
    assert_eq!(
        sol.result.objective.to_bits(),
        anytime.solution.result.objective.to_bits(),
        "budgeted planner objective bits diverged"
    );
    let streams = compiler::compile(&problem, &ev, &sol.assignment, &sol.result);
    EdgeSim::new(problem.cluster.clone(), streams, cfg.sim.clone())
        .expect("benchmark scenario compiles to valid streams")
}

/// Every observable field of the two reports, compared at the bit level
/// (floats via `to_bits`, so `-0.0` vs `0.0` or a 1-ulp drift fails).
fn assert_bit_identical(a: &SimReport, b: &SimReport, what: &str) {
    let lat = |x: &LatencyStats, y: &LatencyStats| {
        assert_eq!(x.count, y.count, "{what}: latency count");
        for (n, (p, q)) in [
            (x.mean, y.mean),
            (x.p50, y.p50),
            (x.p95, y.p95),
            (x.p99, y.p99),
            (x.max, y.max),
        ]
        .iter()
        .enumerate()
        {
            assert_eq!(p.to_bits(), q.to_bits(), "{what}: latency field {n}");
        }
    };
    assert_eq!(a.generated, b.generated, "{what}: generated");
    assert_eq!(a.completed, b.completed, "{what}: completed");
    lat(&a.latency, &b.latency);
    assert_eq!(
        a.deadline_ratio.to_bits(),
        b.deadline_ratio.to_bits(),
        "{what}: deadline_ratio"
    );
    assert_eq!(
        a.mean_accuracy.to_bits(),
        b.mean_accuracy.to_bits(),
        "{what}: mean_accuracy"
    );
    assert_eq!(
        a.early_exit_fraction.to_bits(),
        b.early_exit_fraction.to_bits(),
        "{what}: early_exit_fraction"
    );
    assert_eq!(
        a.server_utilization.len(),
        b.server_utilization.len(),
        "{what}: utilization length"
    );
    for (i, (p, q)) in a
        .server_utilization
        .iter()
        .zip(&b.server_utilization)
        .enumerate()
    {
        assert_eq!(p.to_bits(), q.to_bits(), "{what}: utilization[{i}]");
    }
    assert_eq!(a.per_stream.len(), b.per_stream.len(), "{what}: streams");
    for (p, q) in a.per_stream.iter().zip(&b.per_stream) {
        assert_eq!(p.stream, q.stream, "{what}: stream id");
        assert_eq!(p.completed, q.completed, "{what}: stream completed");
        assert_eq!(p.on_time, q.on_time, "{what}: stream on_time");
        lat(&p.latency, &q.latency);
        assert_eq!(
            p.mean_accuracy.to_bits(),
            q.mean_accuracy.to_bits(),
            "{what}: stream accuracy"
        );
        assert_eq!(p.early_exits, q.early_exits, "{what}: stream exits");
        assert_eq!(
            p.mean_device_wait.to_bits(),
            q.mean_device_wait.to_bits(),
            "{what}: stream wait"
        );
    }
    assert_eq!(a.faults, b.faults, "{what}: fault metrics");
    assert_eq!(a.recovery, b.recovery, "{what}: recovery metrics");
}

/// Re-run the frozen golden scenarios and assert their pinned summaries —
/// the same tuples `tests/golden_snapshot.rs` pins. A perf change that
/// moves these has broken determinism, not just speed.
fn check_golden_pins() {
    let golden = |recovery: bool| -> SimReport {
        let mut cfg = ScenarioConfig {
            num_aps: 1,
            devices_per_ap: 4,
            arrival_rate_hz: 6.0,
            seed: 7,
            sim: SimConfig {
                horizon_s: 6.0,
                warmup_s: 1.0,
                seed: 77,
                fading: true,
                ..SimConfig::default()
            },
            ..ScenarioConfig::default()
        };
        cfg.apply_fault_profile(&FaultProfile {
            seed: 5,
            rate_hz: 1.2,
            mean_outage_s: 1.5,
            start_s: 1.0,
            classes: Vec::new(),
        });
        if recovery {
            cfg.apply_recovery(RecoveryConfig::full());
        }
        let problem = cfg.build();
        let ev = Evaluator::new(&problem, None);
        let sol = solve_with(
            &ev,
            Method::Neurosurgeon,
            &OptimizerConfig {
                rounds: 1,
                gibbs_iters: 0,
                ..Default::default()
            },
        );
        runner::run_solution_seeds(
            &problem,
            &ev,
            &sol,
            cfg.sim,
            &[1],
            &compiler::CompileOptions::default(),
        )
        .pop()
        .expect("one seed, one report")
    };

    let r = golden(false);
    assert_eq!(
        (
            r.generated,
            r.completed,
            r.faults.stranded,
            r.faults.stalled,
            r.faults.injected,
            r.faults.applied,
            r.faults.recoveries,
            (r.latency.p99 * 1e3).round() as i64,
        ),
        (95, 94, 1, 0, 16, 12, 5, 3172),
        "golden faulted pin moved"
    );
    let r = golden(true);
    assert_eq!(
        (
            r.generated,
            r.completed,
            r.recovery.degraded,
            r.recovery.shed,
            r.recovery.timeouts,
            r.recovery.retries,
            r.recovery.hedges,
            r.recovery.breaker_opens,
            r.faults.stranded,
            r.faults.stalled,
            (r.recovery.mean_degraded_accuracy * 1e4).round() as i64,
        ),
        (95, 75, 19, 0, 11, 1, 1, 3, 1, 0, 6286),
        "golden recovered pin moved"
    );
}

fn bench_config(size_idx: usize, recovered: bool, scratch: &mut SimScratch, smoke: bool) -> Row {
    let requests = SIZES[size_idx];
    let cfg = scenario(requests, recovered);
    let sim = build_sim(&cfg);

    // Parity: a fresh run and a reused-scratch run must agree bit-for-bit.
    let fresh = sim.run();
    let reused = sim.run_with_scratch(scratch);
    let what = format!(
        "requests={requests} {}",
        if recovered { "recovered" } else { "clean" }
    );
    assert_bit_identical(&fresh, &reused, &what);

    // Timing: best of K on the reused scratch (steady-state behavior).
    let rounds = if smoke { 3 } else { 7 };
    let mut wall = f64::MAX;
    let mut report = reused;
    for _ in 0..rounds {
        let t = Instant::now();
        report = sim.run_with_scratch(scratch);
        wall = wall.min(t.elapsed().as_secs_f64());
    }
    Row {
        requests,
        recovered,
        generated: report.generated,
        accounted: report.accounted(),
        events: scratch.events_scheduled(),
        delivered: scratch.events_delivered(),
        cancelled: scratch.events_cancelled(),
        rotations: scratch.queue_rotations(),
        wall_s: wall,
        baseline_wall_s: BASELINE_WALL_S[size_idx][usize::from(recovered)],
        pre_kernel_wall_s: PRE_KERNEL_WALL_S[size_idx][usize::from(recovered)],
        pre_soa_wall_s: PRE_SOA_WALL_S[size_idx][usize::from(recovered)],
    }
}

/// Smoke-mode throughput regression gate, symmetric with perfbench's
/// N=512 evals/s floor: the clean smoke row must not fall below the
/// PR 8 events/s baseline. Parity and the golden pins have already been
/// asserted by the time this runs, so a failure here is a pure
/// performance regression, not a correctness break.
fn smoke_throughput_gate(rows: &[Row]) {
    let floor = std::env::var("SIMBENCH_FLOOR_EVPS")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(FLOOR_EVPS);
    let clean = rows
        .iter()
        .find(|r| !r.recovered)
        .expect("smoke mode benches a clean row");
    let eps = clean.events_per_sec();
    println!(
        "\nclean smoke throughput gate: {:.2}M events/s (floor {:.2}M, \
         override with SIMBENCH_FLOOR_EVPS)",
        eps / 1e6,
        floor / 1e6
    );
    assert!(
        eps >= floor,
        "clean smoke row regressed below the events/s floor: \
         {eps:.0} < {floor:.0} events/s"
    );
}

fn write_json(path: &str, smoke: bool, rows: &[Row]) {
    // Hand-formatted: the vendored serde stand-in has no derive codegen.
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"sim-hot-loop\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"streams\": {STREAMS},\n"));
    out.push_str(&format!("  \"arrival_rate_hz\": {RATE_HZ},\n"));
    out.push_str(&format!("  \"server_mean_fps\": {MEAN_FPS:.0},\n"));
    out.push_str("  \"golden_pins\": \"unchanged\",\n");
    out.push_str("  \"runs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"requests\": {},\n", r.requests));
        out.push_str(&format!(
            "      \"mode\": \"{}\",\n",
            if r.recovered {
                "faults+recovery"
            } else {
                "clean"
            }
        ));
        out.push_str(&format!("      \"generated\": {},\n", r.generated));
        out.push_str(&format!("      \"accounted\": {},\n", r.accounted));
        out.push_str(&format!("      \"events_scheduled\": {},\n", r.events));
        out.push_str(&format!("      \"events_delivered\": {},\n", r.delivered));
        out.push_str(&format!("      \"events_cancelled\": {},\n", r.cancelled));
        out.push_str(&format!("      \"rotations\": {},\n", r.rotations));
        out.push_str(&format!("      \"wall_ms\": {:.3},\n", r.wall_s * 1e3));
        out.push_str(&format!(
            "      \"events_per_sec\": {:.0},\n",
            r.events_per_sec()
        ));
        out.push_str(&format!(
            "      \"requests_per_sec\": {:.0},\n",
            r.requests_per_sec()
        ));
        out.push_str(&format!(
            "      \"baseline_wall_ms\": {:.3},\n",
            r.baseline_wall_s * 1e3
        ));
        out.push_str(&format!(
            "      \"baseline_events_per_sec\": {:.0},\n",
            r.baseline_events_per_sec()
        ));
        out.push_str(&format!("      \"speedup\": {:.2},\n", r.speedup()));
        out.push_str(&format!(
            "      \"pre_kernel_wall_ms\": {:.3},\n",
            r.pre_kernel_wall_s * 1e3
        ));
        out.push_str(&format!(
            "      \"kernel_speedup\": {:.2},\n",
            r.kernel_speedup()
        ));
        out.push_str(&format!(
            "      \"pre_soa_wall_ms\": {:.3},\n",
            r.pre_soa_wall_s * 1e3
        ));
        out.push_str(&format!("      \"soa_speedup\": {:.2},\n", r.soa_speedup()));
        out.push_str("      \"parity\": true\n");
        out.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("writing {path}: {e}"));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or(if smoke {
            "target/BENCH_sim.smoke.json"
        } else {
            "BENCH_sim.json"
        })
        .to_string();

    println!("== simbench: slab pool + timing-wheel queue + reusable scratch ==");
    if smoke {
        println!(
            "(smoke mode: parity checks plus the clean-row events/s floor; \
             other timings informational)"
        );
    }
    check_golden_pins();
    println!("golden pins unchanged (faulted + recovered)");

    let n_sizes = if smoke { 1 } else { SIZES.len() };
    let mut scratch = SimScratch::new();
    let mut t = Table::new(vec![
        "requests",
        "mode",
        "events",
        "cancelled",
        "wall (ms)",
        "events/s",
        "req/s",
        "baseline (ms)",
        "speedup",
        "kernel speedup",
        "soa speedup",
    ]);
    let mut rows = Vec::new();
    for size_idx in 0..n_sizes {
        for recovered in [false, true] {
            let r = bench_config(size_idx, recovered, &mut scratch, smoke);
            t.row(vec![
                r.requests.to_string(),
                if r.recovered {
                    "faults+recovery"
                } else {
                    "clean"
                }
                .to_string(),
                r.events.to_string(),
                r.cancelled.to_string(),
                format!("{:.1}", r.wall_s * 1e3),
                format!("{:.2}M", r.events_per_sec() / 1e6),
                format!("{:.2}M", r.requests_per_sec() / 1e6),
                format!("{:.1}", r.baseline_wall_s * 1e3),
                format!("{:.2}x", r.speedup()),
                format!("{:.2}x", r.kernel_speedup()),
                format!("{:.2}x", r.soa_speedup()),
            ]);
            rows.push(r);
        }
    }
    t.print();
    if smoke {
        smoke_throughput_gate(&rows);
    }
    write_json(&out_path, smoke, &rows);
    println!("wrote {out_path} (parity verified on all runs)");
}
