//! Optimizer micro-benchmark: full re-evaluation vs incremental delta
//! evaluation on identical searches.
//!
//! ```text
//! perfbench [--smoke] [--out PATH]
//! ```
//!
//! Runs the joint search (coordinate descent + Gibbs refinement) twice per
//! problem size — once with `EvalMode::Full`, once with
//! `EvalMode::Incremental` — asserts the two walked bit-identical
//! objective traces and landed on identical assignments, and reports wall
//! time, evaluations/second and the speedup. Results land in
//! `BENCH_optimizer.json` (override with `--out`); `--smoke` results
//! default to `target/BENCH_optimizer.smoke.json`, so a smoke run never
//! overwrites the committed record.
//!
//! The fleet-scale section benchmarks `solve_sharded` (partition →
//! parallel shard solves → reconcile → polish) at N = 4096 / 10⁴ / 10⁵
//! and measures the objective gap to the centralized solver at N = 512,
//! asserting it stays ≤ 2% (DESIGN.md §2.12).
//!
//! `--smoke` runs the smallest size with a short search: a CI-friendly
//! parity check with no timing assertions (timings are still recorded),
//! plus one sharded row (N = 4096) with determinism/trace-parity
//! assertions and the N = 512 gap check.
//! The full run (`cargo run --release -p scalpel-bench --bin perfbench`)
//! regenerates the numbers quoted in EXPERIMENTS.md.

use scalpel_bench::table::Table;
use scalpel_core::config::{ScenarioConfig, ServerMix};
use scalpel_core::evaluator::Evaluator;
use scalpel_core::optimizer::{self, Budget, EvalMode, OptimizerConfig, Solution};
use scalpel_core::shard::{self, ShardConfig};
use std::time::Instant;

/// Asserted ceiling on the sharded-vs-centralized objective gap at N=512.
const GAP_BOUND_PCT: f64 = 2.0;

/// `incremental_evals_per_sec` on the N=512 row of BENCH_optimizer.json
/// as recorded *before* the SoA/SIMD kernel work. The smoke gate asserts
/// current throughput never falls below this; the kernels landed ~5.8×
/// above it, so the wide margin absorbs CI-runner noise and the gate only
/// fires on a genuine hot-path regression.
const N512_BASELINE_EVALS_PER_SEC: f64 = 69_443.2;

/// `incremental_evals_per_sec` per size row as recorded in
/// BENCH_optimizer.json at this PR's parent commit (before the SoA/SIMD
/// kernel work); `kernel_speedup` in the JSON is measured against these.
fn pre_kernel_evals_per_sec(streams: usize) -> Option<f64> {
    match streams {
        32 => Some(218_849.9),
        128 => Some(137_552.9),
        512 => Some(N512_BASELINE_EVALS_PER_SEC),
        _ => None,
    }
}

struct SizeReport {
    streams: usize,
    servers: usize,
    menu_plans: usize,
    evaluations: usize,
    full_ms: f64,
    incremental_ms: f64,
    speedup: f64,
    objective: f64,
}

fn scenario(streams: usize) -> ScenarioConfig {
    // Grow the topology, not the per-group load: 8 devices per AP and one
    // server per AP throughout, so every size is a loaded-but-functional
    // system (offloading actually happens) and larger N means more
    // resource groups — the regime the incremental evaluator targets.
    let num_aps = (streams / 8).max(1);
    ScenarioConfig {
        num_aps,
        devices_per_ap: streams.div_ceil(num_aps),
        servers: ServerMix::Synthetic {
            count: num_aps,
            mean_fps: 1e12,
            cv: 0.3,
        },
        ..ScenarioConfig::default()
    }
}

fn assert_parity(full: &Solution, inc: &Solution, streams: usize) {
    assert_eq!(
        full.trace.evaluations, inc.trace.evaluations,
        "N={streams}: evaluation counts diverged"
    );
    assert_eq!(
        full.trace.objective.len(),
        inc.trace.objective.len(),
        "N={streams}: trace lengths diverged"
    );
    for (i, (a, b)) in full
        .trace
        .objective
        .iter()
        .zip(&inc.trace.objective)
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "N={streams}: trace[{i}] diverged: {a} vs {b}"
        );
    }
    assert_eq!(
        full.assignment, inc.assignment,
        "N={streams}: final assignments diverged"
    );
    assert_eq!(
        full.result.objective.to_bits(),
        inc.result.objective.to_bits(),
        "N={streams}: final objectives diverged"
    );
}

fn bench_size(streams: usize, smoke: bool) -> SizeReport {
    let scfg = scenario(streams);
    let problem = scfg.build();
    let ev = Evaluator::new(&problem, None);
    let base = OptimizerConfig {
        rounds: if smoke { 1 } else { 2 },
        gibbs_iters: if smoke { 30 } else { 100 },
        ..Default::default()
    };
    let menu_plans: usize = (0..ev.num_streams()).map(|k| ev.menu(k).len()).sum();

    let full_cfg = OptimizerConfig {
        eval_mode: EvalMode::Full,
        ..base.clone()
    };
    let t0 = Instant::now();
    let full = optimizer::solve(&ev, &full_cfg);
    let full_ms = t0.elapsed().as_secs_f64() * 1e3;

    let inc_cfg = OptimizerConfig {
        eval_mode: EvalMode::Incremental,
        ..base
    };
    let t1 = Instant::now();
    let inc = optimizer::solve(&ev, &inc_cfg);
    let incremental_ms = t1.elapsed().as_secs_f64() * 1e3;

    assert_parity(&full, &inc, ev.num_streams());

    // Anytime-API guard: an unconstrained budget must be a pure pass-through
    // — same trace, same assignment, same objective bits as plain `solve`.
    let anytime = optimizer::solve_with_budget(&ev, &inc_cfg, Budget::UNLIMITED);
    assert!(
        anytime.converged,
        "N={}: unlimited budget reported non-convergence",
        ev.num_streams()
    );
    assert_parity(&inc, &anytime.solution, ev.num_streams());

    SizeReport {
        streams: ev.num_streams(),
        servers: ev.num_servers(),
        menu_plans,
        evaluations: inc.trace.evaluations,
        full_ms,
        incremental_ms,
        speedup: full_ms / incremental_ms.max(1e-9),
        objective: inc.result.objective,
    }
}

fn evals_per_sec(evals: usize, ms: f64) -> f64 {
    evals as f64 / (ms / 1e3).max(1e-12)
}

/// Smoke-mode throughput regression gate: a short incremental-only search
/// at N=512 (the row the kernel work targets) must not fall below the
/// pre-kernel baseline recorded in BENCH_optimizer.json.
fn smoke_throughput_gate() {
    let problem = scenario(512).build();
    let ev = Evaluator::new(&problem, None);
    let cfg = OptimizerConfig {
        rounds: 1,
        gibbs_iters: 30,
        eval_mode: EvalMode::Incremental,
        ..Default::default()
    };
    let t0 = Instant::now();
    let sol = optimizer::solve(&ev, &cfg);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let eps = evals_per_sec(sol.trace.evaluations, ms);
    println!(
        "\nN=512 incremental throughput gate: {:.0} evals/s \
         (floor: pre-kernel baseline {N512_BASELINE_EVALS_PER_SEC:.0})",
        eps
    );
    assert!(
        eps >= N512_BASELINE_EVALS_PER_SEC,
        "N=512 incremental throughput regressed below the pre-kernel \
         baseline: {eps:.0} < {N512_BASELINE_EVALS_PER_SEC:.0} evals/s"
    );
}

struct ShardRow {
    streams: usize,
    shards: usize,
    wall_ms: f64,
    evaluations: usize,
    objective: f64,
    remap_misses: usize,
    reconcile_moves: usize,
    converged: bool,
}

/// Sharded-solver configuration used by every fleet-scale row: default
/// 2048-stream cap, one light descent+Gibbs pass per shard.
fn fleet_cfg(smoke: bool) -> ShardConfig {
    ShardConfig {
        opt: OptimizerConfig {
            rounds: 1,
            gibbs_iters: if smoke { 10 } else { 30 },
            ..Default::default()
        },
        ..ShardConfig::default()
    }
}

fn bench_sharded(streams: usize, smoke: bool) -> ShardRow {
    let problem = scenario(streams).build();
    let cfg = fleet_cfg(smoke);
    // The two smaller rows run to convergence (deterministic, asserted in
    // smoke); the 10⁵ row runs under a 180 s wall budget — the anytime
    // contract at fleet scale, with `converged` recorded honestly.
    let budget = if streams >= 100_000 {
        Budget::wall(std::time::Duration::from_secs(180))
    } else {
        Budget::UNLIMITED
    };
    eprintln!("  [sharded] N={streams}: solving…");
    let t0 = Instant::now();
    let out = shard::solve_sharded(&problem, &cfg, budget)
        .unwrap_or_else(|e| panic!("N={streams}: sharded solve rejected: {e}"));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(
        out.outcome.solution.result.objective.is_finite(),
        "N={streams}: sharded objective not finite"
    );
    if smoke {
        // Determinism / trace parity: a second unbudgeted run must walk a
        // bit-identical trace to a bit-identical incumbent.
        let again = shard::solve_sharded(&problem, &cfg, Budget::UNLIMITED)
            .unwrap_or_else(|e| panic!("N={streams}: sharded re-solve rejected: {e}"));
        assert_parity(&out.outcome.solution, &again.outcome.solution, streams);
    }
    ShardRow {
        streams: problem.streams.len(),
        shards: out.plan.shards.len(),
        wall_ms,
        evaluations: out.outcome.spent.evaluations,
        objective: out.outcome.solution.result.objective,
        remap_misses: out.remap_misses,
        reconcile_moves: out.reconcile.moves,
        converged: out.outcome.converged,
    }
}

struct GapReport {
    streams: usize,
    central: f64,
    sharded: f64,
    gap_pct: f64,
}

/// Objective gap to the centralized solver, measured where the
/// centralized solve is still tractable (N = 512) with the shard cap
/// forced low enough that bisection actually splits the fleet.
fn measure_gap(smoke: bool) -> GapReport {
    let streams = 512;
    let problem = scenario(streams).build();
    let ev = Evaluator::new(&problem, None);
    let opt = OptimizerConfig {
        rounds: if smoke { 1 } else { 2 },
        gibbs_iters: if smoke { 30 } else { 100 },
        ..Default::default()
    };
    let central = optimizer::solve(&ev, &opt);
    let cfg = ShardConfig {
        max_streams: 128,
        opt: opt.clone(),
        polish_gibbs: 100,
        ..ShardConfig::default()
    };
    let out = shard::solve_sharded(&problem, &cfg, Budget::UNLIMITED)
        .unwrap_or_else(|e| panic!("gap run rejected: {e}"));
    assert!(out.plan.shards.len() > 1, "gap run must actually shard");
    let sharded = out.outcome.solution.result.objective;
    let gap_pct = (sharded - central.result.objective) / central.result.objective * 100.0;
    assert!(
        gap_pct <= GAP_BOUND_PCT,
        "N={streams}: sharded gap {gap_pct:.3}% exceeds {GAP_BOUND_PCT}%"
    );
    GapReport {
        streams,
        central: central.result.objective,
        sharded,
        gap_pct,
    }
}

fn write_json(path: &str, smoke: bool, rows: &[SizeReport], fleet: &[ShardRow], gap: &GapReport) {
    // Hand-formatted: the vendored serde stand-in has no derive codegen.
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"optimizer-incremental-eval\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str("  \"sizes\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"streams\": {},\n", r.streams));
        out.push_str(&format!("      \"servers\": {},\n", r.servers));
        out.push_str(&format!("      \"menu_plans\": {},\n", r.menu_plans));
        out.push_str(&format!("      \"evaluations\": {},\n", r.evaluations));
        out.push_str(&format!("      \"full_ms\": {:.3},\n", r.full_ms));
        out.push_str(&format!(
            "      \"incremental_ms\": {:.3},\n",
            r.incremental_ms
        ));
        out.push_str(&format!(
            "      \"full_evals_per_sec\": {:.1},\n",
            evals_per_sec(r.evaluations, r.full_ms)
        ));
        out.push_str(&format!(
            "      \"incremental_evals_per_sec\": {:.1},\n",
            evals_per_sec(r.evaluations, r.incremental_ms)
        ));
        out.push_str(&format!("      \"speedup\": {:.2},\n", r.speedup));
        if let Some(pre) = pre_kernel_evals_per_sec(r.streams) {
            out.push_str(&format!("      \"pre_kernel_evals_per_sec\": {pre:.1},\n"));
            out.push_str(&format!(
                "      \"kernel_speedup\": {:.2},\n",
                evals_per_sec(r.evaluations, r.incremental_ms) / pre
            ));
        }
        out.push_str(&format!("      \"objective\": {:.9},\n", r.objective));
        out.push_str("      \"parity\": true\n");
        out.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"sharded\": [\n");
    for (i, r) in fleet.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"streams\": {},\n", r.streams));
        out.push_str(&format!("      \"shards\": {},\n", r.shards));
        out.push_str(&format!("      \"wall_ms\": {:.3},\n", r.wall_ms));
        out.push_str(&format!("      \"evaluations\": {},\n", r.evaluations));
        out.push_str(&format!("      \"objective\": {:.9},\n", r.objective));
        out.push_str(&format!("      \"remap_misses\": {},\n", r.remap_misses));
        out.push_str(&format!(
            "      \"reconcile_moves\": {},\n",
            r.reconcile_moves
        ));
        out.push_str(&format!("      \"converged\": {}\n", r.converged));
        out.push_str(if i + 1 == fleet.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"gap_to_centralized\": {\n");
    out.push_str(&format!("    \"streams\": {},\n", gap.streams));
    out.push_str(&format!("    \"central_objective\": {:.9},\n", gap.central));
    out.push_str(&format!("    \"sharded_objective\": {:.9},\n", gap.sharded));
    out.push_str(&format!("    \"gap_pct\": {:.4},\n", gap.gap_pct));
    out.push_str(&format!("    \"bound_pct\": {GAP_BOUND_PCT:.1}\n"));
    out.push_str("  }\n}\n");
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
            "target/BENCH_optimizer.smoke.json"
        } else {
            "BENCH_optimizer.json"
        })
        .to_string();

    let sizes: &[usize] = if smoke { &[32] } else { &[32, 128, 512] };
    println!("== perfbench: full vs incremental evaluation ==");
    if smoke {
        println!("(smoke mode: parity check only, timings informational)");
    }
    let mut t = Table::new(vec![
        "streams",
        "evaluations",
        "full (ms)",
        "incr (ms)",
        "full evals/s",
        "incr evals/s",
        "speedup",
        "objective",
    ]);
    let mut rows = Vec::new();
    for &n in sizes {
        let r = bench_size(n, smoke);
        t.row(vec![
            r.streams.to_string(),
            r.evaluations.to_string(),
            format!("{:.1}", r.full_ms),
            format!("{:.1}", r.incremental_ms),
            format!("{:.0}", evals_per_sec(r.evaluations, r.full_ms)),
            format!("{:.0}", evals_per_sec(r.evaluations, r.incremental_ms)),
            format!("{:.2}x", r.speedup),
            format!("{:.4}", r.objective),
        ]);
        rows.push(r);
    }
    t.print();

    if smoke {
        smoke_throughput_gate();
    }

    let fleet_sizes: &[usize] = if smoke {
        &[4096]
    } else {
        &[4096, 10_000, 100_000]
    };
    println!("\n== perfbench: fleet-scale sharded solve ==");
    let mut ft = Table::new(vec![
        "streams",
        "shards",
        "wall (ms)",
        "evaluations",
        "objective",
        "remap miss",
        "moves",
        "converged",
    ]);
    let mut fleet = Vec::new();
    for &n in fleet_sizes {
        let r = bench_sharded(n, smoke);
        ft.row(vec![
            r.streams.to_string(),
            r.shards.to_string(),
            format!("{:.1}", r.wall_ms),
            r.evaluations.to_string(),
            format!("{:.4}", r.objective),
            r.remap_misses.to_string(),
            r.reconcile_moves.to_string(),
            r.converged.to_string(),
        ]);
        fleet.push(r);
    }
    ft.print();

    let gap = measure_gap(smoke);
    println!(
        "gap-to-centralized at N={}: {:+.4}% (central {:.6}, sharded {:.6}, bound {:.1}%)",
        gap.streams, gap.gap_pct, gap.central, gap.sharded, GAP_BOUND_PCT
    );

    write_json(&out_path, smoke, &rows, &fleet, &gap);
    println!("wrote {out_path} (parity verified on all sizes)");
}
