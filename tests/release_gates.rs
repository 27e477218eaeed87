//! Release-mode speed floors.
//!
//! Each test runs only in an optimized build; a debug build marks them
//! ignored. The floors are absolute throughputs, so each one must be
//! timed alone:
//!
//! ```text
//! cargo test -q --release --test release_gates -- --test-threads=1
//! ```
//!
//! Add `--features scalpel-core/kernel-xcheck` to run the same gates with
//! the scalar kernel oracle beside every unrolled kernel call.
//!
//! * N = 512 incremental search reaches the pre-kernel evals/s baseline.
//! * The clean 1k-request simulation of a 512-stream fleet reaches
//!   6.0 M events/s.

use scalpel::core::baselines::{solve_with, Method};
use scalpel::core::compiler;
use scalpel::core::config::{ScenarioConfig, ServerMix};
use scalpel::core::evaluator::Evaluator;
use scalpel::core::optimizer::{self, EvalMode, OptimizerConfig};
use scalpel::sim::{EdgeSim, SimConfig, SimScratch};
use std::time::Instant;

/// N = 512 incremental evals/s before the SoA/SIMD pricing kernels; the
/// kernels landed about 4× above it, so only a real hot-path regression
/// trips the floor.
const N512_FLOOR_EVALS_PER_S: f64 = 69_443.2;

/// Clean 1k-request events/s before the columnar simulator rewrite.
const SIM_FLOOR_EVENTS_PER_S: f64 = 6.0e6;

/// A loaded-but-functional fleet of `streams` streams: 8 devices and one
/// 1 TFLOP/s-mean server per AP, so larger N means more resource groups.
fn fleet(streams: usize) -> ScenarioConfig {
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

/// One light search pass: a coordinate-descent round and 30 Gibbs steps.
fn light_search() -> OptimizerConfig {
    OptimizerConfig {
        rounds: 1,
        gibbs_iters: 30,
        ..OptimizerConfig::default()
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only")]
fn n512_incremental_search_meets_evals_floor() {
    let problem = fleet(512).build();
    let ev = Evaluator::new(&problem, None);
    let cfg = OptimizerConfig {
        eval_mode: EvalMode::Incremental,
        ..light_search()
    };
    let t0 = Instant::now();
    let sol = optimizer::solve(&ev, &cfg);
    let secs = t0.elapsed().as_secs_f64();
    let evals_per_s = sol.trace.evaluations as f64 / secs.max(1e-12);
    println!(
        "N=512 incremental search: {evals_per_s:.0} evals/s \
         (floor {N512_FLOOR_EVALS_PER_S:.0})"
    );
    assert!(
        evals_per_s >= N512_FLOOR_EVALS_PER_S,
        "N=512 incremental search fell below the pre-kernel baseline: \
         {evals_per_s:.0} < {N512_FLOOR_EVALS_PER_S:.0} evals/s"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only")]
fn clean_1k_request_sim_meets_events_floor() {
    // 64 APs × 8 devices at 4 req/s against 40 GFLOP/s servers: deep
    // processor-sharing queues, with a horizon sized to 1k requests.
    let (streams, rate_hz, requests, warmup_s) = (512usize, 4.0, 1_000usize, 1.0);
    let num_aps = streams / 8;
    let cfg = ScenarioConfig {
        num_aps,
        devices_per_ap: streams / num_aps,
        arrival_rate_hz: rate_hz,
        servers: ServerMix::Synthetic {
            count: num_aps,
            mean_fps: 4e10,
            cv: 0.3,
        },
        sim: SimConfig {
            horizon_s: warmup_s + requests as f64 / (streams as f64 * rate_hz),
            warmup_s,
            seed: 11,
            fading: true,
            ..SimConfig::default()
        },
        ..ScenarioConfig::default()
    };
    let problem = cfg.build();
    let ev = Evaluator::new(&problem, None);
    let opt = OptimizerConfig {
        rounds: 1,
        gibbs_iters: 0,
        ..OptimizerConfig::default()
    };
    let sol = solve_with(&ev, Method::Neurosurgeon, &opt);
    let compiled = compiler::compile(&problem, &ev, &sol.assignment, &sol.result);
    let sim = EdgeSim::new(problem.cluster.clone(), compiled, cfg.sim).expect("valid streams");

    // A fresh run and one untimed pass on the scratch warm the caches
    // and size the scratch; then best of 3 on it.
    let _ = sim.run();
    let mut scratch = SimScratch::new();
    let _ = sim.run_with_scratch(&mut scratch);
    let mut best_s = f64::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        let _ = sim.run_with_scratch(&mut scratch);
        best_s = best_s.min(t0.elapsed().as_secs_f64());
    }
    let events_per_s = scratch.events_scheduled() as f64 / best_s.max(1e-12);
    println!(
        "clean 1k-request sim: {:.2} M events/s (floor {:.2} M)",
        events_per_s / 1e6,
        SIM_FLOOR_EVENTS_PER_S / 1e6
    );
    assert!(
        events_per_s >= SIM_FLOOR_EVENTS_PER_S,
        "clean 1k-request sim fell below the events/s floor: \
         {events_per_s:.0} < {SIM_FLOOR_EVENTS_PER_S:.0}"
    );
}
