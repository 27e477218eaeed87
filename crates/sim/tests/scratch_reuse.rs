//! Scratch reuse is observation-free: a [`SimScratch`] that has already
//! simulated other seeds (or other postures) must produce bit-for-bit
//! the report and trace a fresh scratch would. Anything less means run
//! state leaked across `reset` — the one failure mode that would make
//! the optimizer's per-worker scratch reuse unsound.

use scalpel_models::{ExitBehavior, ProcessorClass};
use scalpel_sim::{
    ApSpec, ArrivalProcess, Cluster, CompiledStream, DeviceSpec, EdgeSim, FaultProfile,
    LatencyStats, RecoveryConfig, RunTrace, ServerSpec, SimConfig, SimReport, SimScratch,
};

const N_DEVICES: usize = 3;
const N_APS: usize = 2;
const N_SERVERS: usize = 2;
const HORIZON_S: f64 = 8.0;

fn cluster() -> Cluster {
    Cluster {
        devices: (0..N_DEVICES)
            .map(|id| DeviceSpec {
                id,
                proc: ProcessorClass::JetsonNano.spec(),
                ap: id % N_APS,
                distance_m: 30.0,
            })
            .collect(),
        aps: (0..N_APS)
            .map(|id| ApSpec {
                id,
                bandwidth_hz: 20e6,
                rtt_s: 2e-3,
            })
            .collect(),
        servers: (0..N_SERVERS)
            .map(|id| ServerSpec {
                id,
                proc: ProcessorClass::EdgeGpuT4.spec(),
            })
            .collect(),
    }
}

fn streams() -> Vec<CompiledStream> {
    (0..N_DEVICES)
        .map(|d| CompiledStream {
            id: d,
            device: d,
            server: Some(d % N_SERVERS),
            arrivals: ArrivalProcess::Poisson { rate_hz: 3.0 },
            deadline_s: 0.25,
            device_time_to_exit: vec![],
            device_full_time: 0.004,
            tx_bytes: 8e4,
            edge_flops: 5e8,
            behavior: ExitBehavior::no_exits(0.76),
            acc_at_exit: vec![],
            acc_full: 0.76,
            bandwidth_share: 1.0 / N_DEVICES as f64,
            compute_weight: 1.0,
            degrade: scalpel_sim::DegradeLadder::none(),
            fallback_servers: vec![],
        })
        .collect()
}

/// The clean posture: no faults, no recovery.
fn clean_config(seed: u64) -> SimConfig {
    SimConfig {
        horizon_s: HORIZON_S,
        warmup_s: 1.0,
        seed,
        fading: true,
        ..SimConfig::default()
    }
}

/// A faulted, fully-recovered posture: exercises the breakers, retry
/// watchdogs and shed/degrade paths that keep the most per-run state.
fn faulted_config(seed: u64) -> SimConfig {
    SimConfig {
        faults: FaultProfile {
            seed: 5,
            rate_hz: 0.8,
            mean_outage_s: 1.5,
            start_s: 0.5,
            classes: Vec::new(),
        }
        .plan(N_DEVICES, N_APS, N_SERVERS, HORIZON_S),
        recovery: RecoveryConfig::full(),
        ..clean_config(seed)
    }
}

/// Every field of two latency summaries, floats compared as bits.
fn assert_latency_identical(a: &LatencyStats, b: &LatencyStats, what: &str) {
    assert_eq!(a.count, b.count, "{what}: latency count");
    for (field, x, y) in [
        ("mean", a.mean, b.mean),
        ("p50", a.p50, b.p50),
        ("p95", a.p95, b.p95),
        ("p99", a.p99, b.p99),
        ("max", a.max, b.max),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: latency {field}");
    }
}

/// Every observable field of two reports, compared at the bit level
/// (floats via `to_bits`, so `-0.0` vs `0.0` or a 1-ulp drift fails).
fn assert_reports_identical(a: &SimReport, b: &SimReport, what: &str) {
    assert_eq!(a.generated, b.generated, "{what}: generated");
    assert_eq!(a.completed, b.completed, "{what}: completed");
    assert_latency_identical(&a.latency, &b.latency, what);
    assert_eq!(
        a.deadline_ratio.to_bits(),
        b.deadline_ratio.to_bits(),
        "{what}: deadline ratio"
    );
    assert_eq!(
        a.mean_accuracy.to_bits(),
        b.mean_accuracy.to_bits(),
        "{what}: mean accuracy"
    );
    assert_eq!(
        a.early_exit_fraction.to_bits(),
        b.early_exit_fraction.to_bits(),
        "{what}: early-exit fraction"
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
        assert_latency_identical(&p.latency, &q.latency, &format!("{what}: stream"));
        assert_eq!(
            p.mean_accuracy.to_bits(),
            q.mean_accuracy.to_bits(),
            "{what}: stream accuracy"
        );
        assert_eq!(p.early_exits, q.early_exits, "{what}: stream exits");
        for (field, x, y) in [
            ("wait", p.mean_device_wait, q.mean_device_wait),
            ("service", p.mean_device_service, q.mean_device_service),
            ("tx", p.mean_tx, q.mean_tx),
            ("edge", p.mean_edge, q.mean_edge),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: stream {field}");
        }
    }
    assert_eq!(a.faults, b.faults, "{what}: fault metrics");
    assert_eq!(a.recovery, b.recovery, "{what}: recovery metrics");
}

fn assert_traces_identical(a: &RunTrace, b: &RunTrace, what: &str) {
    assert_eq!(a.tasks.len(), b.tasks.len(), "{what}: task count");
    for (i, (p, q)) in a.tasks.iter().zip(&b.tasks).enumerate() {
        assert_eq!(p.stream, q.stream, "{what}: task[{i}] stream");
        assert_eq!(p.exit, q.exit, "{what}: task[{i}] exit");
        for (n, (x, y)) in [
            (p.arrival_s, q.arrival_s),
            (p.device_wait_s, q.device_wait_s),
            (p.device_service_s, q.device_service_s),
            (p.tx_s, q.tx_s),
            (p.edge_s, q.edge_s),
            (p.latency_s, q.latency_s),
        ]
        .iter()
        .enumerate()
        {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: task[{i}] field {n} diverged"
            );
        }
    }
    assert_eq!(a.faults, b.faults, "{what}: fault records");
    assert_eq!(a.health, b.health, "{what}: health snapshots");
}

/// Seeds {a, b} through one shared scratch — including re-running seed
/// `a` after `b` has dirtied every buffer — match fresh-scratch runs
/// bit-for-bit, reports and full trace logs alike, in the faulted and
/// the clean posture. The scratch is shared across postures too, so the
/// clean runs start from buffers the faulted runs dirtied.
#[test]
fn reused_scratch_runs_match_fresh_runs_across_seeds() {
    let (seed_a, seed_b) = (41, 42);
    let mut scratch = SimScratch::new();
    for (posture, config) in [
        ("faulted", faulted_config as fn(u64) -> SimConfig),
        ("clean", clean_config),
    ] {
        let sim_a = EdgeSim::new(cluster(), streams(), config(seed_a)).expect("valid");
        let sim_b = EdgeSim::new(cluster(), streams(), config(seed_b)).expect("valid");
        let (fresh_a, trace_a) = sim_a.run_logged();
        let (fresh_b, trace_b) = sim_b.run_logged();
        // The two seeds must actually diverge, or reuse equality is vacuous.
        assert_ne!(
            trace_a.tasks.len() + trace_a.faults.len(),
            0,
            "{posture}: seed {seed_a} produced an empty run"
        );

        let what = format!("{posture}, seed a, warm-up pass");
        let (r1, t1) = sim_a.run_logged_with_scratch(&mut scratch);
        assert_reports_identical(&fresh_a, &r1, &what);
        assert_traces_identical(&trace_a, &t1, &what);

        let what = format!("{posture}, seed b after seed a");
        let (r2, t2) = sim_b.run_logged_with_scratch(&mut scratch);
        assert_reports_identical(&fresh_b, &r2, &what);
        assert_traces_identical(&trace_b, &t2, &what);

        let what = format!("{posture}, seed a after seed b");
        let (r3, t3) = sim_a.run_logged_with_scratch(&mut scratch);
        assert_reports_identical(&fresh_a, &r3, &what);
        assert_traces_identical(&trace_a, &t3, &what);
    }
}

/// An un-logged reused-scratch run agrees with `EdgeSim::run`, and the
/// logging flag itself leaves no residue in the scratch.
#[test]
fn logging_leaves_no_residue_in_reused_scratch() {
    let sim = EdgeSim::new(cluster(), streams(), faulted_config(7)).expect("valid");
    let fresh = sim.run();
    let mut scratch = SimScratch::new();
    let (_, logged_trace) = sim.run_logged_with_scratch(&mut scratch);
    assert!(
        !logged_trace.tasks.is_empty(),
        "logged run recorded nothing"
    );
    let unlogged = sim.run_with_scratch(&mut scratch);
    assert_reports_identical(&fresh, &unlogged, "unlogged after logged");
}
