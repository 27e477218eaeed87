//! Property-based invariants of the discrete-event simulator.

use proptest::prelude::*;
use scalpel_models::{ExitBehavior, ProcessorClass};
use scalpel_sim::{
    ApSpec, ArrivalProcess, Cluster, CompiledStream, DeviceSpec, EdgeSim, ServerSpec, SimConfig,
};

fn cluster(n_devices: usize) -> Cluster {
    Cluster {
        devices: (0..n_devices)
            .map(|id| DeviceSpec {
                id,
                proc: ProcessorClass::JetsonNano.spec(),
                ap: 0,
                distance_m: 30.0,
            })
            .collect(),
        aps: vec![ApSpec {
            id: 0,
            bandwidth_hz: 20e6,
            rtt_s: 2e-3,
        }],
        servers: vec![ServerSpec {
            id: 0,
            proc: ProcessorClass::EdgeGpuT4.spec(),
        }],
    }
}

/// A random *stable* stream (light utilization by construction).
fn stream_strategy(id: usize, n_devices: usize) -> impl Strategy<Value = CompiledStream> {
    (
        0.5f64..3.0,       // arrival rate
        0.0005f64..0.01,   // device full time
        1e7f64..5e9,       // edge flops
        1e4f64..2e5,       // tx bytes
        0.0f64..0.6,       // exit probability
        0usize..n_devices, // device
    )
        .prop_map(move |(rate, dev_t, edge, tx, exit_p, device)| {
            let behavior = if exit_p > 0.0 {
                ExitBehavior {
                    exit_probs: vec![exit_p],
                    cum: vec![exit_p],
                    remain_prob: 1.0 - exit_p,
                    expected_accuracy: 0.75,
                }
            } else {
                ExitBehavior::no_exits(0.76)
            };
            CompiledStream {
                id,
                device,
                server: Some(0),
                arrivals: ArrivalProcess::Poisson { rate_hz: rate },
                deadline_s: 0.25,
                device_time_to_exit: if exit_p > 0.0 {
                    vec![dev_t * 0.4]
                } else {
                    vec![]
                },
                device_full_time: dev_t,
                tx_bytes: tx,
                edge_flops: edge,
                acc_at_exit: if exit_p > 0.0 { vec![0.73] } else { vec![] },
                acc_full: 0.76,
                behavior,
                bandwidth_share: 1.0 / n_devices as f64,
                compute_weight: 1.0,
                degrade: scalpel_sim::DegradeLadder::none(),
                fallback_servers: vec![],
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: under stable load every measured request completes,
    /// latencies are at least the raw service time, and accuracy values
    /// stay within the configured band.
    #[test]
    fn conservation_and_bounds(
        seed in 1u64..1000,
        streams in prop::collection::vec(stream_strategy(0, 3), 1..4),
    ) {
        let streams: Vec<CompiledStream> = streams
            .into_iter()
            .enumerate()
            .map(|(i, mut s)| {
                s.id = i;
                s
            })
            .collect();
        let sim = EdgeSim::new(
            cluster(3),
            streams.clone(),
            SimConfig {
                horizon_s: 8.0,
                warmup_s: 1.0,
                seed,
                fading: true,
                ..SimConfig::default()
            },
        )
        .expect("valid streams");
        let (report, log) = sim.run_logged();
        let trace = log.tasks;
        prop_assert_eq!(report.completed, report.generated);
        prop_assert_eq!(trace.len(), report.completed);
        for r in &trace {
            let s = &streams[r.stream];
            let min_service = match r.exit {
                Some(i) => s.device_time_to_exit[i],
                None => s.device_full_time,
            };
            prop_assert!(r.latency_s + 1e-9 >= min_service,
                "latency {} below service {}", r.latency_s, min_service);
        }
        if report.completed > 0 {
            prop_assert!(report.mean_accuracy >= 0.72 && report.mean_accuracy <= 0.77);
        }
    }

    /// Determinism as a property: any stream set + seed reproduces.
    #[test]
    fn determinism_property(
        seed in 1u64..500,
        s in stream_strategy(0, 1),
    ) {
        let cfg = SimConfig {
            horizon_s: 5.0,
            warmup_s: 0.5,
            seed,
            fading: true,
            ..SimConfig::default()
        };
        let a = EdgeSim::new(cluster(1), vec![s.clone()], cfg.clone())
            .expect("valid")
            .run();
        let b = EdgeSim::new(cluster(1), vec![s], cfg).expect("valid").run();
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.latency.mean, b.latency.mean);
    }
}
