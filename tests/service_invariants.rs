//! Property invariants of the [`SwitchGovernor`] and a golden-pinned
//! checkpoint→crash→restore replay of the planning service
//! (DESIGN.md §2.13).
//!
//! The governor properties are exactly the hysteresis contract: the
//! minimum dwell time is never violated, the per-tick switch count is
//! bounded, and the accepted-switch set shrinks monotonically as the
//! hysteresis margin grows. The replay test kills a service mid-trace,
//! restores it from its last checkpoint, and requires the resumed run's
//! final checkpoint to be *bit-identical* (string-equal, with every f64
//! serialized as its IEEE-754 bit pattern) to a run that never stopped.
//!
//! [`SwitchGovernor`]: scalpel::core::service::SwitchGovernor

use proptest::prelude::*;
use scalpel::core::config::ScenarioConfig;
use scalpel::core::evaluator::{Assignment, EvalResult};
use scalpel::core::optimizer::{Budget, OptimizerConfig};
use scalpel::core::service::{GovernorConfig, PlanningService, ServiceConfig, SwitchGovernor};
use scalpel::core::validate::ProblemError;
use scalpel::sim::{ChurnKind, ChurnProfile, ChurnTrace};

/// An incumbent pricing carrying only what the governor reads.
fn eval_with_latencies(latency_s: Vec<f64>) -> EvalResult {
    let n = latency_s.len();
    EvalResult {
        latency_s,
        accuracy: vec![0.9; n],
        bandwidth_shares: vec![0.0; n],
        compute_shares: vec![0.0; n],
        objective: 0.0,
        expected_misses: 0,
        device_energy_j: vec![0.0; n],
        total_energy_j: vec![0.0; n],
    }
}

/// One governor tick's synthetic inputs: incumbent latencies (observed
/// into the rolling windows), a candidate placement, and the candidate's
/// priced per-stream latencies.
type TickInput = (Vec<f64>, Vec<usize>, Vec<f64>);

fn cfg_strategy() -> impl Strategy<Value = GovernorConfig> {
    (
        0.0f64..12.0, // min_dwell_s
        0.0f64..0.02, // switch_cost_s
        0.0f64..0.02, // hysteresis_margin_s
        0usize..4,    // max_switches_per_tick
        1usize..4,    // window
    )
        .prop_map(
            |(min_dwell_s, switch_cost_s, hysteresis_margin_s, max_switches_per_tick, window)| {
                GovernorConfig {
                    min_dwell_s,
                    switch_cost_s,
                    hysteresis_margin_s,
                    max_switches_per_tick,
                    window,
                }
            },
        )
}

/// Widest stream count the scripts exercise; each test slices the
/// per-tick vectors down to its drawn `streams` (the vendored proptest
/// has no `prop_flat_map`, so sizes cannot depend on other draws).
const MAX_STREAMS: usize = 5;

fn script_strategy() -> impl Strategy<Value = Vec<TickInput>> {
    prop::collection::vec(
        (
            prop::collection::vec(1e-3f64..0.2, MAX_STREAMS),
            prop::collection::vec(0usize..64, MAX_STREAMS),
            prop::collection::vec(1e-3f64..0.2, MAX_STREAMS),
        ),
        1..14,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replaying an arbitrary script of observe+govern ticks, the
    /// governor never lets a stream switch twice within `min_dwell_s`,
    /// never switches before its window holds `window` samples, never
    /// exceeds `max_switches_per_tick`, adopts exactly (candidate plans,
    /// incumbent placements except accepted switches), and accounts for
    /// every proposed switch in exactly one rejection bucket.
    #[test]
    fn governor_dwell_cap_and_accounting_hold(
        cfg in cfg_strategy(),
        streams in 1usize..MAX_STREAMS + 1,
        servers in 2usize..5,
        script in script_strategy(),
        tick_s in 0.5f64..3.0,
    ) {
        let mut gov = SwitchGovernor::new(cfg, streams);
        let mut warm = Assignment {
            plan_idx: vec![0; streams],
            placement: vec![0; streams],
        };
        let mut last_accept = vec![f64::NEG_INFINITY; streams];
        for (i, (inc_lat, cand_place, cand_lat)) in script.iter().enumerate() {
            let observes = i + 1;
            let now_s = observes as f64 * tick_s;
            gov.observe(&eval_with_latencies(inc_lat[..streams].to_vec()));
            let candidate = Assignment {
                plan_idx: vec![1; streams],
                placement: cand_place[..streams].iter().map(|p| p % servers).collect(),
            };
            let cand_lat = &cand_lat[..streams];
            let d = gov.govern(now_s, &warm, &candidate, cand_lat);

            // Per-tick switch cap.
            prop_assert!(d.switched.len() <= cfg.max_switches_per_tick,
                "tick {i}: {} switches > cap {}", d.switched.len(), cfg.max_switches_per_tick);
            // No switch before the rolling window is full.
            if !d.switched.is_empty() {
                prop_assert!(observes >= cfg.window,
                    "tick {i}: switched after {observes} observes with window {}", cfg.window);
            }
            // Dwell-time gate, using the same subtraction govern uses.
            for &k in &d.switched {
                prop_assert!(now_s - last_accept[k] >= cfg.min_dwell_s,
                    "tick {i}: stream {k} re-switched {}s after its last switch (dwell {})",
                    now_s - last_accept[k], cfg.min_dwell_s);
                last_accept[k] = now_s;
            }
            // Adoption structure: candidate plans pass through untouched,
            // placements move only for accepted switches.
            prop_assert_eq!(&d.adopted.plan_idx, &candidate.plan_idx);
            for k in 0..streams {
                let expect = if d.switched.contains(&k) {
                    candidate.placement[k]
                } else {
                    warm.placement[k]
                };
                prop_assert_eq!(d.adopted.placement[k], expect, "tick {} stream {}", i, k);
            }
            // Every proposed switch lands in exactly one bucket.
            let proposed = (0..streams)
                .filter(|&k| candidate.placement[k] != warm.placement[k])
                .count();
            prop_assert_eq!(
                proposed,
                d.switched.len() + d.rejected_window + d.rejected_dwell
                    + d.rejected_margin + d.rejected_cap,
                "tick {} accounting", i
            );
            warm = d.adopted;
        }
    }

    /// Hysteresis margin is monotone: from identical governor state and
    /// identical inputs, raising the margin can only shrink the accepted
    /// set — switched(hi) ⊆ switched(lo) — and move the difference into
    /// margin rejections.
    #[test]
    fn governor_margin_is_monotone(
        cfg in cfg_strategy(),
        streams in 1usize..MAX_STREAMS + 1,
        servers in 2usize..5,
        script in script_strategy(),
        extra_margin in 0.0f64..0.05,
        cand_place in prop::collection::vec(0usize..64, MAX_STREAMS),
        cand_lat in prop::collection::vec(1e-3f64..0.2, MAX_STREAMS),
    ) {
        let mut lo = SwitchGovernor::new(cfg, streams);
        for (inc_lat, _, _) in &script {
            lo.observe(&eval_with_latencies(inc_lat[..streams].to_vec()));
        }
        let mut hi = lo.clone();
        hi.cfg.hysteresis_margin_s += extra_margin;

        let warm = Assignment {
            plan_idx: vec![0; streams],
            placement: vec![0; streams],
        };
        let candidate = Assignment {
            plan_idx: vec![0; streams],
            placement: cand_place[..streams].iter().map(|p| p % servers).collect(),
        };
        let now_s = 100.0;
        let d_lo = lo.govern(now_s, &warm, &candidate, &cand_lat[..streams]);
        let d_hi = hi.govern(now_s, &warm, &candidate, &cand_lat[..streams]);
        for k in &d_hi.switched {
            prop_assert!(d_lo.switched.contains(k),
                "stream {k} switched under margin {} but not under {}",
                hi.cfg.hysteresis_margin_s, lo.cfg.hysteresis_margin_s);
        }
        prop_assert!(d_hi.rejected_margin >= d_lo.rejected_margin);
    }
}

/// The frozen replay scenario: 2 APs × 3 devices under a seeded churn
/// trace, clock-free evaluation budgets so replay is exact.
fn replay_setup() -> (ScenarioConfig, ServiceConfig, ChurnTrace, f64) {
    let scenario = ScenarioConfig {
        num_aps: 2,
        devices_per_ap: 3,
        arrival_rate_hz: 3.0,
        seed: 7,
        ..ScenarioConfig::default()
    };
    let cfg = ServiceConfig {
        optimizer: OptimizerConfig {
            rounds: 2,
            gibbs_iters: 20,
            ..OptimizerConfig::default()
        },
        replan_budget: Budget::evals(20_000),
        tick_s: 2.0,
        ..ServiceConfig::default()
    };
    let horizon_s = 24.0;
    let p = scenario.build();
    let trace = ChurnProfile {
        seed: 99,
        ..ChurnProfile::default()
    }
    .plan(
        p.cluster.devices.len(),
        p.cluster.aps.len(),
        p.cluster.servers.len(),
        p.streams.len(),
        horizon_s,
    );
    (scenario, cfg, trace, horizon_s)
}

/// Kill-and-restart mid-trace reproduces the uninterrupted run's final
/// checkpoint bit-for-bit, and the pinned summary of that run never
/// moves silently.
#[test]
fn crash_restore_replay_is_bit_identical_and_pinned() {
    let (scenario, cfg, trace, horizon_s) = replay_setup();

    // The run that never stops.
    let mut uninterrupted =
        PlanningService::new(scenario.build(), cfg.clone()).expect("scenario validates");
    let report = uninterrupted
        .drive_trace(&trace, horizon_s)
        .expect("fresh cursor");
    let final_ckpt = uninterrupted.checkpoint_text();

    // The run that crashes at half-horizon and restores from its last
    // persisted checkpoint (WAL discipline: checkpoint, then next batch).
    let mut crashed =
        PlanningService::new(scenario.build(), cfg.clone()).expect("scenario validates");
    crashed
        .drive_trace(&trace, horizon_s / 2.0)
        .expect("fresh cursor");
    let mid_ckpt = crashed.checkpoint_text();
    drop(crashed);
    let mut restored = PlanningService::restore(scenario.build(), cfg, &mid_ckpt)
        .expect("own checkpoint restores");
    restored
        .drive_trace(&trace, horizon_s)
        .expect("restored cursor lies within the trace");

    assert_eq!(
        restored.checkpoint_text(),
        final_ckpt,
        "restored replay diverged from the uninterrupted run"
    );

    // Golden pin on the uninterrupted run (format + trajectory). If a
    // legitimate planner change moves these, re-pin consciously — the
    // point is they never move *silently*.
    assert_eq!(
        final_ckpt.lines().next(),
        Some("scalpel-serve-checkpoint v1"),
        "checkpoint header changed — that is a format break"
    );
    let keys: Vec<&str> = final_ckpt
        .lines()
        .skip(1)
        .map(|l| l.split_whitespace().next().unwrap_or(""))
        .filter(|k| *k != "win")
        .collect();
    assert_eq!(
        keys,
        vec![
            "tick",
            "now",
            "cursor",
            "cursor_s",
            "dirty",
            "failures",
            "backoff",
            "degraded",
            "rejected_batches",
            "total_replans",
            "total_switches",
            "total_plan_changes",
            "remap_misses",
            "degraded_ticks",
            "shed_replans",
            "plan",
            "place",
            "link",
            "cap",
            "load",
            "up",
            "dwell",
            "end",
        ],
        "checkpoint key set changed — that is a format break"
    );
    let status = report.statuses.last().expect("non-empty drive").clone();
    let summary = (
        status.tick,
        status.total_replans,
        status.events_consumed,
        status.rejected_batches,
        status.degraded,
    );
    println!("golden service summary: {summary:?}");
    assert_eq!(
        summary,
        (12, 12, 151, 0, false),
        "golden service summary moved — re-pin only if the change is intentional"
    );
}

/// Restoring from the mid-trace checkpoint is exact even when the crash
/// lands between debounce and replan (`dirty > 0` in the checkpoint):
/// crash one tick later and the replay still converges to the same
/// final state.
#[test]
fn crash_point_does_not_matter() {
    let (scenario, cfg, trace, horizon_s) = replay_setup();
    let mut uninterrupted =
        PlanningService::new(scenario.build(), cfg.clone()).expect("scenario validates");
    uninterrupted
        .drive_trace(&trace, horizon_s)
        .expect("fresh cursor");
    let final_ckpt = uninterrupted.checkpoint_text();

    for crash_at in [cfg.tick_s * 2.0, cfg.tick_s * 5.0, cfg.tick_s * 9.0] {
        let mut crashed =
            PlanningService::new(scenario.build(), cfg.clone()).expect("scenario validates");
        crashed.drive_trace(&trace, crash_at).expect("fresh cursor");
        let ckpt = crashed.checkpoint_text();
        let mut restored = PlanningService::restore(scenario.build(), cfg.clone(), &ckpt)
            .expect("own checkpoint restores");
        restored
            .drive_trace(&trace, horizon_s)
            .expect("restored cursor lies within the trace");
        assert_eq!(
            restored.checkpoint_text(),
            final_ckpt,
            "replay diverged when crashing at t={crash_at}"
        );
    }
}

/// A checkpoint resumed on a trace that ends before its event cursor is
/// rejected with a typed error before any event is sliced, and the
/// rejected drive leaves the service untouched. A trace that ends
/// exactly at the cursor still resumes.
#[test]
fn restore_past_the_end_of_the_trace_is_a_typed_error() {
    let (scenario, cfg, trace, horizon_s) = replay_setup();
    let mut crashed =
        PlanningService::new(scenario.build(), cfg.clone()).expect("scenario validates");
    crashed
        .drive_trace(&trace, horizon_s / 2.0)
        .expect("fresh cursor");
    let cursor = crashed.cursor();
    assert!(cursor > 0, "the first half of the trace consumed no events");
    let ckpt = crashed.checkpoint_text();

    let mut restored = PlanningService::restore(scenario.build(), cfg.clone(), &ckpt)
        .expect("own checkpoint restores");
    let short = ChurnTrace {
        events: trace.events[..cursor - 1].to_vec(),
    };
    assert_eq!(
        restored.drive_trace(&short, horizon_s),
        Err(ProblemError::ChurnCursorPastTrace {
            cursor,
            events: cursor - 1,
        })
    );
    assert_eq!(
        restored.checkpoint_text(),
        ckpt,
        "a rejected drive must not tick"
    );

    let exact = ChurnTrace {
        events: trace.events[..cursor].to_vec(),
    };
    let mut restored =
        PlanningService::restore(scenario.build(), cfg, &ckpt).expect("own checkpoint restores");
    assert!(restored.drive_trace(&exact, horizon_s).is_ok());
}

/// A rejected batch is consumed by the service itself, so a checkpoint
/// taken after the rejection resumes past it. The replay trace with its
/// t = 3 s AP-0 drift pointed at a missing AP (one batch rejected), run
/// uninterrupted and run with a crash after tick 5 plus restore, ends in
/// the same checkpoint, the same status rows and the same assignment.
#[test]
fn rejected_batch_survives_crash_and_restore() {
    let (scenario, cfg, mut trace, horizon_s) = replay_setup();
    let poisoned = trace
        .events
        .iter_mut()
        .find(|e| e.at_s == 3.0 && matches!(e.kind, ChurnKind::LinkDrift { ap: 0, .. }))
        .expect("the trace drifts AP 0 at t = 3 s");
    if let ChurnKind::LinkDrift { ap, .. } = &mut poisoned.kind {
        *ap = 99;
    }

    let mut uninterrupted =
        PlanningService::new(scenario.build(), cfg.clone()).expect("scenario validates");
    let report = uninterrupted
        .drive_trace(&trace, horizon_s)
        .expect("fresh cursor");
    let status = report.statuses.last().expect("non-empty drive");
    assert_eq!(
        status.rejected_batches, 1,
        "the poisoned batch was not rejected"
    );
    assert_eq!(status.events_consumed, trace.events.len());

    let mut crashed =
        PlanningService::new(scenario.build(), cfg.clone()).expect("scenario validates");
    let mut statuses = crashed
        .drive_trace(&trace, 5.0 * cfg.tick_s)
        .expect("fresh cursor")
        .statuses;
    let ckpt = crashed.checkpoint_text();
    let mut restored =
        PlanningService::restore(scenario.build(), cfg, &ckpt).expect("own checkpoint restores");
    statuses.extend(
        restored
            .drive_trace(&trace, horizon_s)
            .expect("restored cursor lies within the trace")
            .statuses,
    );

    assert_eq!(restored.checkpoint_text(), uninterrupted.checkpoint_text());
    assert_eq!(statuses, report.statuses);
    assert_eq!(restored.assignment(), uninterrupted.assignment());
}
