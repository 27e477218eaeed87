//! Closed-loop failure recovery: retry policies, circuit breakers, and
//! health telemetry.
//!
//! PR 1's fault layer made the simulator *observe* disruptions; this
//! module makes it *react*. Three policy layers compose (each independently
//! optional, all off by default so a [`RecoveryConfig::none`] run is
//! bit-identical to the pre-recovery simulator):
//!
//! * **Per-request** ([`RecoveryConfig::retry`]): an uplink transmission
//!   that makes no progress within a deadline-aware timeout is cancelled
//!   and retried with exponential backoff, up to a bounded budget; when
//!   the budget is exhausted the request falls down its stream's
//!   degradation ladder (see `scalpel_surgery::degrade`) instead of
//!   stranding.
//! * **Per-target** ([`BreakerConfig`] / [`CircuitBreaker`]): rolling
//!   health windows on every AP and server drive closed → open →
//!   half-open breakers, so retries stop hammering dead targets and
//!   recovering ones are probed with bounded traffic.
//! * **Control-plane** ([`HealthSnapshot`]): one telemetry epoch per
//!   second summarizes timeout rates, SLO misses and breaker states; the
//!   `scalpel-core` fault detector consumes these to trigger warm-started
//!   re-solves.
//!
//! Everything is deterministic: breakers transition only at event times,
//! probe admission is counter-based, and no new RNG draws happen unless a
//! retry actually re-transmits (which re-draws fading exactly like any
//! fresh transmission).

use crate::error::SimError;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Retransmission attempts allowed beyond the first.
pub(crate) const MAX_RETRIES: u32 = 2;

/// Timeout of the first attempt, seconds.
const BASE_TIMEOUT_S: f64 = 0.25;

/// Multiplier applied to the timeout per retry (exponential backoff).
const BACKOFF: f64 = 2.0;

/// Timeout ceiling, seconds.
const MAX_TIMEOUT_S: f64 = 2.0;

/// Effective uplink timeout for attempt `attempt` (0-based),
/// deadline-aware: exponential backoff clamped to the ceiling, then to
/// the request's remaining slack (never below half the base, so a
/// request that is already late still gets a meaningful watch interval).
pub(crate) fn retry_timeout_s(attempt: u32, slack_s: f64) -> f64 {
    let backed = BASE_TIMEOUT_S * BACKOFF.powi(attempt.min(30) as i32);
    let t = backed.min(MAX_TIMEOUT_S);
    t.min(slack_s.max(BASE_TIMEOUT_S * 0.5))
}

/// Seconds between control-plane telemetry epochs.
pub(crate) const TELEMETRY_EPOCH_S: f64 = 1.0;

/// Minimum outcomes in a breaker's window before its failure fraction is
/// trusted.
const MIN_SAMPLES: usize = 4;

/// Rolling-window circuit-breaker parameters (shared by AP and server
/// breakers).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Outcomes kept in the rolling window (at least `MIN_SAMPLES`).
    pub window: usize,
    /// Open when `failures / window_len >= failure_threshold`.
    pub failure_threshold: f64,
    /// Seconds an open breaker waits before admitting half-open probes.
    pub open_cooldown_s: f64,
    /// Whether a completion that missed its deadline feeds the target's
    /// health window as a failure (`true`, the default) or only hard
    /// failures — strands at a dark server, retry timeouts — do. A
    /// correlated-outage posture sets this `false` so a merely slow
    /// server is never condemned alongside a genuinely dark one.
    #[serde(default)]
    pub miss_is_failure: bool,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            window: 8,
            failure_threshold: 0.5,
            open_cooldown_s: 1.0,
            miss_is_failure: true,
        }
    }
}

impl BreakerConfig {
    fn validate(&self) -> Result<(), SimError> {
        let bad = |detail: &str| SimError::InvalidRecovery {
            detail: detail.into(),
        };
        if self.window < MIN_SAMPLES {
            return Err(bad("breaker window must hold at least 4 outcomes"));
        }
        if !(self.failure_threshold.is_finite()
            && self.failure_threshold > 0.0
            && self.failure_threshold <= 1.0)
        {
            return Err(bad("breaker failure_threshold must be in (0, 1]"));
        }
        if !(self.open_cooldown_s.is_finite() && self.open_cooldown_s > 0.0) {
            return Err(bad("breaker open_cooldown_s must be positive"));
        }
        Ok(())
    }
}

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Healthy: traffic flows, outcomes are recorded.
    Closed,
    /// Tripped: traffic is refused until the cooldown elapses.
    Open,
    /// Probing: bounded traffic is admitted; successes close, any failure
    /// re-opens.
    HalfOpen,
}

/// One target's breaker. Transitions happen only inside [`try_acquire`],
/// [`record_success`] and [`record_failure`], all driven by event times —
/// no wall clock, no RNG — so identical event sequences produce identical
/// breaker histories.
///
/// [`try_acquire`]: CircuitBreaker::try_acquire
/// [`record_success`]: CircuitBreaker::record_success
/// [`record_failure`]: CircuitBreaker::record_failure
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    /// Rolling outcomes, `true` = failure.
    window: VecDeque<bool>,
    opened_at_s: f64,
    probe_successes: u32,
    probes_admitted: u32,
    /// Closed → open transitions.
    pub opens: usize,
    /// Open → half-open transitions.
    pub half_opens: usize,
    /// Half-open → closed transitions.
    pub closes: usize,
}

/// Consecutive probe successes a half-open breaker needs to close, and
/// the most probes it admits at once.
const HALF_OPEN_PROBES: u32 = 2;

impl CircuitBreaker {
    /// A fresh, closed breaker.
    pub fn new(cfg: BreakerConfig) -> Self {
        Self {
            cfg,
            state: BreakerState::Closed,
            window: VecDeque::new(),
            opened_at_s: 0.0,
            probe_successes: 0,
            probes_admitted: 0,
            opens: 0,
            half_opens: 0,
            closes: 0,
        }
    }

    /// Return to the fresh, closed state under `cfg`, keeping the rolling
    /// window's buffer so a reused breaker allocates nothing.
    pub fn reset(&mut self, cfg: BreakerConfig) {
        self.cfg = cfg;
        self.state = BreakerState::Closed;
        self.window.clear();
        self.opened_at_s = 0.0;
        self.probe_successes = 0;
        self.probes_admitted = 0;
        self.opens = 0;
        self.half_opens = 0;
        self.closes = 0;
    }

    /// Current state (pure; open breakers stay open here even past the
    /// cooldown — promotion to half-open happens on traffic, in
    /// [`CircuitBreaker::try_acquire`]).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether the breaker currently refuses traffic at `now_s`, without
    /// mutating it (an open breaker past its cooldown *would* admit a
    /// probe, so it does not count as refusing).
    #[cfg(test)]
    fn is_refusing(&self, now_s: f64) -> bool {
        self.state == BreakerState::Open && now_s - self.opened_at_s < self.cfg.open_cooldown_s
    }

    /// Ask to route one request through this target. Closed always admits;
    /// open admits nothing until the cooldown elapses, then promotes to
    /// half-open; half-open admits up to `HALF_OPEN_PROBES` outstanding
    /// probes.
    pub fn try_acquire(&mut self, now_s: f64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now_s - self.opened_at_s >= self.cfg.open_cooldown_s {
                    self.state = BreakerState::HalfOpen;
                    self.half_opens += 1;
                    self.probe_successes = 0;
                    self.probes_admitted = 1;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                if self.probes_admitted < HALF_OPEN_PROBES {
                    self.probes_admitted += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a successful outcome on this target.
    pub fn record_success(&mut self) {
        match self.state {
            BreakerState::Closed => self.push_outcome(false),
            BreakerState::HalfOpen => {
                self.probe_successes += 1;
                if self.probe_successes >= HALF_OPEN_PROBES {
                    self.state = BreakerState::Closed;
                    self.closes += 1;
                    self.window.clear();
                }
            }
            BreakerState::Open => {} // a straggler from before the trip
        }
    }

    /// Record a failed outcome on this target at `now_s`.
    pub fn record_failure(&mut self, now_s: f64) {
        match self.state {
            BreakerState::Closed => {
                self.push_outcome(true);
                let n = self.window.len();
                if n >= MIN_SAMPLES {
                    let fails = self.window.iter().filter(|&&f| f).count();
                    if fails as f64 / n as f64 >= self.cfg.failure_threshold {
                        self.trip(now_s);
                    }
                }
            }
            BreakerState::HalfOpen => self.trip(now_s),
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now_s: f64) {
        self.state = BreakerState::Open;
        self.opens += 1;
        self.opened_at_s = now_s;
        self.window.clear();
    }

    fn push_outcome(&mut self, failure: bool) {
        if self.window.len() == self.cfg.window {
            self.window.pop_front();
        }
        self.window.push_back(failure);
    }
}

/// One control-plane telemetry epoch: what the fault detector sees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthSnapshot {
    /// Epoch end time, seconds.
    pub at_s: f64,
    /// Measured completions during the epoch.
    pub completions: usize,
    /// Measured deadline misses during the epoch.
    pub slo_misses: usize,
    /// Retry timeouts fired during the epoch.
    pub timeouts: usize,
    /// Degraded completions during the epoch.
    pub degraded: usize,
    /// Requests shed during the epoch.
    pub shed: usize,
    /// Per-server breaker-open flag at epoch end (empty without breakers).
    pub server_open: Vec<bool>,
    /// Per-AP breaker-open flag at epoch end (empty without breakers).
    pub ap_open: Vec<bool>,
}

/// The whole recovery subsystem's configuration. The default is
/// [`RecoveryConfig::none`]: every layer off, zero extra events, zero
/// extra RNG draws — existing fault experiments and golden snapshots are
/// unchanged unless a policy is switched on.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Time out stalled uplink transmissions and retry them with
    /// exponential backoff (`false` = never time out).
    pub retry: bool,
    /// Circuit breakers on APs and servers (`None` = no health tracking).
    pub breakers: Option<BreakerConfig>,
    /// Fall down the stream's degradation ladder instead of stranding
    /// when the offload path is unusable or the deadline unreachable.
    pub degrade: bool,
    /// Re-route to the next-best server when the primary's breaker is
    /// open (requires `breakers`).
    pub hedge: bool,
    /// Drop (shed) requests whose every path is breaker-open and whose
    /// stream offers no degradation ladder, instead of letting them queue
    /// into a dead uplink.
    pub shed_on_open: bool,
    /// Emit a [`HealthSnapshot`] every second (`false` = no telemetry
    /// events at all).
    pub telemetry: bool,
}

impl RecoveryConfig {
    /// Recovery fully disabled (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Retries only: timeouts + backoff + degradation on exhaustion, no
    /// breakers.
    pub fn retry_only() -> Self {
        Self {
            retry: true,
            degrade: true,
            ..Self::default()
        }
    }

    /// Retries plus circuit breakers (no hedging or shedding).
    pub fn retry_breaker() -> Self {
        Self {
            retry: true,
            breakers: Some(BreakerConfig::default()),
            degrade: true,
            ..Self::default()
        }
    }

    /// The full ladder: retries, breakers, hedged re-offload, shedding,
    /// and control-plane telemetry.
    pub fn full() -> Self {
        Self {
            retry: true,
            breakers: Some(BreakerConfig::default()),
            degrade: true,
            hedge: true,
            shed_on_open: true,
            telemetry: true,
        }
    }

    /// Whether any recovery layer is active.
    pub fn is_active(&self) -> bool {
        self.retry
            || self.breakers.is_some()
            || self.degrade
            || self.hedge
            || self.shed_on_open
            || self.telemetry
    }

    /// Check parameter ranges and cross-layer consistency.
    pub fn validate(&self) -> Result<(), SimError> {
        if let Some(b) = &self.breakers {
            b.validate()?;
        }
        if self.hedge && self.breakers.is_none() {
            return Err(SimError::InvalidRecovery {
                detail: "hedge requires breakers (health signal to hedge on)".into(),
            });
        }
        Ok(())
    }
}

/// Counter baseline of the previous telemetry epoch.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SnapBase {
    pub(crate) completed: usize,
    pub(crate) misses: usize,
    pub(crate) timeouts: usize,
    pub(crate) degraded: usize,
    pub(crate) shed: usize,
}

/// Recovery counters accumulated during a run. Shared by the columnar
/// simulator and the AoS reference oracle.
#[derive(Debug, Default)]
pub(crate) struct RecoveryAccum {
    pub(crate) timeouts: usize,
    pub(crate) retries: usize,
    pub(crate) hedges: usize,
    pub(crate) degraded: usize,
    pub(crate) degraded_on_time: usize,
    pub(crate) shed: usize,
    /// Accuracy the degraded requests' nominal paths would have credited.
    pub(crate) nominal_acc_sum: f64,
    /// Accuracy actually credited to degraded completions.
    pub(crate) degraded_acc_sum: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate_and_escalate() {
        for cfg in [
            RecoveryConfig::none(),
            RecoveryConfig::retry_only(),
            RecoveryConfig::retry_breaker(),
            RecoveryConfig::full(),
        ] {
            assert!(cfg.validate().is_ok(), "{cfg:?}");
        }
        assert!(!RecoveryConfig::none().is_active());
        assert!(RecoveryConfig::retry_only().is_active());
        assert!(RecoveryConfig::full().hedge);
    }

    #[test]
    fn invalid_knobs_are_rejected_with_typed_errors() {
        let hedge_no_breaker = RecoveryConfig {
            hedge: true,
            ..RecoveryConfig::none()
        };
        assert!(matches!(
            hedge_no_breaker.validate(),
            Err(SimError::InvalidRecovery { .. })
        ));
        let mut cfg = RecoveryConfig::retry_breaker();
        cfg.breakers.as_mut().unwrap().failure_threshold = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = RecoveryConfig::retry_breaker();
        cfg.breakers.as_mut().unwrap().window = MIN_SAMPLES - 1;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn timeouts_back_off_and_respect_deadline_slack() {
        assert_eq!(retry_timeout_s(0, 10.0), BASE_TIMEOUT_S);
        assert_eq!(retry_timeout_s(1, 10.0), BASE_TIMEOUT_S * BACKOFF);
        // Ceiling binds before backoff runs away.
        assert_eq!(retry_timeout_s(4, 10.0), MAX_TIMEOUT_S);
        // Tight slack shrinks the timeout, but never below base/2.
        assert_eq!(retry_timeout_s(0, 0.2), 0.2);
        assert_eq!(retry_timeout_s(0, 0.0), BASE_TIMEOUT_S * 0.5);
    }

    fn quick_breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            window: MIN_SAMPLES,
            failure_threshold: 0.5,
            open_cooldown_s: 1.0,
            miss_is_failure: true,
        })
    }

    /// Fill a fresh breaker's window with failures at `now_s`.
    fn trip(b: &mut CircuitBreaker, now_s: f64) {
        for _ in 0..MIN_SAMPLES {
            b.record_failure(now_s);
        }
    }

    #[test]
    fn breaker_trips_on_failure_rate() {
        let mut b = quick_breaker();
        assert!(b.try_acquire(0.0));
        for _ in 1..MIN_SAMPLES {
            b.record_failure(0.1);
            assert_eq!(b.state(), BreakerState::Closed); // fewer samples than the min
        }
        b.record_failure(0.2);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens, 1);
        assert!(!b.try_acquire(0.5)); // inside cooldown
        assert!(b.is_refusing(0.5));
    }

    #[test]
    fn breaker_recovers_only_through_half_open() {
        let mut b = quick_breaker();
        trip(&mut b, 0.0);
        assert_eq!(b.state(), BreakerState::Open);
        // Cooldown elapsed: the next acquisition is a probe.
        assert!(b.try_acquire(1.5));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.half_opens, 1);
        // Probe budget is bounded.
        assert!(b.try_acquire(1.6));
        assert!(!b.try_acquire(1.7));
        b.record_success();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.closes, 1);
    }

    #[test]
    fn half_open_failure_reopens() {
        let mut b = quick_breaker();
        trip(&mut b, 0.0);
        assert!(b.try_acquire(2.0));
        b.record_failure(2.1);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens, 2);
        // The cooldown restarts from the re-trip.
        assert!(!b.try_acquire(2.5));
        assert!(b.try_acquire(3.2));
    }

    #[test]
    fn successes_keep_the_window_healthy() {
        let mut b = quick_breaker();
        for _ in 0..10 {
            b.record_success();
        }
        // One failure in a healthy window is below threshold.
        b.record_failure(1.0);
        assert_eq!(b.state(), BreakerState::Closed);
    }
}
