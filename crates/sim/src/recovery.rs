//! Closed-loop failure recovery: retry policies, circuit breakers, and
//! health telemetry.
//!
//! PR 1's fault layer made the simulator *observe* disruptions; this
//! module makes it *react*. Three policy layers compose (each independently
//! optional, all off by default so a [`RecoveryConfig::none`] run is
//! bit-identical to the pre-recovery simulator):
//!
//! * **Per-request** ([`RetryPolicy`]): an uplink transmission that makes
//!   no progress within a deadline-aware timeout is cancelled and retried
//!   with exponential backoff, up to a bounded budget; when the budget is
//!   exhausted the request falls down its stream's degradation ladder
//!   (see `scalpel_surgery::degrade`) instead of stranding.
//! * **Per-target** ([`BreakerConfig`] / [`CircuitBreaker`]): rolling
//!   health windows on every AP and server drive closed → open →
//!   half-open breakers, so retries stop hammering dead targets and
//!   recovering ones are probed with bounded traffic.
//! * **Control-plane** ([`HealthSnapshot`]): periodic telemetry epochs
//!   summarize timeout rates, SLO misses and breaker states; the
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

/// Bounded-retry policy for uplink transmissions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Retransmission attempts allowed beyond the first (0 = timeout only
    /// triggers degradation, never a retry).
    pub max_retries: u32,
    /// Timeout of the first attempt, seconds.
    pub base_timeout_s: f64,
    /// Multiplier applied to the timeout per retry (exponential backoff).
    pub backoff: f64,
    /// Timeout ceiling, seconds.
    pub max_timeout_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            base_timeout_s: 0.25,
            backoff: 2.0,
            max_timeout_s: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Effective timeout for attempt `attempt` (0-based), deadline-aware:
    /// exponential backoff clamped to the ceiling, then to the request's
    /// remaining slack (never below half the base, so a request that is
    /// already late still gets a meaningful watch interval).
    pub fn timeout_s(&self, attempt: u32, slack_s: f64) -> f64 {
        let backed = self.base_timeout_s * self.backoff.powi(attempt.min(30) as i32);
        let t = backed.min(self.max_timeout_s);
        t.min(slack_s.max(self.base_timeout_s * 0.5))
    }

    fn validate(&self) -> Result<(), SimError> {
        let bad = |detail: &str| SimError::InvalidRecovery {
            detail: detail.into(),
        };
        if !(self.base_timeout_s.is_finite() && self.base_timeout_s > 0.0) {
            return Err(bad("base_timeout_s must be positive"));
        }
        if !(self.backoff.is_finite() && self.backoff >= 1.0) {
            return Err(bad("backoff must be >= 1"));
        }
        if !(self.max_timeout_s.is_finite() && self.max_timeout_s >= self.base_timeout_s) {
            return Err(bad("max_timeout_s must be >= base_timeout_s"));
        }
        Ok(())
    }
}

/// Rolling-window circuit-breaker parameters (shared by AP and server
/// breakers).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Outcomes kept in the rolling window.
    pub window: usize,
    /// Minimum outcomes before the failure fraction is trusted.
    pub min_samples: usize,
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
            min_samples: 4,
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
        if self.window == 0 {
            return Err(bad("breaker window must be positive"));
        }
        if self.min_samples == 0 || self.min_samples > self.window {
            return Err(bad("breaker min_samples must be in 1..=window"));
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
                if n >= self.cfg.min_samples {
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
    /// Uplink retry policy (`None` = never time out).
    pub retry: Option<RetryPolicy>,
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
    /// Emit a [`HealthSnapshot`] every this many seconds (0 = no
    /// telemetry events at all).
    pub telemetry_epoch_s: f64,
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
            retry: Some(RetryPolicy::default()),
            degrade: true,
            ..Self::default()
        }
    }

    /// Retries plus circuit breakers (no hedging or shedding).
    pub fn retry_breaker() -> Self {
        Self {
            retry: Some(RetryPolicy::default()),
            breakers: Some(BreakerConfig::default()),
            degrade: true,
            ..Self::default()
        }
    }

    /// The full ladder: retries, breakers, hedged re-offload, shedding,
    /// and control-plane telemetry.
    pub fn full() -> Self {
        Self {
            retry: Some(RetryPolicy::default()),
            breakers: Some(BreakerConfig::default()),
            degrade: true,
            hedge: true,
            shed_on_open: true,
            telemetry_epoch_s: 1.0,
        }
    }

    /// Whether any recovery layer is active.
    pub fn is_active(&self) -> bool {
        self.retry.is_some()
            || self.breakers.is_some()
            || self.degrade
            || self.hedge
            || self.shed_on_open
            || self.telemetry_epoch_s > 0.0
    }

    /// Check parameter ranges and cross-layer consistency.
    pub fn validate(&self) -> Result<(), SimError> {
        if let Some(r) = &self.retry {
            r.validate()?;
        }
        if let Some(b) = &self.breakers {
            b.validate()?;
        }
        if self.hedge && self.breakers.is_none() {
            return Err(SimError::InvalidRecovery {
                detail: "hedge requires breakers (health signal to hedge on)".into(),
            });
        }
        if !(self.telemetry_epoch_s.is_finite() && self.telemetry_epoch_s >= 0.0) {
            return Err(SimError::InvalidRecovery {
                detail: "telemetry_epoch_s must be finite and >= 0".into(),
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

/// First rung whose committed device seconds fit within `avail`
/// (replicates `DegradeLadder::best_within`, by index), else — on an
/// idle device — the cheapest rung (replicates `cheapest`'s tie-break:
/// least extra compute, then highest accuracy).
pub(crate) fn pick_rung(
    rungs: &[scalpel_surgery::DegradeRung],
    avail: f64,
    idle: bool,
) -> Option<usize> {
    rungs
        .iter()
        .position(|r| r.extra_device_s <= avail)
        .or_else(|| {
            if !idle {
                return None;
            }
            rungs
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.extra_device_s
                        .total_cmp(&b.extra_device_s)
                        .then(b.accuracy.total_cmp(&a.accuracy))
                })
                .map(|(i, _)| i)
        })
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
        let mut cfg = RecoveryConfig::retry_only();
        cfg.retry.as_mut().unwrap().backoff = 0.5;
        assert!(matches!(
            cfg.validate(),
            Err(SimError::InvalidRecovery { .. })
        ));
        let hedge_no_breaker = RecoveryConfig {
            hedge: true,
            ..RecoveryConfig::none()
        };
        assert!(hedge_no_breaker.validate().is_err());
        let mut cfg = RecoveryConfig::retry_breaker();
        cfg.breakers.as_mut().unwrap().failure_threshold = 1.5;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn timeouts_back_off_and_respect_deadline_slack() {
        let p = RetryPolicy {
            max_retries: 3,
            base_timeout_s: 0.1,
            backoff: 2.0,
            max_timeout_s: 0.5,
        };
        assert!((p.timeout_s(0, 10.0) - 0.1).abs() < 1e-12);
        assert!((p.timeout_s(1, 10.0) - 0.2).abs() < 1e-12);
        // Ceiling binds before backoff runs away.
        assert!((p.timeout_s(4, 10.0) - 0.5).abs() < 1e-12);
        // Tight slack shrinks the timeout, but never below base/2.
        assert!((p.timeout_s(0, 0.08) - 0.08).abs() < 1e-12);
        assert!((p.timeout_s(0, 0.0) - 0.05).abs() < 1e-12);
    }

    fn quick_breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            window: 4,
            min_samples: 2,
            failure_threshold: 0.5,
            open_cooldown_s: 1.0,
            miss_is_failure: true,
        })
    }

    #[test]
    fn breaker_trips_on_failure_rate() {
        let mut b = quick_breaker();
        assert!(b.try_acquire(0.0));
        b.record_failure(0.1);
        assert_eq!(b.state(), BreakerState::Closed); // 1 sample < min
        b.record_failure(0.2);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens, 1);
        assert!(!b.try_acquire(0.5)); // inside cooldown
        assert!(b.is_refusing(0.5));
    }

    #[test]
    fn breaker_recovers_only_through_half_open() {
        let mut b = quick_breaker();
        b.record_failure(0.0);
        b.record_failure(0.0);
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
        b.record_failure(0.0);
        b.record_failure(0.0);
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
