//! The long-lived planning service: churn-driven replanning with
//! switching hysteresis, checkpoint/restore, and a degraded-mode ladder.
//!
//! The batch CLI answers "what is the best joint plan *right now*"; this
//! module keeps that answer fresh as the fleet churns. A
//! [`PlanningService`] owns the incumbent solution and an event loop
//! driven by two calls:
//!
//! * [`offer_batch`](PlanningService::offer_batch) — ingest a validated
//!   batch of [`ChurnEvent`]s (device join/leave, link/capacity/load
//!   drift). Batches are atomic: one bad event rejects the whole batch
//!   and the fleet view stays consistent with the event log.
//! * [`tick`](PlanningService::tick) — advance one debounce interval.
//!   When enough events are pending, re-solve warm-started under the
//!   configured budget and emit a [`PlanDelta`] (moves + plan changes),
//!   never a whole plan.
//!
//! Three robustness pillars:
//!
//! 1. **[`SwitchGovernor`]** — naive per-event replanning thrashes
//!    streams between servers. The governor keeps a rolling per-stream
//!    latency window (rita-ens `exit_switcher` idiom: no switch until the
//!    window is full), a per-stream minimum dwell time, and a
//!    switch-cost-aware acceptance test: a stream moves only when the
//!    windowed incumbent latency minus the candidate latency exceeds
//!    `switch_cost_s + hysteresis_margin_s`. Switches per tick are capped,
//!    best-improvement-first, so one replan has bounded blast radius.
//!    Plan-index changes (new cut/exit on the same server) migrate no
//!    state and are always free.
//! 2. **Checkpoint/restore** — [`checkpoint_text`](PlanningService::checkpoint_text)
//!    serializes the full planner state (incumbent assignment, fleet
//!    factors, governor windows, ladder counters, event cursor) with every
//!    `f64` as its exact bit pattern; [`restore`](PlanningService::restore)
//!    rebuilds a service that, fed the tail of the same event log under an
//!    evaluation-count budget, replays bit-identically to the run that
//!    never crashed.
//! 3. **Degraded-mode ladder** — when ingest validation rejects a batch
//!    or the solve budget expires before convergence, the service stays
//!    on the last good plan, reports itself degraded, and backs off
//!    replan attempts exponentially (capped) instead of spinning.
//!
//! Determinism note: with [`Budget::evals`] (or unlimited) budgets every
//! path in here is clock-free and bit-deterministic; wall-clock budgets
//! trade that for latency bounds, which is the right default for a real
//! daemon but not for replay tests.

use crate::evaluator::{Assignment, EvalResult, Evaluator};
use crate::online::{OnlineController, Proposal};
use crate::optimizer::{Budget, OptimizerConfig, Solution};
use crate::problem::JointProblem;
use crate::shard::ShardConfig;
use crate::validate::{check_churn_factor, validate_churn_batch, ProblemError};
use scalpel_sim::churn::{f64_hex, parse_f64_hex, FACTOR_FLOOR};
use scalpel_sim::{ArrivalProcess, ChurnEvent, ChurnKind, ChurnTrace};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Ceiling on the degraded ladder's exponential backoff, ticks.
const MAX_BACKOFF_TICKS: u32 = 64;

/// The backoff a failure sets: `2^(failures − 1)` ticks, capped at
/// `MAX_BACKOFF_TICKS`; 0 when nothing has failed.
fn backoff_after(failures: u32) -> u32 {
    match failures {
        0 => 0,
        f => (1u32 << (f - 1).min(16)).min(MAX_BACKOFF_TICKS),
    }
}

/// A whitespace-separated list of [`f64_hex`] floats on checkpoint line
/// `line`.
fn parse_f64s(s: &str, line: usize) -> Result<Vec<f64>, CheckpointError> {
    s.split_whitespace()
        .map(|t| parse_f64_hex(t).map_err(|reason| CheckpointError { line, reason }))
        .collect()
}

/// Reads checkpoint records in the order
/// [`PlanningService::checkpoint_text`] writes them; every error names
/// the offending line.
struct Records<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> Records<'a> {
    /// The next record, which must be `key`: its 1-based line number and
    /// the text after the key.
    fn take(&mut self, key: &str) -> Result<(usize, &'a str), CheckpointError> {
        let (i, text) = self.lines.next().ok_or_else(|| CheckpointError {
            line: 0,
            reason: format!("truncated checkpoint: no {key} record"),
        })?;
        let body = text.trim();
        let (found, rest) = body.split_once(char::is_whitespace).unwrap_or((body, ""));
        if found != key {
            return Err(CheckpointError {
                line: i + 1,
                reason: format!("expected a {key} record, found {found:?}"),
            });
        }
        Ok((i + 1, rest.trim()))
    }

    fn int<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, CheckpointError>
    where
        T::Err: fmt::Display,
    {
        let (line, v) = self.take(key)?;
        v.parse().map_err(|e| CheckpointError {
            line,
            reason: format!("{key} {v:?}: {e}"),
        })
    }

    fn ints(&mut self, key: &str) -> Result<Vec<usize>, CheckpointError> {
        let (line, v) = self.take(key)?;
        v.split_whitespace()
            .map(|t| {
                t.parse().map_err(|e| CheckpointError {
                    line,
                    reason: format!("{key} {t:?}: {e}"),
                })
            })
            .collect()
    }

    fn f64(&mut self, key: &str) -> Result<(usize, f64), CheckpointError> {
        let (line, v) = self.take(key)?;
        let x = parse_f64_hex(v).map_err(|reason| CheckpointError { line, reason })?;
        Ok((line, x))
    }

    fn f64s(&mut self, key: &str) -> Result<(usize, Vec<f64>), CheckpointError> {
        let (line, v) = self.take(key)?;
        Ok((line, parse_f64s(v, line)?))
    }

    /// Drift factors, each inside the range a churn event may set.
    fn factors(&mut self, key: &'static str) -> Result<Vec<f64>, CheckpointError> {
        let (line, v) = self.f64s(key)?;
        for &f in &v {
            check_churn_factor(key, f).map_err(|e| CheckpointError {
                line,
                reason: e.to_string(),
            })?;
        }
        Ok(v)
    }
}

/// The service's current multiplicative view of the fleet: every churn
/// event folds into a per-resource factor over the *base* problem, so
/// stream/AP/server indices stay stable across arbitrarily long runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetState {
    /// Per-AP bandwidth factor in `[FACTOR_FLOOR, 1]`.
    pub link_factor: Vec<f64>,
    /// Per-server capacity factor in `[FACTOR_FLOOR, 1]`.
    pub cap_factor: Vec<f64>,
    /// Per-stream offered-load factor.
    pub load_factor: Vec<f64>,
    /// Per-device liveness. A down device's streams are not removed (that
    /// would renumber everything); their load is floored to
    /// [`FACTOR_FLOOR`] × the current load factor instead.
    pub device_up: Vec<bool>,
}

impl FleetState {
    /// The nominal (no-churn) view of `base`.
    pub fn nominal(base: &JointProblem) -> Self {
        Self {
            link_factor: vec![1.0; base.cluster.aps.len()],
            cap_factor: vec![1.0; base.cluster.servers.len()],
            load_factor: vec![1.0; base.streams.len()],
            device_up: vec![true; base.cluster.devices.len()],
        }
    }

    /// Fold one (already validated) event into the view.
    pub fn apply(&mut self, event: &ChurnEvent) {
        match event.kind {
            ChurnKind::DeviceDown { device } => self.device_up[device] = false,
            ChurnKind::DeviceUp { device } => self.device_up[device] = true,
            ChurnKind::LinkDrift { ap, factor } => self.link_factor[ap] = factor,
            ChurnKind::CapacityDrift { server, factor } => self.cap_factor[server] = factor,
            ChurnKind::LoadDrift { stream, factor } => self.load_factor[stream] = factor,
        }
    }

    /// The effective problem under the current view: base scaled by the
    /// per-resource factors. Pure and deterministic — the same view always
    /// produces the bit-identical problem.
    pub fn effective_problem(&self, base: &JointProblem) -> JointProblem {
        let mut p = base.clone();
        for (ap, f) in p.cluster.aps.iter_mut().zip(&self.link_factor) {
            ap.bandwidth_hz *= f;
        }
        for (srv, f) in p.cluster.servers.iter_mut().zip(&self.cap_factor) {
            srv.proc.flops_per_sec *= f;
        }
        for (k, s) in p.streams.iter_mut().enumerate() {
            let mut f = self.load_factor[k];
            if !self.device_up[s.device] {
                f *= FACTOR_FLOOR;
            }
            s.arrivals = scale_arrivals(&s.arrivals, f);
        }
        p
    }
}

/// Scale an arrival process's mean rate by `f > 0`, preserving its shape.
fn scale_arrivals(a: &ArrivalProcess, f: f64) -> ArrivalProcess {
    match a {
        ArrivalProcess::Poisson { rate_hz } => ArrivalProcess::Poisson {
            rate_hz: rate_hz * f,
        },
        ArrivalProcess::Periodic {
            period_s,
            jitter_frac,
        } => ArrivalProcess::Periodic {
            period_s: period_s / f,
            jitter_frac: *jitter_frac,
        },
        ArrivalProcess::Mmpp2 {
            rate_low,
            rate_high,
            switch_rate,
        } => ArrivalProcess::Mmpp2 {
            rate_low: rate_low * f,
            rate_high: rate_high * f,
            switch_rate: *switch_rate,
        },
    }
}

/// Hysteresis parameters for the [`SwitchGovernor`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GovernorConfig {
    /// A stream that switched servers may not switch again for this long.
    pub min_dwell_s: f64,
    /// Priced cost of migrating one stream (connection re-establishment,
    /// state transfer), seconds of latency-equivalent.
    pub switch_cost_s: f64,
    /// Extra margin the improvement must clear beyond the switch cost.
    pub hysteresis_margin_s: f64,
    /// Hard cap on server switches adopted in one tick (blast radius).
    pub max_switches_per_tick: usize,
    /// A stream's rolling latency window must hold this many samples
    /// before it is allowed to switch at all (rita-ens warm-up idiom).
    pub window: usize,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        Self {
            min_dwell_s: 10.0,
            switch_cost_s: 0.010,
            hysteresis_margin_s: 0.005,
            max_switches_per_tick: 2,
            window: 3,
        }
    }
}

/// What the governor did with one candidate plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GovernorDecision {
    /// The governed assignment: candidate plans, incumbent placements
    /// except for the accepted switches.
    pub adopted: Assignment,
    /// Streams whose server switch was accepted, ascending.
    pub switched: Vec<usize>,
    /// Proposed switches vetoed because the stream's window is not full.
    pub rejected_window: usize,
    /// Proposed switches vetoed by the minimum dwell time.
    pub rejected_dwell: usize,
    /// Proposed switches whose priced improvement did not clear the
    /// switch cost plus hysteresis margin.
    pub rejected_margin: usize,
    /// Eligible switches dropped by the per-tick cap.
    pub rejected_cap: usize,
}

/// Switching-hysteresis gate between the solver and the fleet.
///
/// Plan-index changes pass through untouched; a server switch for stream
/// `k` is adopted only when (window full) ∧ (dwell elapsed) ∧ (windowed
/// incumbent latency − candidate latency > switch_cost + margin), and at
/// most `max_switches_per_tick` winners (largest priced improvement
/// first, ties to the lowest stream index) land per tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwitchGovernor {
    /// Hysteresis parameters.
    pub cfg: GovernorConfig,
    /// When each stream last switched servers (−∞ = never).
    last_switch_s: Vec<f64>,
    /// Rolling incumbent latencies per stream, newest last, len ≤ window.
    windows: Vec<Vec<f64>>,
}

impl SwitchGovernor {
    /// A governor for `num_streams` streams with empty windows.
    pub fn new(cfg: GovernorConfig, num_streams: usize) -> Self {
        Self {
            cfg,
            last_switch_s: vec![f64::NEG_INFINITY; num_streams],
            windows: vec![Vec::new(); num_streams],
        }
    }

    /// Record the incumbent's per-stream latencies under the current
    /// conditions (one sample per replan tick).
    pub fn observe(&mut self, incumbent: &EvalResult) {
        for (w, &lat) in self.windows.iter_mut().zip(&incumbent.latency_s) {
            if w.len() >= self.cfg.window.max(1) {
                w.remove(0);
            }
            w.push(lat);
        }
    }

    /// Gate a candidate against the incumbent (`warm`, already remapped
    /// onto the same evaluator). Updates dwell clocks for accepted
    /// switches.
    pub fn govern(
        &mut self,
        now_s: f64,
        warm: &Assignment,
        candidate: &Assignment,
        candidate_latency: &[f64],
    ) -> GovernorDecision {
        let mut adopted = Assignment {
            plan_idx: candidate.plan_idx.clone(),
            placement: warm.placement.clone(),
        };
        let mut eligible: Vec<(f64, usize)> = Vec::new();
        let (mut rejected_window, mut rejected_dwell, mut rejected_margin) = (0, 0, 0);
        for (k, &cand_lat) in candidate_latency
            .iter()
            .enumerate()
            .take(warm.placement.len())
        {
            if candidate.placement[k] == warm.placement[k] {
                continue;
            }
            let win = &self.windows[k];
            if win.len() < self.cfg.window {
                rejected_window += 1;
                continue;
            }
            if now_s - self.last_switch_s[k] < self.cfg.min_dwell_s {
                rejected_dwell += 1;
                continue;
            }
            let windowed = win.iter().sum::<f64>() / win.len() as f64;
            let improvement = windowed - cand_lat;
            if improvement <= self.cfg.switch_cost_s + self.cfg.hysteresis_margin_s {
                rejected_margin += 1;
                continue;
            }
            eligible.push((improvement, k));
        }
        // Largest priced improvement first; deterministic tie-break on
        // the stream index so equal improvements never reorder.
        eligible.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let rejected_cap = eligible
            .len()
            .saturating_sub(self.cfg.max_switches_per_tick);
        let mut switched: Vec<usize> = eligible
            .iter()
            .take(self.cfg.max_switches_per_tick)
            .map(|&(_, k)| k)
            .collect();
        switched.sort_unstable();
        for &k in &switched {
            adopted.placement[k] = candidate.placement[k];
            self.last_switch_s[k] = now_s;
        }
        GovernorDecision {
            adopted,
            switched,
            rejected_window,
            rejected_dwell,
            rejected_margin,
            rejected_cap,
        }
    }
}

/// One stream moving between servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamMove {
    /// The stream that moved.
    pub stream: usize,
    /// Previous server.
    pub from_server: usize,
    /// New server.
    pub to_server: usize,
}

/// One stream changing surgery plan (same server, new menu entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanChange {
    /// The stream whose plan changed.
    pub stream: usize,
    /// Previous menu index.
    pub from_plan: usize,
    /// New menu index.
    pub to_plan: usize,
}

/// What one replan tick changed — the service's output unit. Deltas are
/// small under the governor (bounded moves per tick) where whole plans
/// would be O(fleet) every tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanDelta {
    /// Tick that produced this delta.
    pub tick: u64,
    /// Service time at the tick, seconds.
    pub now_s: f64,
    /// Accepted server switches.
    pub moves: Vec<StreamMove>,
    /// Plan-index changes (free — no stream migration).
    pub plan_changes: Vec<PlanChange>,
    /// Objective of the incumbent re-priced under the new conditions.
    pub objective_before: f64,
    /// Objective of the governed plan actually adopted.
    pub objective_after: f64,
}

impl PlanDelta {
    /// `true` when the tick changed nothing.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty() && self.plan_changes.is_empty()
    }
}

/// Service parameters. `restore` requires the same base problem and the
/// same config the checkpoint was taken under.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Solver configuration (seeded — keep fixed for deterministic runs).
    pub optimizer: OptimizerConfig,
    /// Hysteresis parameters.
    pub governor: GovernorConfig,
    /// Per-tick replan budget. Use [`Budget::evals`] for bit-determinism.
    pub replan_budget: Budget,
    /// Replan only once at least this many events are pending (≥ 1).
    pub debounce_events: usize,
    /// Tick period, seconds.
    pub tick_s: f64,
    /// Bypass the governor entirely (the thrash baseline for f18).
    pub ungoverned: bool,
    /// Replan via [`crate::shard::solve_sharded_with`] instead of
    /// [`OnlineController::propose_with_budget`] — the fleet-scale path.
    /// The bootstrap solve is [`crate::optimizer::solve`] either way;
    /// replans are warm, so the sharded path polishes the incumbent with
    /// its own descent rounds and races it against the polish.
    pub shard: Option<ShardConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            optimizer: OptimizerConfig::default(),
            governor: GovernorConfig::default(),
            replan_budget: Budget::UNLIMITED,
            debounce_events: 1,
            tick_s: 1.0,
            ungoverned: false,
            shard: None,
        }
    }
}

/// One row of the service's status report (also the status-log line
/// format via [`to_line`](ServiceStatus::to_line)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceStatus {
    /// Ticks elapsed.
    pub tick: u64,
    /// Service time, seconds.
    pub now_s: f64,
    /// Whether the service is in degraded mode (stale plan in force).
    pub degraded: bool,
    /// Consecutive replan/ingest failures.
    pub consecutive_failures: u32,
    /// Backoff ticks remaining before the next replan attempt.
    pub backoff_ticks_remaining: u32,
    /// Churn events consumed (the event cursor).
    pub events_consumed: usize,
    /// Event batches rejected by ingest validation.
    pub rejected_batches: u64,
    /// Replans completed.
    pub total_replans: u64,
    /// Server switches adopted across all ticks.
    pub total_switches: u64,
    /// Plan-index changes adopted across all ticks.
    pub total_plan_changes: u64,
    /// Warm-start remap misses (closest-cut fallbacks) across all
    /// replans. Non-zero is a warning: warm starts were approximate.
    pub remap_misses: u64,
    /// Total ticks spent in degraded mode (stale plan in force) across
    /// the service's lifetime — the blast-radius cost of the ladder.
    #[serde(default)]
    pub degraded_ticks: u64,
    /// Replans that were due (enough pending events) but shed by the
    /// backoff ladder.
    #[serde(default)]
    pub shed_replans: u64,
    /// Objective of the incumbent plan.
    pub last_objective: f64,
    /// Expected deadline misses of the incumbent plan.
    pub expected_misses: usize,
}

impl ServiceStatus {
    /// One-line key=value rendering for status logs.
    pub fn to_line(&self) -> String {
        format!(
            "tick={} now_s={:.3} degraded={} failures={} backoff={} events={} rejected={} \
             replans={} switches={} plan_changes={} remap_misses={} degraded_ticks={} shed={} \
             objective={:.6} expected_misses={}",
            self.tick,
            self.now_s,
            self.degraded,
            self.consecutive_failures,
            self.backoff_ticks_remaining,
            self.events_consumed,
            self.rejected_batches,
            self.total_replans,
            self.total_switches,
            self.total_plan_changes,
            self.remap_misses,
            self.degraded_ticks,
            self.shed_replans,
            self.last_objective,
            self.expected_misses,
        )
    }
}

/// What one [`tick`](PlanningService::tick) did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TickOutcome {
    /// The tick number.
    pub tick: u64,
    /// Whether a replan ran to completion and was (governed-)adopted.
    pub replanned: bool,
    /// The emitted delta, when a replan adopted anything.
    pub delta: Option<PlanDelta>,
    /// Whether the service is degraded after this tick.
    pub degraded: bool,
}

/// A malformed or inconsistent checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError {
    /// 1-based line number (0 when structural).
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint line {}: {}", self.line, self.reason)
    }
}

impl Error for CheckpointError {}

/// The long-lived planning service. See the module docs for the loop.
pub struct PlanningService {
    base: JointProblem,
    cfg: ServiceConfig,
    fleet: FleetState,
    controller: OnlineController,
    evaluator: Evaluator,
    governor: SwitchGovernor,
    tick: u64,
    now_s: f64,
    cursor: usize,
    cursor_s: f64,
    dirty: usize,
    consecutive_failures: u32,
    backoff_ticks_remaining: u32,
    degraded: bool,
    rejected_batches: u64,
    total_replans: u64,
    total_switches: u64,
    total_plan_changes: u64,
    remap_misses: u64,
    degraded_ticks: u64,
    shed_replans: u64,
}

impl PlanningService {
    /// Validate `base`, solve the nominal environment from scratch, and
    /// start the loop at tick 0 with an empty event cursor.
    pub fn new(base: JointProblem, cfg: ServiceConfig) -> Result<Self, ProblemError> {
        let evaluator = Evaluator::try_new(&base, None)?;
        if let Some(sc) = &cfg.shard {
            crate::validate::validate_shard_config(&base, sc)?;
        }
        let controller = OnlineController::bootstrap(&evaluator, cfg.optimizer.clone());
        let num_streams = base.streams.len();
        let governor = SwitchGovernor::new(cfg.governor, num_streams);
        let fleet = FleetState::nominal(&base);
        Ok(Self {
            base,
            cfg,
            fleet,
            controller,
            evaluator,
            governor,
            tick: 0,
            now_s: 0.0,
            cursor: 0,
            cursor_s: 0.0,
            dirty: 0,
            consecutive_failures: 0,
            backoff_ticks_remaining: 0,
            degraded: false,
            rejected_batches: 0,
            total_replans: 0,
            total_switches: 0,
            total_plan_changes: 0,
            remap_misses: 0,
            degraded_ticks: 0,
            shed_replans: 0,
        })
    }

    /// The incumbent solution (last good plan).
    pub fn solution(&self) -> &Solution {
        self.controller.solution()
    }

    /// The incumbent assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.controller.solution().assignment
    }

    /// Events consumed so far (the replay cursor into the event log).
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// The current effective problem (base scaled by the fleet view).
    pub fn effective_problem(&self) -> JointProblem {
        self.fleet.effective_problem(&self.base)
    }

    /// The evaluator of the last-adopted environment — the menus the
    /// incumbent assignment's plan indices refer to.
    pub fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }

    /// The current status row.
    pub fn status(&self) -> ServiceStatus {
        let sol = self.controller.solution();
        ServiceStatus {
            tick: self.tick,
            now_s: self.now_s,
            degraded: self.degraded,
            consecutive_failures: self.consecutive_failures,
            backoff_ticks_remaining: self.backoff_ticks_remaining,
            events_consumed: self.cursor,
            rejected_batches: self.rejected_batches,
            total_replans: self.total_replans,
            total_switches: self.total_switches,
            total_plan_changes: self.total_plan_changes,
            remap_misses: self.remap_misses,
            degraded_ticks: self.degraded_ticks,
            shed_replans: self.shed_replans,
            last_objective: sol.result.objective,
            expected_misses: sol.result.expected_misses,
        }
    }

    /// Ingest one atomic event batch. The cursor advances past the batch
    /// either way: a rejected batch is consumed from the log (it will
    /// never become valid by waiting). On success every event is folded
    /// into the fleet view; on validation failure *nothing* is applied,
    /// the batch counts as rejected, and the degraded ladder engages.
    pub fn offer_batch(&mut self, events: &[ChurnEvent]) -> Result<usize, ProblemError> {
        if events.is_empty() {
            return Ok(0);
        }
        self.cursor = self.cursor.saturating_add(events.len());
        if let Err(e) = validate_churn_batch(&self.base, self.cursor_s, events) {
            self.rejected_batches = self.rejected_batches.saturating_add(1);
            self.fail();
            return Err(e);
        }
        for ev in events {
            self.fleet.apply(ev);
            self.cursor_s = ev.at_s;
        }
        self.dirty = self.dirty.saturating_add(events.len());
        Ok(events.len())
    }

    /// The events of `trace` the next tick ingests: from the cursor up to,
    /// not including, the first event at or past the tick's boundary
    /// (empty once the cursor has reached the trace's end).
    pub fn next_batch<'t>(&self, trace: &'t ChurnTrace) -> &'t [ChurnEvent] {
        let boundary = self.tick.saturating_add(1) as f64 * self.cfg.tick_s;
        let rest = trace.events.get(self.cursor..).unwrap_or_default();
        let len = rest.iter().take_while(|e| e.at_s < boundary).count();
        &rest[..len]
    }

    /// Advance one tick. Replans only when at least `debounce_events`
    /// events are pending and no backoff is in force; otherwise the tick
    /// is idle (and consumes one backoff step, if any).
    pub fn tick(&mut self) -> TickOutcome {
        let out = self.tick_inner();
        if out.degraded {
            self.degraded_ticks = self.degraded_ticks.saturating_add(1);
        }
        out
    }

    fn tick_inner(&mut self) -> TickOutcome {
        self.tick = self.tick.saturating_add(1);
        // Multiplication, not accumulation: tick 1000's timestamp is the
        // same bit pattern whether or not the service restarted at 500.
        self.now_s = self.tick as f64 * self.cfg.tick_s;
        let idle = |s: &Self| TickOutcome {
            tick: s.tick,
            replanned: false,
            delta: None,
            degraded: s.degraded,
        };
        if self.backoff_ticks_remaining > 0 {
            self.backoff_ticks_remaining -= 1;
            if self.dirty >= self.cfg.debounce_events.max(1) {
                // A replan was due but the ladder shed it.
                self.shed_replans = self.shed_replans.saturating_add(1);
            }
            return idle(self);
        }
        if self.dirty < self.cfg.debounce_events.max(1) {
            return idle(self);
        }
        let new_problem = self.fleet.effective_problem(&self.base);
        let new_ev = match Evaluator::try_new(&new_problem, None) {
            Ok(ev) => ev,
            Err(_) => {
                // Churn drove the effective problem out of the evaluable
                // envelope; stay on the last good plan and back off.
                self.fail();
                return idle(self);
            }
        };
        let proposal = match self.propose(&new_problem, &new_ev) {
            Ok(p) => p,
            Err(_) => {
                self.fail();
                return idle(self);
            }
        };
        if !proposal.report.converged {
            // Budget expired mid-solve: the partial result is discarded,
            // the last good plan stays in force, and we back off.
            self.fail();
            return idle(self);
        }
        self.governor.observe(&proposal.stale);
        let decision = if self.cfg.ungoverned {
            let switched: Vec<usize> = proposal
                .warm
                .placement
                .iter()
                .zip(&proposal.solution.assignment.placement)
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .map(|(k, _)| k)
                .collect();
            GovernorDecision {
                adopted: proposal.solution.assignment.clone(),
                switched,
                rejected_window: 0,
                rejected_dwell: 0,
                rejected_margin: 0,
                rejected_cap: 0,
            }
        } else {
            self.governor.govern(
                self.now_s,
                &proposal.warm,
                &proposal.solution.assignment,
                &proposal.solution.result.latency_s,
            )
        };
        let moves: Vec<StreamMove> = decision
            .switched
            .iter()
            .map(|&k| StreamMove {
                stream: k,
                from_server: proposal.warm.placement[k],
                to_server: decision.adopted.placement[k],
            })
            .collect();
        let plan_changes: Vec<PlanChange> = proposal
            .warm
            .plan_idx
            .iter()
            .zip(&decision.adopted.plan_idx)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(k, (&a, &b))| PlanChange {
                stream: k,
                from_plan: a,
                to_plan: b,
            })
            .collect();
        let adopted = self.controller.adopt(&new_ev, decision.adopted);
        let delta = PlanDelta {
            tick: self.tick,
            now_s: self.now_s,
            objective_before: proposal.report.stale_objective,
            objective_after: adopted.result.objective,
            moves,
            plan_changes,
        };
        self.evaluator = new_ev;
        self.dirty = 0;
        self.total_replans = self.total_replans.saturating_add(1);
        self.total_switches = self.total_switches.saturating_add(delta.moves.len() as u64);
        self.total_plan_changes = self
            .total_plan_changes
            .saturating_add(delta.plan_changes.len() as u64);
        self.remap_misses = self
            .remap_misses
            .saturating_add(proposal.report.remap_misses as u64);
        self.succeed();
        TickOutcome {
            tick: self.tick,
            replanned: true,
            delta: Some(delta),
            degraded: false,
        }
    }

    /// Warm-started candidate under the configured budget: global descent
    /// by default, sharded solve when [`ServiceConfig::shard`] is set.
    fn propose(
        &self,
        new_problem: &JointProblem,
        new_ev: &Evaluator,
    ) -> Result<Proposal, ProblemError> {
        match &self.cfg.shard {
            None => Ok(self.controller.propose_with_budget(
                &self.evaluator,
                new_ev,
                self.cfg.replan_budget,
            )),
            Some(sc) => self.controller.propose_sharded(
                &self.evaluator,
                new_problem,
                new_ev,
                sc,
                self.cfg.replan_budget,
            ),
        }
    }

    fn fail(&mut self) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        self.backoff_ticks_remaining = backoff_after(self.consecutive_failures);
        self.degraded = true;
    }

    fn succeed(&mut self) {
        self.consecutive_failures = 0;
        self.backoff_ticks_remaining = 0;
        self.degraded = false;
    }

    /// Serialize the full planner state. Every `f64` is written as its
    /// exact bit pattern, so `restore` + tail replay is bit-identical to
    /// the run that never stopped (under clock-free budgets).
    pub fn checkpoint_text(&self) -> String {
        let sol = self.controller.solution();
        let mut s = String::with_capacity(1024);
        s.push_str("scalpel-serve-checkpoint v1\n");
        s.push_str(&format!("tick {}\n", self.tick));
        s.push_str(&format!("now {}\n", f64_hex(self.now_s)));
        s.push_str(&format!("cursor {}\n", self.cursor));
        s.push_str(&format!("cursor_s {}\n", f64_hex(self.cursor_s)));
        s.push_str(&format!("dirty {}\n", self.dirty));
        s.push_str(&format!("failures {}\n", self.consecutive_failures));
        s.push_str(&format!("backoff {}\n", self.backoff_ticks_remaining));
        s.push_str(&format!("degraded {}\n", u8::from(self.degraded)));
        s.push_str(&format!("rejected_batches {}\n", self.rejected_batches));
        s.push_str(&format!("total_replans {}\n", self.total_replans));
        s.push_str(&format!("total_switches {}\n", self.total_switches));
        s.push_str(&format!("total_plan_changes {}\n", self.total_plan_changes));
        s.push_str(&format!("remap_misses {}\n", self.remap_misses));
        s.push_str(&format!("degraded_ticks {}\n", self.degraded_ticks));
        s.push_str(&format!("shed_replans {}\n", self.shed_replans));
        let join_us = |v: &[usize]| {
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        };
        let join_f = |v: &[f64]| v.iter().map(|&x| f64_hex(x)).collect::<Vec<_>>().join(" ");
        s.push_str(&format!("plan {}\n", join_us(&sol.assignment.plan_idx)));
        s.push_str(&format!("place {}\n", join_us(&sol.assignment.placement)));
        s.push_str(&format!("link {}\n", join_f(&self.fleet.link_factor)));
        s.push_str(&format!("cap {}\n", join_f(&self.fleet.cap_factor)));
        s.push_str(&format!("load {}\n", join_f(&self.fleet.load_factor)));
        s.push_str(&format!(
            "up {}\n",
            self.fleet
                .device_up
                .iter()
                .map(|&b| if b { "1" } else { "0" })
                .collect::<Vec<_>>()
                .join(" ")
        ));
        s.push_str(&format!("dwell {}\n", join_f(&self.governor.last_switch_s)));
        for (k, w) in self.governor.windows.iter().enumerate() {
            s.push_str(&format!("win {k} {}\n", join_f(w)));
        }
        s.push_str("end\n");
        s
    }

    /// Rebuild a service from a checkpoint taken by a service over the
    /// same `base` and `cfg`. The restored instance re-prices the
    /// incumbent on the reconstructed effective problem — one evaluation,
    /// no search — and is then indistinguishable from the original.
    ///
    /// Restore accepts exactly what [`checkpoint_text`](Self::checkpoint_text)
    /// writes: every record once, in order, one `win` record per stream,
    /// nothing after `end`. It also refuses values no run can reach:
    /// `degraded` other than 0 or 1, or other than "some failure is
    /// outstanding"; a `backoff` above what the last failure sets
    /// (`2^(failures − 1)` ticks, capped at `MAX_BACKOFF_TICKS`, 0 without
    /// failures); a `now` that is not `tick × tick_s` bit for bit; a
    /// negative or non-finite `cursor_s`; drift factors outside the ranges
    /// churn events may set; a `dwell` time that is NaN or later than
    /// `now`; and a `win` record holding a NaN or more samples than the
    /// governor's window keeps.
    pub fn restore(
        base: JointProblem,
        cfg: ServiceConfig,
        text: &str,
    ) -> Result<Self, CheckpointError> {
        let mut rec = Records {
            lines: text.lines().enumerate(),
        };
        let (line, version) = rec.take("scalpel-serve-checkpoint")?;
        if version != "v1" {
            return Err(CheckpointError {
                line,
                reason: format!("unsupported checkpoint version {version:?}"),
            });
        }
        let tick: u64 = rec.int("tick")?;
        let (line, now_s) = rec.f64("now")?;
        let tick_now = tick as f64 * cfg.tick_s;
        if now_s.to_bits() != tick_now.to_bits() {
            return Err(CheckpointError {
                line,
                reason: format!("now {now_s} s is not tick {tick} × {} s", cfg.tick_s),
            });
        }
        let cursor: usize = rec.int("cursor")?;
        let (line, cursor_s) = rec.f64("cursor_s")?;
        if !(cursor_s.is_finite() && cursor_s >= 0.0) {
            return Err(CheckpointError {
                line,
                reason: format!("cursor_s {cursor_s} is not a finite, non-negative time"),
            });
        }
        let dirty: usize = rec.int("dirty")?;
        let failures: u32 = rec.int("failures")?;
        let backoff: u32 = rec.int("backoff")?;
        let (line, flag) = rec.take("degraded")?;
        let degraded = match flag {
            "0" => false,
            "1" => true,
            other => {
                return Err(CheckpointError {
                    line,
                    reason: format!("degraded {other:?} is neither 0 nor 1"),
                })
            }
        };
        // `fail` counts a failure, sets its backoff and degrades; ticks
        // only drain the backoff; `succeed` clears all three.
        if degraded != (failures > 0) || backoff > backoff_after(failures) {
            return Err(CheckpointError {
                line,
                reason: format!(
                    "unreachable ladder: failures {failures}, backoff {backoff}, degraded {flag}"
                ),
            });
        }
        let rejected_batches: u64 = rec.int("rejected_batches")?;
        let total_replans: u64 = rec.int("total_replans")?;
        let total_switches: u64 = rec.int("total_switches")?;
        let total_plan_changes: u64 = rec.int("total_plan_changes")?;
        let remap_misses: u64 = rec.int("remap_misses")?;
        let degraded_ticks: u64 = rec.int("degraded_ticks")?;
        let shed_replans: u64 = rec.int("shed_replans")?;
        let plan = rec.ints("plan")?;
        let place = rec.ints("place")?;
        let link_factor = rec.factors("link")?;
        let cap_factor = rec.factors("cap")?;
        let load_factor = rec.factors("load")?;
        let (line, bits) = rec.take("up")?;
        let device_up = bits
            .split_whitespace()
            .map(|t| match t {
                "1" => Ok(true),
                "0" => Ok(false),
                other => Err(CheckpointError {
                    line,
                    reason: format!("bad liveness bit {other:?}"),
                }),
            })
            .collect::<Result<Vec<bool>, _>>()?;
        let (line, last_switch_s) = rec.f64s("dwell")?;
        if let Some(t) = last_switch_s.iter().find(|t| t.is_nan() || **t > now_s) {
            return Err(CheckpointError {
                line,
                reason: format!("dwell time {t} s is not at or before now ({now_s} s)"),
            });
        }
        let n = base.streams.len();
        let mut windows = Vec::with_capacity(n);
        for k in 0..n {
            let (line, body) = rec.take("win")?;
            let (idx, vals) = body.split_once(char::is_whitespace).unwrap_or((body, ""));
            if idx != k.to_string() {
                return Err(CheckpointError {
                    line,
                    reason: format!("expected the window of stream {k}, found {idx:?}"),
                });
            }
            let window = parse_f64s(vals, line)?;
            let keep = cfg.governor.window.max(1);
            if window.len() > keep || window.iter().any(|x| x.is_nan()) {
                return Err(CheckpointError {
                    line,
                    reason: format!("window of stream {k} holds a NaN or over {keep} samples"),
                });
            }
            windows.push(window);
        }
        rec.take("end")?;
        if let Some((i, extra)) = rec.lines.next() {
            return Err(CheckpointError {
                line: i + 1,
                reason: format!("record after the end marker: {extra:?}"),
            });
        }
        let structural = |reason: String| CheckpointError { line: 0, reason };
        if plan.len() != n
            || place.len() != n
            || load_factor.len() != n
            || last_switch_s.len() != n
            || link_factor.len() != base.cluster.aps.len()
            || cap_factor.len() != base.cluster.servers.len()
            || device_up.len() != base.cluster.devices.len()
        {
            return Err(structural(
                "checkpoint dimensions do not match the base problem".into(),
            ));
        }
        let fleet = FleetState {
            link_factor,
            cap_factor,
            load_factor,
            device_up,
        };
        let effective = fleet.effective_problem(&base);
        let evaluator = Evaluator::try_new(&effective, None)
            .map_err(|e| structural(format!("restored fleet state is not evaluable: {e}")))?;
        for (k, &p) in plan.iter().enumerate() {
            if p >= evaluator.menu(k).len() {
                return Err(structural(format!("stream {k}: plan index {p} off-menu")));
            }
        }
        if place.iter().any(|&s| s >= evaluator.num_servers()) {
            return Err(structural("placement names an unknown server".into()));
        }
        let controller = OnlineController::resume(
            &evaluator,
            cfg.optimizer.clone(),
            Assignment {
                plan_idx: plan,
                placement: place,
            },
        );
        let governor = SwitchGovernor {
            cfg: cfg.governor,
            last_switch_s,
            windows,
        };
        Ok(Self {
            base,
            cfg,
            fleet,
            controller,
            evaluator,
            governor,
            tick,
            now_s,
            cursor,
            cursor_s,
            dirty,
            consecutive_failures: failures,
            backoff_ticks_remaining: backoff,
            degraded,
            rejected_batches,
            total_replans,
            total_switches,
            total_plan_changes,
            remap_misses,
            degraded_ticks,
            shed_replans,
        })
    }

    /// Check that `trace` reaches the event cursor, so replay can resume
    /// from it (a restored checkpoint may come from a longer log).
    pub fn check_trace(&self, trace: &ChurnTrace) -> Result<(), ProblemError> {
        if self.cursor > trace.events.len() {
            return Err(ProblemError::ChurnCursorPastTrace {
                cursor: self.cursor,
                events: trace.events.len(),
            });
        }
        Ok(())
    }

    /// Service-in-the-loop harness: replay `trace` from the current
    /// cursor, slicing events into tick-sized batches, until `horizon_s`.
    /// Invalid batches count as rejections and engage the ladder exactly
    /// as live ingest would. Returns every tick's outcome and status row,
    /// or [`ProblemError::ChurnCursorPastTrace`] if the trace ends before
    /// the cursor.
    pub fn drive_trace(
        &mut self,
        trace: &ChurnTrace,
        horizon_s: f64,
    ) -> Result<DriveReport, ProblemError> {
        self.check_trace(trace)?;
        let mut outcomes = Vec::new();
        let mut statuses = Vec::new();
        while self.now_s + self.cfg.tick_s <= horizon_s + 1e-12 {
            // A rejected batch is consumed but not applied; the ladder
            // has already recorded it.
            let _ = self.offer_batch(self.next_batch(trace));
            outcomes.push(self.tick());
            statuses.push(self.status());
        }
        Ok(DriveReport { outcomes, statuses })
    }
}

/// Everything [`PlanningService::drive_trace`] observed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriveReport {
    /// Per-tick outcomes, in order.
    pub outcomes: Vec<TickOutcome>,
    /// Per-tick status rows, parallel to `outcomes`.
    pub statuses: Vec<ServiceStatus>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use scalpel_sim::ChurnProfile;

    fn small_problem() -> JointProblem {
        ScenarioConfig {
            num_aps: 2,
            devices_per_ap: 3,
            arrival_rate_hz: 3.0,
            ..ScenarioConfig::default()
        }
        .build()
    }

    fn quick_cfg() -> ServiceConfig {
        ServiceConfig {
            optimizer: OptimizerConfig {
                gibbs_iters: 20,
                ..OptimizerConfig::default()
            },
            replan_budget: Budget::evals(20_000),
            tick_s: 2.0,
            ..ServiceConfig::default()
        }
    }

    fn small_trace(p: &JointProblem) -> ChurnTrace {
        ChurnProfile::default().plan(
            p.cluster.devices.len(),
            p.cluster.aps.len(),
            p.cluster.servers.len(),
            p.streams.len(),
            30.0,
        )
    }

    #[test]
    fn service_replans_under_churn_and_reports_status() {
        let p = small_problem();
        let trace = small_trace(&p);
        let mut svc = PlanningService::new(p, quick_cfg()).expect("valid base");
        let report = svc.drive_trace(&trace, 30.0).expect("fresh cursor");
        let last = report.statuses.last().expect("non-empty drive");
        assert!(last.total_replans > 0, "no replans over a churning trace");
        assert_eq!(last.events_consumed, trace.events.len());
        assert!(!last.degraded);
        assert!(last.to_line().contains("replans="));
    }

    #[test]
    fn rejected_batch_engages_the_ladder_and_backs_off() {
        let p = small_problem();
        let mut svc = PlanningService::new(p, quick_cfg()).expect("valid base");
        let bad = [ChurnEvent {
            at_s: 1.0,
            kind: ChurnKind::LinkDrift {
                ap: 99,
                factor: 0.5,
            },
        }];
        assert!(svc.offer_batch(&bad).is_err());
        let s = svc.status();
        assert!(s.degraded);
        assert_eq!(s.rejected_batches, 1);
        assert_eq!(s.consecutive_failures, 1);
        assert_eq!(s.backoff_ticks_remaining, 1);
        // Second failure doubles the backoff.
        assert!(svc.offer_batch(&bad).is_err());
        assert_eq!(svc.status().backoff_ticks_remaining, 2);
        // Ticks drain the backoff without replanning.
        let out = svc.tick();
        assert!(!out.replanned && out.degraded);
        assert_eq!(svc.status().backoff_ticks_remaining, 1);
        // A good batch + drained backoff recovers.
        svc.tick();
        let good = [ChurnEvent {
            at_s: 1.0,
            kind: ChurnKind::LinkDrift { ap: 0, factor: 0.5 },
        }];
        svc.offer_batch(&good).expect("valid batch");
        let out = svc.tick();
        assert!(out.replanned);
        assert!(!svc.status().degraded);
    }

    #[test]
    fn budget_starvation_degrades_instead_of_adopting_partials() {
        let p = small_problem();
        let mut cfg = quick_cfg();
        cfg.replan_budget = Budget::evals(1); // expires immediately
        let mut svc = PlanningService::new(p, cfg).expect("valid base");
        let before = svc.assignment().clone();
        let ev = [ChurnEvent {
            at_s: 0.5,
            kind: ChurnKind::LinkDrift { ap: 0, factor: 0.3 },
        }];
        svc.offer_batch(&ev).expect("valid");
        let out = svc.tick();
        assert!(!out.replanned && out.degraded);
        assert_eq!(svc.assignment(), &before, "partial result was adopted");
        assert!(svc.status().backoff_ticks_remaining > 0);
    }

    #[test]
    fn checkpoint_roundtrips_bit_exactly() {
        let p = small_problem();
        let trace = small_trace(&p);
        let mut svc = PlanningService::new(p.clone(), quick_cfg()).expect("valid base");
        svc.drive_trace(&trace, 12.0).expect("fresh cursor");
        let text = svc.checkpoint_text();
        let restored =
            PlanningService::restore(p, quick_cfg(), &text).expect("checkpoint restores");
        assert_eq!(restored.checkpoint_text(), text);
        assert_eq!(restored.status(), svc.status());
        assert_eq!(restored.assignment(), svc.assignment());
    }

    #[test]
    fn restore_rejects_malformed_checkpoints() {
        let p = small_problem();
        let svc = PlanningService::new(p.clone(), quick_cfg()).expect("valid base");
        let good = svc.checkpoint_text();
        assert!(PlanningService::restore(p.clone(), quick_cfg(), "").is_err());
        assert!(PlanningService::restore(p.clone(), quick_cfg(), "garbage\n").is_err());
        let truncated = good.replace("end\n", "");
        assert!(PlanningService::restore(p.clone(), quick_cfg(), &truncated).is_err());
        let off_menu = good.replace("plan ", "plan 9999 ");
        assert!(PlanningService::restore(p.clone(), quick_cfg(), &off_menu).is_err());

        // A checkpoint with live windows, factors and counters (tick 6).
        let trace = small_trace(&p);
        let mut svc = PlanningService::new(p.clone(), quick_cfg()).expect("valid base");
        svc.drive_trace(&trace, 12.0).expect("fresh cursor");
        let ckpt = svc.checkpoint_text();
        let lines: Vec<&str> = ckpt.lines().collect();
        let rebuild = |edit: &dyn Fn(usize, &str) -> Option<String>| -> String {
            lines
                .iter()
                .enumerate()
                .filter_map(|(i, l)| edit(i, l))
                .map(|l| l + "\n")
                .collect()
        };
        let set_all = |edits: &[(&str, &str)]| {
            rebuild(&|_, l: &str| {
                let key = l.split(' ').next();
                Some(match edits.iter().find(|(k, _)| key == Some(*k)) {
                    Some((k, v)) => format!("{k} {v}"),
                    None => l.to_string(),
                })
            })
        };
        let set = |key: &str, value: &str| set_all(&[(key, value)]);
        let restore = |text: &str| PlanningService::restore(p.clone(), quick_cfg(), text);

        // A missing record, and a value no run can reach, is refused.
        let mut refused: Vec<(String, String)> = Vec::new();
        for i in 0..lines.len() {
            refused.push((
                format!("drop line {}", i + 1),
                rebuild(&|j, l| (j != i).then(|| l.to_string())),
            ));
        }
        refused.push(("degraded x".into(), set("degraded", "x")));
        refused.push(("degraded 2".into(), set("degraded", "2")));
        // The ladder: `degraded` is exactly "a failure is outstanding",
        // and the backoff never exceeds what the last failure set.
        assert!(ckpt.contains("\nfailures 0\nbackoff 0\ndegraded 0\n"));
        for (ladder, reachable) in [
            (["1", "1", "1"], true),
            (["1", "0", "1"], true),
            (["3", "4", "1"], true),
            (["20", "64", "1"], true),
            (["0", "0", "1"], false),
            (["1", "1", "0"], false),
            (["0", "1", "0"], false),
            (["1", "2", "1"], false),
            (["3", "5", "1"], false),
            (["20", "65", "1"], false),
        ] {
            let keys = ["failures", "backoff", "degraded"];
            let text = set_all(&[0, 1, 2].map(|i| (keys[i], ladder[i])));
            if reachable {
                assert!(restore(&text).is_ok(), "ladder {ladder:?}");
            } else {
                refused.push((format!("ladder {ladder:?}"), text));
            }
        }
        // Dwell times are never NaN and never later than `now`.
        let n = p.streams.len();
        for bad in ["7ff8000000000000", "7ff0000000000000", "4040000000000000"] {
            let value = vec![bad; n].join(" ");
            refused.push((format!("dwell {bad}"), set("dwell", &value)));
        }
        // A governor window holds at most `window` samples, none NaN.
        let win0 = |samples: &str| {
            rebuild(&|_, l: &str| {
                Some(if l.starts_with("win 0 ") {
                    format!("win 0 {samples}")
                } else {
                    l.to_string()
                })
            })
        };
        let long = vec!["3f50624dd2f1a9fc"; quick_cfg().governor.window + 1].join(" ");
        refused.push(("win 0, too long".into(), win0(&long)));
        refused.push((
            "win 0, NaN".into(),
            win0("3f50624dd2f1a9fc 7ff8000000000000"),
        ));
        for bad in ["7ff8000000000000", "7ff0000000000000", "fff0000000000000"] {
            refused.push((format!("now {bad}"), set("now", bad)));
            refused.push((format!("cursor_s {bad}"), set("cursor_s", bad)));
        }
        refused.push(("cursor_s -1".into(), set("cursor_s", "bff0000000000000")));
        // Outside [FACTOR_FLOOR, 1] (link, cap) or [FACTOR_FLOOR, 16] (load).
        for (key, bad, n) in [
            ("link", "4000000000000000", p.cluster.aps.len()),
            ("cap", "0000000000000000", p.cluster.servers.len()),
            ("load", "4031000000000000", p.streams.len()),
            ("load", "7ff8000000000000", p.streams.len()),
        ] {
            let value = vec![bad; n].join(" ");
            refused.push((format!("{key} {bad}"), set(key, &value)));
        }
        refused.push((
            "duplicate tick".into(),
            ckpt.replacen("now ", "tick 6\nnow ", 1),
        ));
        refused.push(("record after end".into(), format!("{ckpt}tick 6\n")));
        for (what, text) in &refused {
            assert_ne!(&ckpt, text, "{what}: no corruption");
            let e = restore(text)
                .err()
                .unwrap_or_else(|| panic!("{what}: restored"));
            assert!(!e.to_string().is_empty());
        }

        // The sweep: every byte-prefix truncation, every dropped line and
        // every token swapped for a poison gives a typed error, or a
        // restored service whose tail replay does not panic.
        let poisons = [
            "",
            "x",
            "-1",
            "0",
            "1",
            "2",
            "18446744073709551615",
            "18446744073709551616",
            "7ff8000000000000",
            "7ff0000000000000",
            "fff0000000000000",
            "8000000000000000",
        ];
        let mut variants: Vec<String> = (0..ckpt.len()).map(|i| ckpt[..i].to_string()).collect();
        for i in 0..lines.len() {
            variants.push(rebuild(&|j, l| (j != i).then(|| l.to_string())));
        }
        for (i, l) in lines.iter().enumerate() {
            let tokens: Vec<&str> = l.split(' ').collect();
            for t in 0..tokens.len() {
                for poison in poisons {
                    let mut swapped = tokens.clone();
                    swapped[t] = poison;
                    let swapped = swapped.join(" ");
                    variants.push(rebuild(&|j, l| {
                        Some(if j == i {
                            swapped.clone()
                        } else {
                            l.to_string()
                        })
                    }));
                }
            }
        }
        let mut restored_count = 0;
        for text in &variants {
            match restore(text) {
                Ok(mut resumed) => {
                    restored_count += 1;
                    let _ = resumed.drive_trace(&trace, 16.0);
                }
                Err(e) => assert!(!e.to_string().is_empty()),
            }
        }
        assert!(restored_count > 0 && restored_count < variants.len());
    }

    #[test]
    fn governor_blocks_switches_until_window_fills_then_caps_them() {
        let mut gov = SwitchGovernor::new(
            GovernorConfig {
                min_dwell_s: 0.0,
                switch_cost_s: 0.01,
                hysteresis_margin_s: 0.0,
                max_switches_per_tick: 1,
                window: 2,
            },
            3,
        );
        let warm = Assignment {
            plan_idx: vec![0, 0, 0],
            placement: vec![0, 0, 0],
        };
        let cand = Assignment {
            plan_idx: vec![0, 0, 0],
            placement: vec![1, 1, 1],
        };
        let fast = vec![0.01, 0.01, 0.01];
        // Empty windows: everything vetoed.
        let d = gov.govern(1.0, &warm, &cand, &fast);
        assert!(d.switched.is_empty());
        assert_eq!(d.rejected_window, 3);
        // Fill windows with slow incumbent latencies.
        let slow = EvalResult {
            latency_s: vec![0.2, 0.3, 0.25],
            accuracy: vec![1.0; 3],
            bandwidth_shares: vec![0.3; 3],
            compute_shares: vec![0.3; 3],
            objective: 1.0,
            expected_misses: 0,
            device_energy_j: vec![0.0; 3],
            total_energy_j: vec![0.0; 3],
        };
        gov.observe(&slow);
        gov.observe(&slow);
        let d = gov.govern(2.0, &warm, &cand, &fast);
        // All three clear the margin; the cap admits only the biggest
        // improvement (stream 1 at 0.3).
        assert_eq!(d.switched, vec![1]);
        assert_eq!(d.rejected_cap, 2);
        assert_eq!(d.adopted.placement, vec![0, 1, 0]);
    }

    #[test]
    fn governed_switches_far_fewer_than_ungoverned() {
        let p = small_problem();
        let trace = small_trace(&p);
        let governed = {
            let mut svc = PlanningService::new(p.clone(), quick_cfg()).expect("valid base");
            svc.drive_trace(&trace, 30.0).expect("fresh cursor");
            svc.status().total_switches
        };
        let ungoverned = {
            let mut cfg = quick_cfg();
            cfg.ungoverned = true;
            let mut svc = PlanningService::new(p, cfg).expect("valid base");
            svc.drive_trace(&trace, 30.0).expect("fresh cursor");
            svc.status().total_switches
        };
        assert!(
            governed <= ungoverned,
            "governed {governed} vs ungoverned {ungoverned}"
        );
    }
}
