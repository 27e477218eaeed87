//! Ingest validation and repair for joint problem instances.
//!
//! Everything entering the solver stack passes through here once, so the
//! optimizer, evaluator and simulator can assume structurally sound input
//! and stay panic-free on the hot path. A [`ProblemError`] names each way
//! ingest can fail; [`validate_problem`] either rejects with the first
//! defect found ([`ValidationPolicy::Strict`]) or repairs what is
//! repairable — clamping out-of-range scalars, dropping dead resources,
//! reassigning orphaned devices — and reports every action taken
//! ([`ValidationPolicy::Repair`]).

use crate::problem::JointProblem;
use scalpel_sim::SimError;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Ceiling on a stream's long-run mean arrival rate, requests/s. Rates
/// above this are treated as measurement garbage: the parameters may be
/// individually finite and positive, but no edge workload generates a
/// million requests per second per stream, and admitting one would ask
/// the simulator to materialize `rate × horizon` requests.
pub const MAX_ARRIVAL_RATE_HZ: f64 = 1e6;

/// Why a [`JointProblem`] was rejected at ingest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProblemError {
    /// The cluster topology is internally inconsistent (bad ids, dangling
    /// AP references); wraps the simulator's own validation error.
    Topology(SimError),
    /// A stream's arrival process carries out-of-range parameters.
    Arrival {
        /// The offending stream.
        stream: usize,
        /// The underlying arrival-process error.
        source: SimError,
    },
    /// A stream's mean arrival rate exceeds [`MAX_ARRIVAL_RATE_HZ`]; the
    /// parameters are finite but the workload is unsimulatable.
    ArrivalRateTooHigh {
        /// The offending stream.
        stream: usize,
        /// The long-run mean rate, requests/s.
        rate_hz: f64,
    },
    /// The problem names no models.
    NoModels,
    /// `models` and `model_accuracy` disagree in length.
    ModelAccuracyArity {
        /// Number of models.
        models: usize,
        /// Number of published accuracies.
        accuracies: usize,
    },
    /// The problem has no streams.
    NoStreams,
    /// The cluster has no edge servers (the evaluator divides by the
    /// server count, so zero servers is structurally unusable).
    NoServers,
    /// The cluster has no access points.
    NoAps,
    /// A stream originates on a device index outside the cluster.
    MissingDevice {
        /// The offending stream.
        stream: usize,
        /// The referenced device index.
        device: usize,
    },
    /// A stream references a model index outside `models`.
    MissingModel {
        /// The offending stream.
        stream: usize,
        /// The referenced model index.
        model: usize,
    },
    /// A device sits at a non-finite or negative distance from its AP, so
    /// its uplink rate is undefined (the device is unreachable).
    UnreachableDevice {
        /// The offending device.
        device: usize,
        /// The recorded distance, meters.
        distance_m: f64,
    },
    /// A server advertises non-finite or non-positive compute capacity.
    ZeroCapacityServer {
        /// The offending server.
        server: usize,
        /// The advertised capacity, FLOP/s.
        flops_per_sec: f64,
    },
    /// An AP advertises non-finite or non-positive uplink spectrum.
    ZeroBandwidthAp {
        /// The offending AP.
        ap: usize,
        /// The advertised bandwidth, Hz.
        bandwidth_hz: f64,
    },
    /// An AP's round-trip time is non-finite or negative.
    InvalidRtt {
        /// The offending AP.
        ap: usize,
        /// The recorded RTT, seconds.
        rtt_s: f64,
    },
    /// A stream's relative deadline is non-finite or non-positive, so no
    /// plan can ever meet it (the deadline is infeasible by construction).
    NonPositiveDeadline {
        /// The offending stream.
        stream: usize,
        /// The recorded deadline, seconds.
        deadline_s: f64,
    },
    /// A stream's accuracy floor lies outside `[0, 1]`.
    AccuracyFloorOutOfRange {
        /// The offending stream.
        stream: usize,
        /// The recorded floor.
        floor: f64,
    },
    /// A published model accuracy lies outside `[0, 1]`.
    ModelAccuracyOutOfRange {
        /// The offending model.
        model: usize,
        /// The recorded accuracy.
        accuracy: f64,
    },
    /// Candidate generation produced no admissible plan for a stream
    /// (accuracy floor too high for every cut/exit combination).
    EmptyExitMenu {
        /// The offending stream.
        stream: usize,
    },
    /// A shard configuration caps shards at zero streams.
    ShardZeroCap,
    /// A per-AP reachability table does not cover every AP.
    ShardReachArity {
        /// APs in the cluster.
        expected_aps: usize,
        /// Rows in the reachability table.
        got: usize,
    },
    /// A reachability row names a server outside the cluster.
    ShardReachUnknownServer {
        /// The offending AP.
        ap: usize,
        /// The referenced server index.
        server: usize,
    },
    /// A reachability row leaves an AP with no candidate servers, so its
    /// streams could never offload anywhere.
    ShardReachEmptyAp {
        /// The offending AP.
        ap: usize,
    },
    /// `ShardConfig::max_streams` is smaller than some AP's stream group.
    /// APs are never split across shards (their devices share a bandwidth
    /// group), so the cap must admit the largest AP group.
    ShardCapBelowApGroup {
        /// The offending AP.
        ap: usize,
        /// Streams on that AP.
        streams: usize,
        /// The configured cap.
        max_streams: usize,
    },
    /// A churn event names an index outside the fleet.
    ChurnUnknownTarget {
        /// What kind of target ("device", "ap", "server", "stream").
        what: &'static str,
        /// The referenced index.
        index: usize,
        /// How many of that target the fleet has.
        count: usize,
    },
    /// A churn drift factor is non-finite or outside its admissible range.
    ChurnFactorOutOfRange {
        /// What kind of drift ("link", "cap", "load").
        what: &'static str,
        /// The offending factor.
        factor: f64,
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// A churn event is timestamped before the service's event cursor —
    /// the stream went backwards in time, so the whole batch is suspect.
    ChurnTimeRegression {
        /// The offending event's timestamp, seconds.
        at_s: f64,
        /// The cursor the service had already advanced to, seconds.
        cursor_s: f64,
    },
    /// The service's event cursor lies past the end of the trace it was
    /// asked to replay — a checkpoint taken over a longer log.
    ChurnCursorPastTrace {
        /// Events the service had already consumed.
        cursor: usize,
        /// Events in the trace.
        events: usize,
    },
    /// A churn event carries a non-finite timestamp.
    ChurnBadTimestamp {
        /// The offending timestamp.
        at_s: f64,
    },
    /// A diversity cap fraction is non-finite or non-positive (use a
    /// fraction ≥ 1 to disable an axis, never 0 or NaN).
    DiversityBadFraction {
        /// Which axis ("server", "ap", "domain").
        axis: &'static str,
        /// The offending fraction.
        frac: f64,
    },
    /// `DiversityConfig::server_domain` is non-empty but does not map
    /// every server.
    DiversityDomainArity {
        /// Servers in the cluster.
        expected_servers: usize,
        /// Entries in the domain table.
        got: usize,
    },
    /// The diversity penalty weight is non-finite or negative.
    DiversityBadPenalty {
        /// The offending weight.
        weight: f64,
    },
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::Topology(e) => write!(f, "{e}"),
            ProblemError::Arrival { stream, source } => {
                write!(f, "stream {stream}: {source}")
            }
            ProblemError::ArrivalRateTooHigh { stream, rate_hz } => write!(
                f,
                "stream {stream}: mean arrival rate {rate_hz} req/s exceeds \
                 the {MAX_ARRIVAL_RATE_HZ} req/s ceiling"
            ),
            ProblemError::NoModels => write!(f, "no models"),
            ProblemError::ModelAccuracyArity { models, accuracies } => write!(
                f,
                "models/accuracy arity mismatch ({models} models, {accuracies} accuracies)"
            ),
            ProblemError::NoStreams => write!(f, "no streams"),
            ProblemError::NoServers => write!(f, "cluster has no servers"),
            ProblemError::NoAps => write!(f, "cluster has no access points"),
            ProblemError::MissingDevice { stream, device } => {
                write!(f, "stream {stream}: missing device {device}")
            }
            ProblemError::MissingModel { stream, model } => {
                write!(f, "stream {stream}: missing model {model}")
            }
            ProblemError::UnreachableDevice { device, distance_m } => {
                write!(f, "device {device}: unreachable (distance {distance_m} m)")
            }
            ProblemError::ZeroCapacityServer {
                server,
                flops_per_sec,
            } => write!(
                f,
                "server {server}: invalid capacity {flops_per_sec} FLOP/s"
            ),
            ProblemError::ZeroBandwidthAp { ap, bandwidth_hz } => {
                write!(f, "ap {ap}: invalid bandwidth {bandwidth_hz} Hz")
            }
            ProblemError::InvalidRtt { ap, rtt_s } => {
                write!(f, "ap {ap}: invalid RTT {rtt_s} s")
            }
            ProblemError::NonPositiveDeadline { stream, deadline_s } => {
                write!(f, "stream {stream}: non-positive deadline ({deadline_s} s)")
            }
            ProblemError::AccuracyFloorOutOfRange { stream, floor } => {
                write!(f, "stream {stream}: accuracy floor out of range ({floor})")
            }
            ProblemError::ModelAccuracyOutOfRange { model, accuracy } => {
                write!(
                    f,
                    "model {model}: published accuracy out of range ({accuracy})"
                )
            }
            ProblemError::EmptyExitMenu { stream } => {
                write!(
                    f,
                    "stream {stream}: no admissible surgery plan (empty exit menu)"
                )
            }
            ProblemError::ShardZeroCap => {
                write!(f, "shard config: max_streams must be positive")
            }
            ProblemError::ShardReachArity { expected_aps, got } => {
                write!(
                    f,
                    "shard config: reachability table has {got} rows for {expected_aps} APs"
                )
            }
            ProblemError::ShardReachUnknownServer { ap, server } => {
                write!(f, "shard config: AP {ap} reaches unknown server {server}")
            }
            ProblemError::ShardReachEmptyAp { ap } => {
                write!(
                    f,
                    "shard config: AP {ap} reaches no servers (its streams could never offload)"
                )
            }
            ProblemError::ShardCapBelowApGroup {
                ap,
                streams,
                max_streams,
            } => {
                write!(
                    f,
                    "shard config: AP {ap} carries {streams} streams but max_streams is \
                     {max_streams}; APs are never split, so the cap must admit the largest AP group"
                )
            }
            ProblemError::ChurnUnknownTarget { what, index, count } => {
                write!(f, "churn event: unknown {what} {index} (fleet has {count})")
            }
            ProblemError::ChurnFactorOutOfRange {
                what,
                factor,
                lo,
                hi,
            } => {
                write!(
                    f,
                    "churn event: {what} factor {factor} outside [{lo}, {hi}]"
                )
            }
            ProblemError::ChurnTimeRegression { at_s, cursor_s } => {
                write!(
                    f,
                    "churn event: timestamp {at_s} s behind the event cursor ({cursor_s} s)"
                )
            }
            ProblemError::ChurnCursorPastTrace { cursor, events } => {
                write!(
                    f,
                    "churn trace: event cursor {cursor} is past the end of the {events}-event trace"
                )
            }
            ProblemError::ChurnBadTimestamp { at_s } => {
                write!(f, "churn event: non-finite timestamp ({at_s})")
            }
            ProblemError::DiversityBadFraction { axis, frac } => {
                write!(
                    f,
                    "diversity config: {axis} cap fraction {frac} is not a positive \
                     finite number (use ≥ 1 to disable the axis)"
                )
            }
            ProblemError::DiversityDomainArity {
                expected_servers,
                got,
            } => {
                write!(
                    f,
                    "diversity config: server_domain maps {got} servers but the \
                     cluster has {expected_servers}"
                )
            }
            ProblemError::DiversityBadPenalty { weight } => {
                write!(
                    f,
                    "diversity config: penalty weight {weight} is not a finite \
                     non-negative number"
                )
            }
        }
    }
}

impl Error for ProblemError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProblemError::Topology(e) => Some(e),
            ProblemError::Arrival { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<SimError> for ProblemError {
    fn from(e: SimError) -> Self {
        ProblemError::Topology(e)
    }
}

impl From<ProblemError> for String {
    fn from(e: ProblemError) -> Self {
        e.to_string()
    }
}

/// How [`validate_problem`] treats a defective instance.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum ValidationPolicy {
    /// Reject at the first defect with a precise [`ProblemError`].
    #[default]
    Strict,
    /// Repair what can be repaired — clamp out-of-range scalars, drop
    /// dead resources, reassign orphaned devices, discard unusable
    /// streams — and reject only structural defects nothing can fix
    /// (no servers left, no streams left, arity mismatches).
    Repair {
        /// Ceiling for device–AP distances when clamping non-finite or
        /// oversized values, meters.
        max_distance_m: f64,
        /// Substitute deadline for streams whose recorded deadline is
        /// non-finite or non-positive, seconds.
        fallback_deadline_s: f64,
    },
}

impl ValidationPolicy {
    /// The repair preset with the default clamp ceilings.
    pub fn repair() -> Self {
        ValidationPolicy::Repair {
            max_distance_m: 10_000.0,
            fallback_deadline_s: 1.0,
        }
    }
}

/// One repair applied by [`validate_problem`] under
/// [`ValidationPolicy::Repair`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RepairAction {
    /// A device's distance was clamped into `[0, max_distance_m]`.
    ClampedDistance {
        /// The repaired device.
        device: usize,
        /// Original value, meters.
        from: f64,
        /// Clamped value, meters.
        to: f64,
    },
    /// An AP's RTT was clamped to a finite non-negative value.
    ClampedRtt {
        /// The repaired AP.
        ap: usize,
        /// Original value, seconds.
        from: f64,
        /// Clamped value, seconds.
        to: f64,
    },
    /// A stream's deadline was replaced by the policy fallback.
    ClampedDeadline {
        /// The repaired stream.
        stream: usize,
        /// Original value, seconds.
        from: f64,
        /// Substitute value, seconds.
        to: f64,
    },
    /// A stream's accuracy floor was clamped into `[0, 1]`.
    ClampedAccuracyFloor {
        /// The repaired stream.
        stream: usize,
        /// Original value.
        from: f64,
        /// Clamped value.
        to: f64,
    },
    /// A published model accuracy was clamped into `[0, 1]`.
    ClampedModelAccuracy {
        /// The repaired model.
        model: usize,
        /// Original value.
        from: f64,
        /// Clamped value.
        to: f64,
    },
    /// A zero-capacity server was removed (survivors renumbered).
    DroppedServer {
        /// The dropped server's original id.
        server: usize,
    },
    /// A zero-bandwidth AP was removed (survivors renumbered).
    DroppedAp {
        /// The dropped AP's original id.
        ap: usize,
    },
    /// A device whose AP was dropped or missing was moved to another AP.
    ReassignedDevice {
        /// The moved device.
        device: usize,
        /// Its original AP id.
        from_ap: usize,
        /// Its new AP id (post-renumbering).
        to_ap: usize,
    },
    /// A stream that could not be repaired (dangling device/model
    /// reference, invalid arrival process) was discarded.
    DroppedStream {
        /// The dropped stream's original index.
        stream: usize,
    },
}

/// Everything [`validate_problem`] changed while repairing an instance.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RepairReport {
    /// Repairs in application order.
    pub actions: Vec<RepairAction>,
}

impl RepairReport {
    /// `true` when the instance passed untouched.
    pub fn is_clean(&self) -> bool {
        self.actions.is_empty()
    }
}

/// Strict structural/numerical checks; first defect wins.
pub(crate) fn check_strict(p: &JointProblem) -> Result<(), ProblemError> {
    if p.models.is_empty() {
        return Err(ProblemError::NoModels);
    }
    if p.models.len() != p.model_accuracy.len() {
        return Err(ProblemError::ModelAccuracyArity {
            models: p.models.len(),
            accuracies: p.model_accuracy.len(),
        });
    }
    if p.streams.is_empty() {
        return Err(ProblemError::NoStreams);
    }
    if p.cluster.servers.is_empty() {
        return Err(ProblemError::NoServers);
    }
    if p.cluster.aps.is_empty() {
        return Err(ProblemError::NoAps);
    }
    p.cluster.validate().map_err(ProblemError::Topology)?;
    for (i, d) in p.cluster.devices.iter().enumerate() {
        if !d.distance_m.is_finite() || d.distance_m < 0.0 {
            return Err(ProblemError::UnreachableDevice {
                device: i,
                distance_m: d.distance_m,
            });
        }
    }
    for (i, a) in p.cluster.aps.iter().enumerate() {
        if !a.bandwidth_hz.is_finite() || a.bandwidth_hz <= 0.0 {
            return Err(ProblemError::ZeroBandwidthAp {
                ap: i,
                bandwidth_hz: a.bandwidth_hz,
            });
        }
        if !a.rtt_s.is_finite() || a.rtt_s < 0.0 {
            return Err(ProblemError::InvalidRtt {
                ap: i,
                rtt_s: a.rtt_s,
            });
        }
    }
    for (i, s) in p.cluster.servers.iter().enumerate() {
        if !s.proc.flops_per_sec.is_finite() || s.proc.flops_per_sec <= 0.0 {
            return Err(ProblemError::ZeroCapacityServer {
                server: i,
                flops_per_sec: s.proc.flops_per_sec,
            });
        }
    }
    for (i, acc) in p.model_accuracy.iter().enumerate() {
        if !(0.0..=1.0).contains(acc) {
            return Err(ProblemError::ModelAccuracyOutOfRange {
                model: i,
                accuracy: *acc,
            });
        }
    }
    for (i, s) in p.streams.iter().enumerate() {
        if s.device >= p.cluster.devices.len() {
            return Err(ProblemError::MissingDevice {
                stream: i,
                device: s.device,
            });
        }
        if s.model >= p.models.len() {
            return Err(ProblemError::MissingModel {
                stream: i,
                model: s.model,
            });
        }
        s.arrivals.validate().map_err(|e| ProblemError::Arrival {
            stream: i,
            source: e,
        })?;
        let rate = s.arrivals.mean_rate();
        if rate > MAX_ARRIVAL_RATE_HZ {
            return Err(ProblemError::ArrivalRateTooHigh {
                stream: i,
                rate_hz: rate,
            });
        }
        if !s.deadline_s.is_finite() || s.deadline_s <= 0.0 {
            return Err(ProblemError::NonPositiveDeadline {
                stream: i,
                deadline_s: s.deadline_s,
            });
        }
        if !(0.0..=1.0).contains(&s.accuracy_floor) {
            return Err(ProblemError::AccuracyFloorOutOfRange {
                stream: i,
                floor: s.accuracy_floor,
            });
        }
    }
    Ok(())
}

/// Validate a [`DiversityConfig`](crate::diversity::DiversityConfig):
/// every cap fraction must be a positive finite number (≥ 1 disables an
/// axis), a non-empty domain table must map every server, and the
/// penalty weight must be finite and non-negative.
pub fn validate_diversity(
    div: &crate::diversity::DiversityConfig,
    num_servers: usize,
) -> Result<(), ProblemError> {
    let axes = [
        ("server", div.max_server_frac),
        ("ap", div.max_ap_frac),
        ("domain", div.max_domain_frac),
    ];
    for (axis, frac) in axes {
        if !frac.is_finite() || frac <= 0.0 {
            return Err(ProblemError::DiversityBadFraction { axis, frac });
        }
    }
    if !div.server_domain.is_empty() && div.server_domain.len() != num_servers {
        return Err(ProblemError::DiversityDomainArity {
            expected_servers: num_servers,
            got: div.server_domain.len(),
        });
    }
    if !div.penalty_weight.is_finite() || div.penalty_weight < 0.0 {
        return Err(ProblemError::DiversityBadPenalty {
            weight: div.penalty_weight,
        });
    }
    Ok(())
}

/// Validate a [`ShardConfig`](crate::shard::ShardConfig) against a
/// problem: the cap must be positive and admit the largest AP stream
/// group (APs are never split across shards), and a per-AP reachability
/// table must cover every AP, name only real servers, and leave no AP
/// with an empty candidate set.
pub fn validate_shard_config(
    p: &JointProblem,
    cfg: &crate::shard::ShardConfig,
) -> Result<(), ProblemError> {
    if cfg.max_streams == 0 {
        return Err(ProblemError::ShardZeroCap);
    }
    for (ap, members) in p.streams_by_ap().iter().enumerate() {
        if members.len() > cfg.max_streams {
            return Err(ProblemError::ShardCapBelowApGroup {
                ap,
                streams: members.len(),
                max_streams: cfg.max_streams,
            });
        }
    }
    if let crate::shard::Reachability::PerAp(lists) = &cfg.reach {
        if lists.len() != p.cluster.aps.len() {
            return Err(ProblemError::ShardReachArity {
                expected_aps: p.cluster.aps.len(),
                got: lists.len(),
            });
        }
        for (ap, servers) in lists.iter().enumerate() {
            if servers.is_empty() {
                return Err(ProblemError::ShardReachEmptyAp { ap });
            }
            for &srv in servers {
                if srv >= p.cluster.servers.len() {
                    return Err(ProblemError::ShardReachUnknownServer { ap, server: srv });
                }
            }
        }
    }
    Ok(())
}

/// Validate one churn event against the fleet a service is planning for:
/// the target index must exist, drift factors must be finite and inside
/// their admissible range, and the timestamp must be finite and not
/// regress behind `cursor_s` (the time the service has already consumed
/// up to).
fn validate_churn_event(
    p: &JointProblem,
    cursor_s: f64,
    event: &scalpel_sim::ChurnEvent,
) -> Result<(), ProblemError> {
    use scalpel_sim::churn::{FACTOR_FLOOR, MAX_LOAD_FACTOR};
    use scalpel_sim::ChurnKind;
    if !event.at_s.is_finite() {
        return Err(ProblemError::ChurnBadTimestamp { at_s: event.at_s });
    }
    if event.at_s < cursor_s {
        return Err(ProblemError::ChurnTimeRegression {
            at_s: event.at_s,
            cursor_s,
        });
    }
    let check_index = |what: &'static str, index: usize, count: usize| {
        if index >= count {
            Err(ProblemError::ChurnUnknownTarget { what, index, count })
        } else {
            Ok(())
        }
    };
    let check_factor = |what: &'static str, factor: f64, lo: f64, hi: f64| {
        if !factor.is_finite() || !(lo..=hi).contains(&factor) {
            Err(ProblemError::ChurnFactorOutOfRange {
                what,
                factor,
                lo,
                hi,
            })
        } else {
            Ok(())
        }
    };
    match event.kind {
        ChurnKind::DeviceDown { device } | ChurnKind::DeviceUp { device } => {
            check_index("device", device, p.cluster.devices.len())
        }
        ChurnKind::LinkDrift { ap, factor } => {
            check_index("ap", ap, p.cluster.aps.len())?;
            check_factor("link", factor, FACTOR_FLOOR, 1.0)
        }
        ChurnKind::CapacityDrift { server, factor } => {
            check_index("server", server, p.cluster.servers.len())?;
            check_factor("cap", factor, FACTOR_FLOOR, 1.0)
        }
        ChurnKind::LoadDrift { stream, factor } => {
            check_index("stream", stream, p.streams.len())?;
            check_factor("load", factor, FACTOR_FLOOR, MAX_LOAD_FACTOR)
        }
    }
}

/// Validate a whole churn batch atomically: every event is checked (in
/// order, with the cursor advancing inside the batch) and the first
/// defect rejects the batch. A service applies either all of a batch or
/// none of it — partial application would leave the fleet view
/// inconsistent with the event log it replays from.
pub fn validate_churn_batch(
    p: &JointProblem,
    cursor_s: f64,
    events: &[scalpel_sim::ChurnEvent],
) -> Result<(), ProblemError> {
    let mut cursor = cursor_s;
    for e in events {
        validate_churn_event(p, cursor, e)?;
        cursor = e.at_s;
    }
    Ok(())
}

/// Validate a problem under `policy`.
///
/// Under [`ValidationPolicy::Strict`] the input is returned untouched (with
/// an empty report) or rejected with the first defect found. Under
/// [`ValidationPolicy::Repair`] a repaired copy is returned together with
/// the list of repairs; only structurally unfixable instances (no streams
/// or servers survive, arity mismatches) are rejected. The repaired copy
/// always satisfies the strict checks.
pub fn validate_problem(
    problem: &JointProblem,
    policy: &ValidationPolicy,
) -> Result<(JointProblem, RepairReport), ProblemError> {
    let (max_distance_m, fallback_deadline_s) = match policy {
        ValidationPolicy::Strict => {
            check_strict(problem)?;
            return Ok((problem.clone(), RepairReport::default()));
        }
        ValidationPolicy::Repair {
            max_distance_m,
            fallback_deadline_s,
        } => (*max_distance_m, *fallback_deadline_s),
    };
    let mut p = problem.clone();
    let mut report = RepairReport::default();

    // Structurally unfixable defects first.
    if p.models.is_empty() {
        return Err(ProblemError::NoModels);
    }
    if p.models.len() != p.model_accuracy.len() {
        return Err(ProblemError::ModelAccuracyArity {
            models: p.models.len(),
            accuracies: p.model_accuracy.len(),
        });
    }

    // --- Access points: drop dead spectrum, clamp RTT, renumber. ---
    let mut ap_remap: Vec<Option<usize>> = Vec::with_capacity(p.cluster.aps.len());
    let mut kept_aps = Vec::with_capacity(p.cluster.aps.len());
    for (i, mut a) in p.cluster.aps.drain(..).enumerate() {
        if !a.bandwidth_hz.is_finite() || a.bandwidth_hz <= 0.0 {
            report.actions.push(RepairAction::DroppedAp { ap: i });
            ap_remap.push(None);
            continue;
        }
        if !a.rtt_s.is_finite() || a.rtt_s < 0.0 {
            report.actions.push(RepairAction::ClampedRtt {
                ap: i,
                from: a.rtt_s,
                to: 0.0,
            });
            a.rtt_s = 0.0;
        }
        a.id = kept_aps.len();
        ap_remap.push(Some(a.id));
        kept_aps.push(a);
    }
    if kept_aps.is_empty() {
        return Err(ProblemError::NoAps);
    }
    p.cluster.aps = kept_aps;

    // --- Devices: renumber, reattach orphans, clamp distances. ---
    for (i, d) in p.cluster.devices.iter_mut().enumerate() {
        d.id = i;
        let new_ap = ap_remap.get(d.ap).copied().flatten();
        match new_ap {
            Some(ap) if ap == d.ap => {}
            found => {
                let to_ap = found.unwrap_or(0);
                report.actions.push(RepairAction::ReassignedDevice {
                    device: i,
                    from_ap: d.ap,
                    to_ap,
                });
                d.ap = to_ap;
            }
        }
        if !d.distance_m.is_finite() || d.distance_m < 0.0 || d.distance_m > max_distance_m {
            let to = if d.distance_m < 0.0 {
                0.0
            } else {
                max_distance_m
            };
            report.actions.push(RepairAction::ClampedDistance {
                device: i,
                from: d.distance_m,
                to,
            });
            d.distance_m = to;
        }
    }

    // --- Servers: drop dead capacity, renumber. ---
    let mut kept_servers = Vec::with_capacity(p.cluster.servers.len());
    for (i, mut s) in p.cluster.servers.drain(..).enumerate() {
        if !s.proc.flops_per_sec.is_finite() || s.proc.flops_per_sec <= 0.0 {
            report
                .actions
                .push(RepairAction::DroppedServer { server: i });
            continue;
        }
        s.id = kept_servers.len();
        kept_servers.push(s);
    }
    if kept_servers.is_empty() {
        return Err(ProblemError::NoServers);
    }
    p.cluster.servers = kept_servers;

    // --- Model accuracies: clamp into [0, 1] (NaN pins to 0). ---
    for (i, acc) in p.model_accuracy.iter_mut().enumerate() {
        if !(0.0..=1.0).contains(acc) {
            let to = if acc.is_finite() {
                acc.clamp(0.0, 1.0)
            } else {
                0.0
            };
            report.actions.push(RepairAction::ClampedModelAccuracy {
                model: i,
                from: *acc,
                to,
            });
            *acc = to;
        }
    }

    // --- Streams: clamp deadlines/floors, drop unfixable references. ---
    let num_devices = p.cluster.devices.len();
    let num_models = p.models.len();
    let mut kept_streams = Vec::with_capacity(p.streams.len());
    for (i, mut s) in p.streams.drain(..).enumerate() {
        if s.device >= num_devices
            || s.model >= num_models
            || s.arrivals.validate().is_err()
            || s.arrivals.mean_rate() > MAX_ARRIVAL_RATE_HZ
        {
            report
                .actions
                .push(RepairAction::DroppedStream { stream: i });
            continue;
        }
        if !s.deadline_s.is_finite() || s.deadline_s <= 0.0 {
            report.actions.push(RepairAction::ClampedDeadline {
                stream: i,
                from: s.deadline_s,
                to: fallback_deadline_s,
            });
            s.deadline_s = fallback_deadline_s;
        }
        if !(0.0..=1.0).contains(&s.accuracy_floor) {
            let to = if s.accuracy_floor.is_finite() {
                s.accuracy_floor.clamp(0.0, 1.0)
            } else {
                0.0
            };
            report.actions.push(RepairAction::ClampedAccuracyFloor {
                stream: i,
                from: s.accuracy_floor,
                to,
            });
            s.accuracy_floor = to;
        }
        kept_streams.push(s);
    }
    if kept_streams.is_empty() {
        return Err(ProblemError::NoStreams);
    }
    p.streams = kept_streams;

    // A repaired instance must pass the strict gate; anything left over
    // is a defect this policy cannot fix, so surface it.
    check_strict(&p)?;
    Ok((p, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::tests::tiny_problem;

    #[test]
    fn strict_accepts_valid_instance_untouched() {
        let p = tiny_problem();
        let (q, report) = validate_problem(&p, &ValidationPolicy::Strict).unwrap();
        assert!(report.is_clean());
        assert_eq!(q.streams.len(), p.streams.len());
    }

    #[test]
    fn strict_rejects_each_defect_with_a_precise_error() {
        let mut p = tiny_problem();
        p.streams[0].deadline_s = f64::NAN;
        assert!(matches!(
            validate_problem(&p, &ValidationPolicy::Strict),
            Err(ProblemError::NonPositiveDeadline { stream: 0, .. })
        ));

        let mut p = tiny_problem();
        p.cluster.servers[0].proc.flops_per_sec = 0.0;
        assert!(matches!(
            validate_problem(&p, &ValidationPolicy::Strict),
            Err(ProblemError::ZeroCapacityServer { server: 0, .. })
        ));

        let mut p = tiny_problem();
        p.cluster.aps[0].bandwidth_hz = f64::NAN;
        assert!(matches!(
            validate_problem(&p, &ValidationPolicy::Strict),
            Err(ProblemError::ZeroBandwidthAp { ap: 0, .. })
        ));

        let mut p = tiny_problem();
        p.cluster.devices[1].distance_m = f64::INFINITY;
        assert!(matches!(
            validate_problem(&p, &ValidationPolicy::Strict),
            Err(ProblemError::UnreachableDevice { device: 1, .. })
        ));

        let mut p = tiny_problem();
        p.cluster.servers.clear();
        assert!(matches!(
            validate_problem(&p, &ValidationPolicy::Strict),
            Err(ProblemError::NoServers)
        ));
    }

    #[test]
    fn repair_clamps_scalars_and_reports() {
        let mut p = tiny_problem();
        p.streams[0].deadline_s = -3.0;
        p.streams[1].accuracy_floor = 1.7;
        p.cluster.devices[0].distance_m = f64::NAN;
        let (q, report) = validate_problem(&p, &ValidationPolicy::repair()).unwrap();
        assert!(!report.is_clean());
        assert_eq!(q.streams.len(), 2);
        assert!(q.streams[0].deadline_s > 0.0);
        assert!((0.0..=1.0).contains(&q.streams[1].accuracy_floor));
        assert!(q.cluster.devices[0].distance_m.is_finite());
        assert!(check_strict(&q).is_ok());
    }

    #[test]
    fn repair_drops_dead_resources_and_reassigns() {
        let mut p = tiny_problem();
        // Second AP with no spectrum; move device 1 onto it.
        p.cluster.aps.push(scalpel_sim::ApSpec {
            id: 1,
            bandwidth_hz: 0.0,
            rtt_s: 1e-3,
        });
        p.cluster.devices[1].ap = 1;
        let (q, report) = validate_problem(&p, &ValidationPolicy::repair()).unwrap();
        assert_eq!(q.cluster.aps.len(), 1);
        assert_eq!(q.cluster.devices[1].ap, 0);
        assert!(report
            .actions
            .iter()
            .any(|a| matches!(a, RepairAction::DroppedAp { ap: 1 })));
        assert!(report
            .actions
            .iter()
            .any(|a| matches!(a, RepairAction::ReassignedDevice { device: 1, .. })));
        assert!(check_strict(&q).is_ok());
    }

    #[test]
    fn repair_drops_unfixable_streams_but_rejects_empty_survivor_set() {
        let mut p = tiny_problem();
        p.streams[0].device = 99;
        let (q, report) = validate_problem(&p, &ValidationPolicy::repair()).unwrap();
        assert_eq!(q.streams.len(), 1);
        assert!(report
            .actions
            .iter()
            .any(|a| matches!(a, RepairAction::DroppedStream { stream: 0 })));

        let mut p = tiny_problem();
        for s in &mut p.streams {
            s.model = 99;
        }
        assert!(matches!(
            validate_problem(&p, &ValidationPolicy::repair()),
            Err(ProblemError::NoStreams)
        ));
    }

    #[test]
    fn absurd_arrival_rates_are_rejected_or_dropped() {
        // Finite, positive, and completely unsimulatable: strict rejects,
        // repair drops the stream.
        let mut p = tiny_problem();
        p.streams[0].arrivals = scalpel_sim::ArrivalProcess::Poisson { rate_hz: 1e308 };
        assert!(matches!(
            validate_problem(&p, &ValidationPolicy::Strict),
            Err(ProblemError::ArrivalRateTooHigh { stream: 0, .. })
        ));
        let (q, report) = validate_problem(&p, &ValidationPolicy::repair()).unwrap();
        assert_eq!(q.streams.len(), 1);
        assert!(report
            .actions
            .iter()
            .any(|a| matches!(a, RepairAction::DroppedStream { stream: 0 })));
        assert!(check_strict(&q).is_ok());
    }

    #[test]
    fn repair_rejects_when_no_server_survives() {
        let mut p = tiny_problem();
        p.cluster.servers[0].proc.flops_per_sec = f64::NAN;
        assert!(matches!(
            validate_problem(&p, &ValidationPolicy::repair()),
            Err(ProblemError::NoServers)
        ));
    }

    #[test]
    fn errors_display_and_chain() {
        let e = ProblemError::NonPositiveDeadline {
            stream: 3,
            deadline_s: -1.0,
        };
        assert_eq!(e.to_string(), "stream 3: non-positive deadline (-1 s)");
        let wrapped = ProblemError::Topology(SimError::InvalidTopology {
            detail: "cluster has no devices".into(),
        });
        assert!(wrapped.source().is_some());
        let s: String = wrapped.into();
        assert!(s.contains("no devices"));
    }
}
