//! Ingest validation for joint problem instances.
//!
//! Everything entering the solver stack passes through here once, so the
//! optimizer, evaluator and simulator can assume structurally sound input
//! and stay panic-free on the hot path. A [`ProblemError`] names each way
//! ingest can fail. [`JointProblem::validate`] is the one door for a
//! problem instance: it accepts the instance as measured or rejects it
//! with the first defect found. Nothing is clamped, dropped or renumbered,
//! so the solver never sees an instance other than the one submitted.

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
    /// `DiversityConfig::server_domain` is non-empty but does not map
    /// every server.
    DiversityDomainArity {
        /// Servers in the cluster.
        expected_servers: usize,
        /// Entries in the domain table.
        got: usize,
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

/// Structural and numerical checks; first defect wins. The body of
/// [`JointProblem::validate`].
pub(crate) fn check_problem(p: &JointProblem) -> Result<(), ProblemError> {
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
    // APs before the topology check: `Cluster::validate` also rejects bad
    // spectrum, but only as an untyped topology error.
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
    p.cluster.validate().map_err(ProblemError::Topology)?;
    for (i, d) in p.cluster.devices.iter().enumerate() {
        if !d.distance_m.is_finite() || d.distance_m < 0.0 {
            return Err(ProblemError::UnreachableDevice {
                device: i,
                distance_m: d.distance_m,
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

/// Validate a [`DiversityConfig`](crate::diversity::DiversityConfig): a
/// non-empty domain table must map every server.
pub fn validate_diversity(
    div: &crate::diversity::DiversityConfig,
    num_servers: usize,
) -> Result<(), ProblemError> {
    if !div.server_domain.is_empty() && div.server_domain.len() != num_servers {
        return Err(ProblemError::DiversityDomainArity {
            expected_servers: num_servers,
            got: div.server_domain.len(),
        });
    }
    Ok(())
}

/// Validate a [`ShardConfig`](crate::shard::ShardConfig) against a
/// problem: the cap must be positive and admit the largest AP stream
/// group (APs are never split across shards).
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
    match event.kind {
        ChurnKind::DeviceDown { device } | ChurnKind::DeviceUp { device } => {
            check_index("device", device, p.cluster.devices.len())
        }
        ChurnKind::LinkDrift { ap, factor } => {
            check_index("ap", ap, p.cluster.aps.len())?;
            check_churn_factor("link", factor)
        }
        ChurnKind::CapacityDrift { server, factor } => {
            check_index("server", server, p.cluster.servers.len())?;
            check_churn_factor("cap", factor)
        }
        ChurnKind::LoadDrift { stream, factor } => {
            check_index("stream", stream, p.streams.len())?;
            check_churn_factor("load", factor)
        }
    }
}

/// Check a drift factor against the range a churn event may set it to:
/// `[FACTOR_FLOOR, MAX_LOAD_FACTOR]` for `"load"`, `[FACTOR_FLOOR, 1]`
/// for `"link"` and `"cap"`. NaN and ±∞ fall outside both.
pub(crate) fn check_churn_factor(what: &'static str, factor: f64) -> Result<(), ProblemError> {
    use scalpel_sim::churn::{FACTOR_FLOOR, MAX_LOAD_FACTOR};
    let (lo, hi) = match what {
        "load" => (FACTOR_FLOOR, MAX_LOAD_FACTOR),
        _ => (FACTOR_FLOOR, 1.0),
    };
    if (lo..=hi).contains(&factor) {
        Ok(())
    } else {
        Err(ProblemError::ChurnFactorOutOfRange {
            what,
            factor,
            lo,
            hi,
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::tests::tiny_problem;

    #[test]
    fn strict_accepts_valid_instance_untouched() {
        let p = tiny_problem();
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn strict_rejects_each_defect_with_a_precise_error() {
        let mut p = tiny_problem();
        p.streams[0].deadline_s = f64::NAN;
        assert!(matches!(
            p.validate(),
            Err(ProblemError::NonPositiveDeadline { stream: 0, .. })
        ));

        let mut p = tiny_problem();
        p.cluster.servers[0].proc.flops_per_sec = 0.0;
        assert!(matches!(
            p.validate(),
            Err(ProblemError::ZeroCapacityServer { server: 0, .. })
        ));

        // Every spectrum that is not finite and positive gets the typed
        // AP error, never the topology check's untyped one.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0, -0.0] {
            let mut p = tiny_problem();
            p.cluster.aps.push(scalpel_sim::ApSpec {
                id: 1,
                bandwidth_hz: bad,
                rtt_s: 2e-3,
            });
            assert!(
                matches!(
                    p.validate(),
                    Err(ProblemError::ZeroBandwidthAp { ap: 1, .. })
                ),
                "bandwidth {bad}: {:?}",
                p.validate()
            );
        }

        let mut p = tiny_problem();
        p.cluster.devices[1].distance_m = f64::INFINITY;
        assert!(matches!(
            p.validate(),
            Err(ProblemError::UnreachableDevice { device: 1, .. })
        ));

        let mut p = tiny_problem();
        p.cluster.servers.clear();
        assert_eq!(p.validate(), Err(ProblemError::NoServers));
    }

    #[test]
    fn absurd_arrival_rates_are_rejected() {
        // Finite, positive, and completely unsimulatable.
        let mut p = tiny_problem();
        p.streams[0].arrivals = scalpel_sim::ArrivalProcess::Poisson { rate_hz: 1e308 };
        assert!(matches!(
            p.validate(),
            Err(ProblemError::ArrivalRateTooHigh { stream: 0, .. })
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
