//! Churn-event traces: the typed input stream of a long-lived planning
//! service.
//!
//! Where [`crate::faults`] models *failures* the simulator injects
//! mid-run, this module models the slower **operational churn** a
//! control-plane daemon watches from outside: devices joining and
//! leaving, AP uplinks and server capacities drifting as spectrum and
//! co-tenants come and go, and per-stream offered load following its own
//! random walk. A [`ChurnTrace`] is an absolute-time, sorted schedule of
//! such events — a pure function of its [`ChurnProfile`] seed, so any
//! two replays of the same trace are bit-identical.
//!
//! Traces travel as plain text (one event per line, [`ChurnEvent::to_line`]
//! / [`ChurnTrace::from_text`]): every `f64` is encoded as its exact bit
//! pattern in hex, so a trace written to a file and read back — or
//! streamed over stdin to `scalpel-serve` — reproduces the original
//! events *bit-for-bit*. That exactness is what makes the service's
//! write-ahead log replayable and its crash/restore path deterministic.

use crate::rng::SimRng;
use serde::{Deserialize, Serialize};

/// Multiplicative drift factors are clamped into `[FACTOR_FLOOR, ·]` so a
/// random walk can never zero out a resource or a workload.
pub const FACTOR_FLOOR: f64 = 0.05;

/// Load-drift factors may exceed nominal (flash crowds) but are capped so
/// a walk cannot generate an unsimulatable arrival rate.
pub const MAX_LOAD_FACTOR: f64 = 16.0;

/// One churn signal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChurnKind {
    /// Device leaves the fleet (powered off, roamed away); its stream
    /// goes quiescent until the matching [`ChurnKind::DeviceUp`].
    DeviceDown {
        /// Device index.
        device: usize,
    },
    /// Device rejoins; its stream resumes at its current load factor.
    DeviceUp {
        /// Device index.
        device: usize,
    },
    /// AP uplink bandwidth drifts to `factor` × nominal, in `(0, 1]`.
    LinkDrift {
        /// Access-point index.
        ap: usize,
        /// New fraction of nominal bandwidth.
        factor: f64,
    },
    /// Server capacity drifts to `factor` × nominal, in `(0, 1]`.
    CapacityDrift {
        /// Server index.
        server: usize,
        /// New fraction of nominal capacity.
        factor: f64,
    },
    /// Stream offered load drifts to `factor` × nominal, in
    /// `(0, MAX_LOAD_FACTOR]`.
    LoadDrift {
        /// Stream index.
        stream: usize,
        /// New fraction of nominal arrival rate.
        factor: f64,
    },
}

/// A timestamped churn event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// Absolute event time, seconds.
    pub at_s: f64,
    /// What changed.
    pub kind: ChurnKind,
}

/// Why a trace line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnParseError {
    /// 1-based line number (0 when unknown).
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl std::fmt::Display for ChurnParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "churn trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ChurnParseError {}

/// Exact text encoding of an `f64`: its IEEE-754 bit pattern in hex.
/// Churn traces and service checkpoints both write floats this way.
pub fn f64_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Inverse of [`f64_hex`]: the `f64` whose bit pattern `s` spells.
pub fn parse_f64_hex(s: &str) -> Result<f64, String> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("bad f64 bits {s:?}: {e}"))
}

impl ChurnEvent {
    /// Canonical one-line encoding. Timestamps and factors are written as
    /// exact `f64` bit patterns; the trailing comment is a human-readable
    /// rendering the parser ignores.
    pub fn to_line(&self) -> String {
        let t = f64_hex(self.at_s);
        match self.kind {
            ChurnKind::DeviceDown { device } => {
                format!(
                    "{t} down {device}  # t={:.3}s device {device} leaves",
                    self.at_s
                )
            }
            ChurnKind::DeviceUp { device } => {
                format!(
                    "{t} up {device}  # t={:.3}s device {device} rejoins",
                    self.at_s
                )
            }
            ChurnKind::LinkDrift { ap, factor } => format!(
                "{t} link {ap} {}  # t={:.3}s ap {ap} -> {:.3}x",
                f64_hex(factor),
                self.at_s,
                factor
            ),
            ChurnKind::CapacityDrift { server, factor } => format!(
                "{t} cap {server} {}  # t={:.3}s server {server} -> {:.3}x",
                f64_hex(factor),
                self.at_s,
                factor
            ),
            ChurnKind::LoadDrift { stream, factor } => format!(
                "{t} load {stream} {}  # t={:.3}s stream {stream} -> {:.3}x",
                f64_hex(factor),
                self.at_s,
                factor
            ),
        }
    }

    /// Parse one line of the canonical encoding. `line_no` is only used
    /// for error messages. Blank lines and `#` comment lines yield
    /// `Ok(None)`; a non-finite timestamp is an error.
    fn parse_line(line: &str, line_no: usize) -> Result<Option<ChurnEvent>, ChurnParseError> {
        let body = line.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            return Ok(None);
        }
        let err = |reason: String| ChurnParseError {
            line: line_no,
            reason,
        };
        let mut parts = body.split_whitespace();
        let t = parts
            .next()
            .ok_or_else(|| err("missing timestamp".into()))?;
        let at_s = parse_f64_hex(t).map_err(&err)?;
        // A NaN would also slip past the ordering check in `from_text`.
        if !at_s.is_finite() {
            return Err(err(format!("non-finite timestamp {at_s}")));
        }
        let kind = parts.next().ok_or_else(|| err("missing kind".into()))?;
        let mut take_idx = |what: &str| -> Result<usize, ChurnParseError> {
            parts
                .next()
                .ok_or_else(|| err(format!("missing {what}")))?
                .parse::<usize>()
                .map_err(|e| err(format!("bad {what}: {e}")))
        };
        let kind = match kind {
            "down" => ChurnKind::DeviceDown {
                device: take_idx("device")?,
            },
            "up" => ChurnKind::DeviceUp {
                device: take_idx("device")?,
            },
            "link" => {
                let ap = take_idx("ap")?;
                let factor =
                    parse_f64_hex(parts.next().ok_or_else(|| err("missing factor".into()))?)
                        .map_err(&err)?;
                ChurnKind::LinkDrift { ap, factor }
            }
            "cap" => {
                let server = take_idx("server")?;
                let factor =
                    parse_f64_hex(parts.next().ok_or_else(|| err("missing factor".into()))?)
                        .map_err(&err)?;
                ChurnKind::CapacityDrift { server, factor }
            }
            "load" => {
                let stream = take_idx("stream")?;
                let factor =
                    parse_f64_hex(parts.next().ok_or_else(|| err("missing factor".into()))?)
                        .map_err(&err)?;
                ChurnKind::LoadDrift { stream, factor }
            }
            other => return Err(err(format!("unknown kind {other:?}"))),
        };
        if parts.next().is_some() {
            return Err(err("trailing tokens".into()));
        }
        Ok(Some(ChurnEvent { at_s, kind }))
    }
}

/// A replayable schedule of churn events, non-decreasing in time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChurnTrace {
    /// Events in non-decreasing `at_s` order.
    pub events: Vec<ChurnEvent>,
}

impl ChurnTrace {
    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Encode the whole trace as canonical lines.
    pub fn to_text(&self) -> String {
        let mut s = String::with_capacity(self.events.len() * 48 + 64);
        s.push_str("# scalpel churn trace v1 — fields: t(bits-hex) kind idx [factor(bits-hex)]\n");
        for e in &self.events {
            s.push_str(&e.to_line());
            s.push('\n');
        }
        s
    }

    /// Parse a trace from its text encoding, verifying time ordering.
    pub fn from_text(text: &str) -> Result<ChurnTrace, ChurnParseError> {
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if let Some(ev) = ChurnEvent::parse_line(line, i + 1)? {
                if let Some(prev) = events.last() {
                    let prev: &ChurnEvent = prev;
                    if ev.at_s < prev.at_s {
                        return Err(ChurnParseError {
                            line: i + 1,
                            reason: format!("events out of order: {} after {}", ev.at_s, prev.at_s),
                        });
                    }
                }
                events.push(ev);
            }
        }
        Ok(ChurnTrace { events })
    }
}

/// Fleet-wide device-leave rate of [`ChurnProfile::plan`], events/s.
const DEVICE_CHURN_HZ: f64 = 0.2;
/// Mean absence duration of a departed device, seconds.
const MEAN_DOWN_S: f64 = 8.0;
/// Interval between drift ticks, seconds.
const DRIFT_EVERY_S: f64 = 2.0;
/// Per-tick log-normal step for AP bandwidth walks.
const LINK_SIGMA: f64 = 0.25;
/// Per-tick log-normal step for server capacity walks.
const CAP_SIGMA: f64 = 0.15;
/// Per-tick log-normal step for per-stream load walks.
const LOAD_SIGMA: f64 = 0.2;

/// Seeded churn-trace generator: device up/down cycles (0.2 departures/s
/// fleet-wide, 8 s mean absence) plus log-space random walks, stepped
/// every 2 s, over AP bandwidth, server capacity, and per-stream load.
/// A pure function of its parameters — `plan` twice, get the same trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnProfile {
    /// Generator seed (independent of simulator seeds).
    pub seed: u64,
    /// First event no earlier than this, seconds.
    pub start_s: f64,
}

impl Default for ChurnProfile {
    fn default() -> Self {
        Self {
            seed: 13,
            start_s: 1.0,
        }
    }
}

impl ChurnProfile {
    /// Generate the trace for a fleet of the given dimensions over
    /// `[0, horizon_s)`.
    pub fn plan(
        &self,
        num_devices: usize,
        num_aps: usize,
        num_servers: usize,
        num_streams: usize,
        horizon_s: f64,
    ) -> ChurnTrace {
        let mut events = Vec::new();
        // Two independent RNG streams so adding drift never perturbs the
        // device-churn schedule and vice versa.
        let mut churn_rng = SimRng::new(self.seed, 101);
        let mut drift_rng = SimRng::new(self.seed, 202);
        if num_devices > 0 {
            let mut t = self.start_s;
            loop {
                t += churn_rng.exponential(DEVICE_CHURN_HZ);
                if t >= horizon_s {
                    break;
                }
                let device = churn_rng.index(num_devices);
                events.push(ChurnEvent {
                    at_s: t,
                    kind: ChurnKind::DeviceDown { device },
                });
                let back = t + churn_rng.exponential(1.0 / MEAN_DOWN_S);
                if back < horizon_s {
                    events.push(ChurnEvent {
                        at_s: back,
                        kind: ChurnKind::DeviceUp { device },
                    });
                }
            }
        }
        // Approximate standard normal from 12 uniforms (Irwin–Hall):
        // cheap, deterministic, and plenty for a drift walk.
        let normal = |rng: &mut SimRng| -> f64 { (0..12).map(|_| rng.open01()).sum::<f64>() - 6.0 };
        let mut link = vec![1.0f64; num_aps];
        let mut cap = vec![1.0f64; num_servers];
        let mut load = vec![1.0f64; num_streams];
        let mut t = self.start_s;
        while t < horizon_s {
            for (ap, f) in link.iter_mut().enumerate() {
                *f = (*f * (LINK_SIGMA * normal(&mut drift_rng)).exp()).clamp(FACTOR_FLOOR, 1.0);
                events.push(ChurnEvent {
                    at_s: t,
                    kind: ChurnKind::LinkDrift { ap, factor: *f },
                });
            }
            for (server, f) in cap.iter_mut().enumerate() {
                *f = (*f * (CAP_SIGMA * normal(&mut drift_rng)).exp()).clamp(FACTOR_FLOOR, 1.0);
                events.push(ChurnEvent {
                    at_s: t,
                    kind: ChurnKind::CapacityDrift { server, factor: *f },
                });
            }
            for (stream, f) in load.iter_mut().enumerate() {
                *f = (*f * (LOAD_SIGMA * normal(&mut drift_rng)).exp())
                    .clamp(FACTOR_FLOOR, MAX_LOAD_FACTOR);
                events.push(ChurnEvent {
                    at_s: t,
                    kind: ChurnKind::LoadDrift { stream, factor: *f },
                });
            }
            t += DRIFT_EVERY_S;
        }
        // Deterministic stable order: by time, then by an intrinsic kind
        // rank so equal-time events always serialize identically.
        events.sort_by(|a, b| {
            a.at_s
                .total_cmp(&b.at_s)
                .then_with(|| kind_rank(&a.kind).cmp(&kind_rank(&b.kind)))
        });
        ChurnTrace { events }
    }
}

/// Total order over kinds for equal-timestamp tie-breaks.
fn kind_rank(k: &ChurnKind) -> (u8, usize) {
    match *k {
        ChurnKind::DeviceDown { device } => (0, device),
        ChurnKind::DeviceUp { device } => (1, device),
        ChurnKind::LinkDrift { ap, .. } => (2, ap),
        ChurnKind::CapacityDrift { server, .. } => (3, server),
        ChurnKind::LoadDrift { stream, .. } => (4, stream),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> ChurnTrace {
        ChurnProfile::default().plan(8, 2, 3, 8, 20.0)
    }

    #[test]
    fn generator_is_deterministic_and_sorted() {
        let a = sample_trace();
        let b = sample_trace();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for w in a.events.windows(2) {
            assert!(w[0].at_s <= w[1].at_s);
        }
    }

    #[test]
    fn factors_stay_in_range() {
        let t = sample_trace();
        for e in &t.events {
            match e.kind {
                ChurnKind::LinkDrift { factor, .. } | ChurnKind::CapacityDrift { factor, .. } => {
                    assert!((FACTOR_FLOOR..=1.0).contains(&factor), "{factor}");
                }
                ChurnKind::LoadDrift { factor, .. } => {
                    assert!((FACTOR_FLOOR..=MAX_LOAD_FACTOR).contains(&factor));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn text_roundtrip_is_bit_exact() {
        let t = sample_trace();
        let text = t.to_text();
        let back = ChurnTrace::from_text(&text).expect("parses");
        assert_eq!(t.events.len(), back.events.len());
        for (a, b) in t.events.iter().zip(&back.events) {
            assert_eq!(a.at_s.to_bits(), b.at_s.to_bits());
            assert_eq!(a.kind, b.kind);
        }
    }

    #[test]
    fn parser_rejects_garbage_and_skips_comments() {
        assert!(ChurnEvent::parse_line("# comment", 1).unwrap().is_none());
        assert!(ChurnEvent::parse_line("   ", 2).unwrap().is_none());
        assert!(ChurnEvent::parse_line("zzzz down 0", 3).is_err());
        assert!(ChurnEvent::parse_line("3ff0000000000000 flip 0", 4).is_err());
        assert!(ChurnEvent::parse_line("3ff0000000000000 down", 5).is_err());
        assert!(ChurnEvent::parse_line("3ff0000000000000 down 1 2", 6).is_err());
        let out_of_order = "3ff0000000000000 down 0\n3fe0000000000000 up 0\n";
        assert!(ChurnTrace::from_text(out_of_order).is_err());
        // A non-finite timestamp (NaN, +inf, -inf) on a middle line is
        // refused, and the error names that line.
        let text = sample_trace().to_text();
        let lines: Vec<&str> = text.lines().collect();
        let mid = lines.len() / 2;
        for bits in ["7ff8000000000000", "7ff0000000000000", "fff0000000000000"] {
            let mut corrupt: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            let (_, rest) = lines[mid].split_once(' ').expect("event line");
            corrupt[mid] = format!("{bits} {rest}");
            let Err(err) = ChurnTrace::from_text(&corrupt.join("\n")) else {
                panic!("{bits} on line {} parsed", mid + 1);
            };
            assert_eq!(err.line, mid + 1, "{err}");
            assert!(err.reason.contains("non-finite"), "{err}");
        }
    }

    #[test]
    fn seeds_change_the_trace() {
        let a = sample_trace();
        let b = ChurnProfile {
            seed: 99,
            ..ChurnProfile::default()
        }
        .plan(8, 2, 3, 8, 20.0);
        assert_ne!(a, b);
    }
}
