//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a schedule of disruptions — device churn, AP radio
//! outages, link-bandwidth collapses, server compute throttling — that the
//! simulator executes as first-class events alongside arrivals and
//! completions. Everything is a pure function of its seeds: a plan can be
//! written out explicitly or generated from a [`FaultProfile`], and the
//! same `(scenario seed, sim seed, fault plan)` triple always reproduces
//! the same run bit-for-bit.
//!
//! Semantics (see DESIGN.md §"Fault model" for the rationale):
//!
//! - **Device down** — the device powers off. Requests queued or computing
//!   on it are *stranded* (counted, never silently dropped), its arrival
//!   process stops, and data waiting on its uplink is lost. Requests its
//!   streams already handed to an edge server still complete there.
//!   **Device up** resumes the arrival processes.
//! - **AP down** — the radio goes dark. In-flight transmissions are
//!   re-queued (the data survives on the device) and uplinks stall until
//!   **AP up**, when transmission restarts with a fresh fading draw.
//! - **Link degrade** — the effective uplink rate of every device on the
//!   AP collapses to `factor` of nominal (interference, rain fade);
//!   transmissions already in the air are unaffected. **Link restore**
//!   returns to nominal.
//! - **Server throttle** — the server's processor-sharing capacity drops
//!   to `factor` of nominal (thermal throttling, co-tenant pressure);
//!   in-progress work continues at the degraded rate. **Server restore**
//!   returns to full capacity.
//! - **Server down** — the server loses power. Requests in its
//!   processor-sharing station are stranded, and data delivered to it
//!   while dark is stranded at the door (feeding the server's circuit
//!   breaker, which is how hedged re-offload learns to route around the
//!   outage). **Server up** restores an empty, full-capacity station.
//! - **Domain down** — a whole [`FailureDomain`] (an AP group sharing a
//!   backhaul, a rack of servers sharing power) fails atomically: every
//!   member AP takes the AP-down effect and every member server the
//!   server-down effect, in member order, at one timestamp. Strands and
//!   SLO misses during the outage are attributed to the
//!   [`FaultClass::CorrelatedOutage`] class. **Domain up** revives every
//!   member.

use crate::cluster::Cluster;
use crate::error::SimError;
use crate::rng::SimRng;
use serde::{Deserialize, Serialize};

/// Broad class of an injectable fault — the aggregation key for the
/// robustness metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultClass {
    /// Devices leaving and rejoining.
    DeviceChurn,
    /// Access-point radio outages.
    ApOutage,
    /// Sustained uplink-bandwidth degradation.
    LinkDegradation,
    /// Edge-server capacity throttling.
    ComputeThrottle,
    /// Edge-server hard outages (power loss, not slowdown).
    ServerOutage,
    /// Correlated whole-domain outages (shared backhaul, rack power).
    CorrelatedOutage,
}

impl FaultClass {
    /// Every class, in metrics order.
    pub const ALL: &'static [FaultClass] = &[
        FaultClass::DeviceChurn,
        FaultClass::ApOutage,
        FaultClass::LinkDegradation,
        FaultClass::ComputeThrottle,
        FaultClass::ServerOutage,
        FaultClass::CorrelatedOutage,
    ];

    /// Number of classes (per-class accumulator arrays are this long).
    pub const COUNT: usize = 6;

    /// The single-target, uncorrelated classes — what a [`FaultProfile`]
    /// with an empty class filter samples. Correlated outages are only
    /// generated through [`CorrelatedProfile`] (they need domain
    /// definitions), and keeping them out of the default draw keeps every
    /// pre-existing seeded plan bit-identical.
    pub const INDEPENDENT: &'static [FaultClass] = &[
        FaultClass::DeviceChurn,
        FaultClass::ApOutage,
        FaultClass::LinkDegradation,
        FaultClass::ComputeThrottle,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::DeviceChurn => "device-churn",
            FaultClass::ApOutage => "ap-outage",
            FaultClass::LinkDegradation => "link-degradation",
            FaultClass::ComputeThrottle => "compute-throttle",
            FaultClass::ServerOutage => "server-outage",
            FaultClass::CorrelatedOutage => "correlated-outage",
        }
    }

    /// Position in [`FaultClass::ALL`] (for per-class accumulators).
    pub fn index(self) -> usize {
        match self {
            FaultClass::DeviceChurn => 0,
            FaultClass::ApOutage => 1,
            FaultClass::LinkDegradation => 2,
            FaultClass::ComputeThrottle => 3,
            FaultClass::ServerOutage => 4,
            FaultClass::CorrelatedOutage => 5,
        }
    }
}

/// What physically couples the members of a [`FailureDomain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DomainKind {
    /// A cluster of APs that fail together (shared controller/power).
    ApGroup,
    /// A rack of edge servers sharing power and cooling.
    ServerRack,
    /// A backhaul segment carrying both APs and the servers behind them.
    SharedBackhaul,
}

impl DomainKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            DomainKind::ApGroup => "ap-group",
            DomainKind::ServerRack => "server-rack",
            DomainKind::SharedBackhaul => "shared-backhaul",
        }
    }
}

/// A named group of APs and servers that fail (and recover) as one unit.
///
/// Domains live on the [`FaultPlan`]; `DomainDown { domain }` events
/// reference them by index. Membership is by cluster index and validated
/// against the topology before a run starts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureDomain {
    /// Operator-facing label ("rack-b", "backhaul-west").
    pub name: String,
    /// What couples the members.
    pub kind: DomainKind,
    /// Member AP indices.
    #[serde(default)]
    pub aps: Vec<usize>,
    /// Member server indices.
    #[serde(default)]
    pub servers: Vec<usize>,
}

impl FailureDomain {
    /// Whether the domain has no members at all.
    pub fn is_empty(&self) -> bool {
        self.aps.is_empty() && self.servers.is_empty()
    }

    /// Check every member index against a topology.
    pub fn validate(&self, cluster: &Cluster) -> Result<(), SimError> {
        for &ap in &self.aps {
            if ap >= cluster.aps.len() {
                return Err(SimError::MissingAp { ap });
            }
        }
        for &server in &self.servers {
            if server >= cluster.servers.len() {
                return Err(SimError::MissingServer { server });
            }
        }
        Ok(())
    }
}

/// One injectable state change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Device powers off: its queued/computing/waiting-to-transmit
    /// requests are stranded and its arrivals stop.
    DeviceDown {
        /// Device index.
        device: usize,
    },
    /// Device returns; arrival processes resume.
    DeviceUp {
        /// Device index.
        device: usize,
    },
    /// AP radio outage: uplinks through it stall (in-flight transmissions
    /// are re-queued, not lost).
    ApDown {
        /// Access-point index.
        ap: usize,
    },
    /// AP radio recovers; stalled uplinks restart.
    ApUp {
        /// Access-point index.
        ap: usize,
    },
    /// Effective uplink rate on the AP collapses to `factor` of nominal.
    LinkDegrade {
        /// Access-point index.
        ap: usize,
        /// Remaining fraction of the nominal rate, in `(0, 1]`.
        factor: f64,
    },
    /// Uplink rate on the AP returns to nominal.
    LinkRestore {
        /// Access-point index.
        ap: usize,
    },
    /// Server processor-sharing capacity drops to `factor` of nominal.
    ServerThrottle {
        /// Server index.
        server: usize,
        /// Remaining fraction of nominal capacity, in `(0, 1]`.
        factor: f64,
    },
    /// Server capacity returns to nominal.
    ServerRestore {
        /// Server index.
        server: usize,
    },
    /// Server loses power: its processor-sharing station is stranded and
    /// deliveries while dark are stranded at the door.
    ServerDown {
        /// Server index.
        server: usize,
    },
    /// Server power returns; the station restarts empty at full capacity.
    ServerUp {
        /// Server index.
        server: usize,
    },
    /// A whole failure domain goes dark atomically: every member AP takes
    /// the AP-down effect, every member server the server-down effect.
    DomainDown {
        /// Index into [`FaultPlan::domains`].
        domain: usize,
    },
    /// Every member of the failure domain revives.
    DomainUp {
        /// Index into [`FaultPlan::domains`].
        domain: usize,
    },
}

impl FaultKind {
    /// The class this event belongs to.
    pub fn class(&self) -> FaultClass {
        match self {
            FaultKind::DeviceDown { .. } | FaultKind::DeviceUp { .. } => FaultClass::DeviceChurn,
            FaultKind::ApDown { .. } | FaultKind::ApUp { .. } => FaultClass::ApOutage,
            FaultKind::LinkDegrade { .. } | FaultKind::LinkRestore { .. } => {
                FaultClass::LinkDegradation
            }
            FaultKind::ServerThrottle { .. } | FaultKind::ServerRestore { .. } => {
                FaultClass::ComputeThrottle
            }
            FaultKind::ServerDown { .. } | FaultKind::ServerUp { .. } => FaultClass::ServerOutage,
            FaultKind::DomainDown { .. } | FaultKind::DomainUp { .. } => {
                FaultClass::CorrelatedOutage
            }
        }
    }

    /// Check target indices and factors against a topology. `n_domains`
    /// is the length of the owning plan's domain table (domain events are
    /// only meaningful relative to one).
    pub fn validate(&self, cluster: &Cluster, n_domains: usize) -> Result<(), SimError> {
        let check_factor = |f: f64| -> Result<(), SimError> {
            if !f.is_finite() || f <= 0.0 || f > 1.0 {
                return Err(SimError::FactorOutOfRange { factor: f });
            }
            Ok(())
        };
        match *self {
            FaultKind::DeviceDown { device } | FaultKind::DeviceUp { device } => {
                if device >= cluster.devices.len() {
                    return Err(SimError::MissingDevice { device });
                }
            }
            FaultKind::ApDown { ap } | FaultKind::ApUp { ap } | FaultKind::LinkRestore { ap } => {
                if ap >= cluster.aps.len() {
                    return Err(SimError::MissingAp { ap });
                }
            }
            FaultKind::LinkDegrade { ap, factor } => {
                if ap >= cluster.aps.len() {
                    return Err(SimError::MissingAp { ap });
                }
                check_factor(factor)?;
            }
            FaultKind::ServerRestore { server }
            | FaultKind::ServerDown { server }
            | FaultKind::ServerUp { server } => {
                if server >= cluster.servers.len() {
                    return Err(SimError::MissingServer { server });
                }
            }
            FaultKind::ServerThrottle { server, factor } => {
                if server >= cluster.servers.len() {
                    return Err(SimError::MissingServer { server });
                }
                check_factor(factor)?;
            }
            FaultKind::DomainDown { domain } | FaultKind::DomainUp { domain } => {
                if domain >= n_domains {
                    return Err(SimError::MissingDomain { domain });
                }
            }
        }
        Ok(())
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Absolute injection time, seconds.
    pub at_s: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of fault events.
///
/// Redundant events (downing an already-down device, restoring a nominal
/// link) are executed as no-ops and reported as injected-but-not-applied,
/// so any event sequence is a valid plan.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Events in injection order (sorted by time at construction).
    pub events: Vec<FaultEvent>,
    /// Failure domains that `DomainDown`/`DomainUp` events reference by
    /// index. Empty for plans without correlated outages.
    #[serde(default)]
    pub domains: Vec<FailureDomain>,
}

impl FaultPlan {
    /// The empty plan (fault-free run).
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan from bare events (no failure domains).
    pub fn from_events(events: Vec<FaultEvent>) -> Self {
        Self {
            events,
            domains: Vec::new(),
        }
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Check every event and domain against a topology, plus time sanity.
    pub fn validate(&self, cluster: &Cluster) -> Result<(), SimError> {
        for (d, dom) in self.domains.iter().enumerate() {
            if dom.is_empty() {
                return Err(SimError::EmptyDomain { domain: d });
            }
            dom.validate(cluster).map_err(|e| SimError::InvalidDomain {
                domain: d,
                source: Box::new(e),
            })?;
        }
        for (i, ev) in self.events.iter().enumerate() {
            if !ev.at_s.is_finite() || ev.at_s < 0.0 {
                return Err(SimError::InvalidEventTime {
                    index: i,
                    at_s: ev.at_s,
                });
            }
            ev.kind
                .validate(cluster, self.domains.len())
                .map_err(|e| SimError::InvalidEvent {
                    index: i,
                    source: Box::new(e),
                })?;
        }
        Ok(())
    }

    /// Sort events by time, keeping insertion order within a timestamp.
    pub fn sort(&mut self) {
        self.events.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    }
}

/// Which plan entity an outage window opens on — the overlap key of
/// [`validate_fault_plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum OutageTarget {
    Device(usize),
    ApRadio(usize),
    Link(usize),
    ServerSpeed(usize),
    ServerPower(usize),
    Domain(usize),
}

fn outage_transition(kind: &FaultKind) -> Option<(OutageTarget, bool)> {
    Some(match *kind {
        FaultKind::DeviceDown { device } => (OutageTarget::Device(device), true),
        FaultKind::DeviceUp { device } => (OutageTarget::Device(device), false),
        FaultKind::ApDown { ap } => (OutageTarget::ApRadio(ap), true),
        FaultKind::ApUp { ap } => (OutageTarget::ApRadio(ap), false),
        FaultKind::LinkDegrade { ap, .. } => (OutageTarget::Link(ap), true),
        FaultKind::LinkRestore { ap } => (OutageTarget::Link(ap), false),
        FaultKind::ServerThrottle { server, .. } => (OutageTarget::ServerSpeed(server), true),
        FaultKind::ServerRestore { server } => (OutageTarget::ServerSpeed(server), false),
        FaultKind::ServerDown { server } => (OutageTarget::ServerPower(server), true),
        FaultKind::ServerUp { server } => (OutageTarget::ServerPower(server), false),
        FaultKind::DomainDown { domain } => (OutageTarget::Domain(domain), true),
        FaultKind::DomainUp { domain } => (OutageTarget::Domain(domain), false),
    })
}

/// Strict ingest validation for fault plans, beyond the topology checks
/// of [`FaultPlan::validate`].
///
/// The simulator itself accepts *any* event sequence (redundant events are
/// injected-but-not-applied no-ops), but a plan coming from an operator or
/// a generator is usually meant to be a set of well-formed outage windows.
/// This checker rejects, with a typed [`SimError`]:
///
/// - anything [`FaultPlan::validate`] rejects (dangling device / AP /
///   server / domain member references, non-finite times, bad factors),
/// - events out of time order (the windows below are only meaningful on a
///   sorted plan — call [`FaultPlan::sort`] first),
/// - overlapping outage windows on the same target (a `DeviceDown` while
///   that device is already down, a `DomainDown` on an already-dark
///   domain, a re-degrade of an already-degraded link, …), which in a
///   generated plan always indicates two schedules were merged without
///   reconciliation,
/// - windows of negative or NaN duration (an `*Up` stamped before its
///   `*Down` — only reachable on unsorted input, but checked explicitly so
///   repair tooling can rely on it).
pub fn validate_fault_plan(plan: &FaultPlan, cluster: &Cluster) -> Result<(), SimError> {
    plan.validate(cluster)?;
    let mut open: std::collections::HashMap<OutageTarget, (usize, f64)> =
        std::collections::HashMap::new();
    let mut prev_at = f64::NEG_INFINITY;
    for (i, ev) in plan.events.iter().enumerate() {
        if ev.at_s < prev_at {
            return Err(SimError::UnsortedPlan { index: i });
        }
        prev_at = ev.at_s;
        let Some((target, opens)) = outage_transition(&ev.kind) else {
            continue;
        };
        if opens {
            if let Some(&(prior, _)) = open.get(&target) {
                return Err(SimError::OverlappingOutage { index: i, prior });
            }
            open.insert(target, (i, ev.at_s));
        } else if let Some((down_index, down_at)) = open.remove(&target) {
            let duration = ev.at_s - down_at;
            if !duration.is_finite() || duration < 0.0 {
                return Err(SimError::InvalidOutageDuration {
                    down_index,
                    up_index: i,
                    duration_s: duration,
                });
            }
        }
        // A restore with no open window is a deliberate no-op (the runtime
        // counts it injected-but-not-applied); strictness stops at shape.
    }
    Ok(())
}

/// Seeded random fault-plan generator: the "fault intensity" knob of the
/// resilience experiments. The generated plan is a pure function of the
/// profile and the topology dimensions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultProfile {
    /// Seed of the fault stream (independent of scenario and sim seeds).
    pub seed: u64,
    /// Mean fault injections per simulated second.
    pub rate_hz: f64,
    /// Mean duration of each outage/degradation, seconds.
    pub mean_outage_s: f64,
    /// No faults before this time (lets the warm-up window stay clean).
    pub start_s: f64,
    /// Enabled classes; empty means all of [`FaultClass::INDEPENDENT`]
    /// (correlated outages need domain definitions and are generated by
    /// [`CorrelatedProfile`] instead).
    pub classes: Vec<FaultClass>,
}

impl Default for FaultProfile {
    fn default() -> Self {
        Self {
            seed: 1,
            rate_hz: 0.2,
            mean_outage_s: 2.0,
            start_s: 0.0,
            classes: Vec::new(),
        }
    }
}

/// Dedicated RNG stream id for fault-plan generation (outside the
/// simulator's arrival/difficulty/fading stream range).
const FAULT_STREAM: u64 = 0xFA_17;

impl FaultProfile {
    /// Generate the plan for a topology of the given dimensions over
    /// `horizon_s` seconds of injections (recoveries may land later, while
    /// the system drains).
    pub fn plan(
        &self,
        n_devices: usize,
        n_aps: usize,
        n_servers: usize,
        horizon_s: f64,
    ) -> FaultPlan {
        let mut plan = FaultPlan::none();
        if self.rate_hz <= 0.0 || n_devices == 0 {
            return plan;
        }
        let enabled: Vec<FaultClass> = if self.classes.is_empty() {
            FaultClass::INDEPENDENT.to_vec()
        } else {
            self.classes.clone()
        };
        // Drop classes with no possible target in this topology (and the
        // correlated class outright: it needs a domain table, which this
        // dimension-only generator does not have).
        let enabled: Vec<FaultClass> = enabled
            .into_iter()
            .filter(|c| match c {
                FaultClass::DeviceChurn => n_devices > 0,
                FaultClass::ApOutage | FaultClass::LinkDegradation => n_aps > 0,
                FaultClass::ComputeThrottle | FaultClass::ServerOutage => n_servers > 0,
                FaultClass::CorrelatedOutage => false,
            })
            .collect();
        if enabled.is_empty() {
            return plan;
        }
        let mut rng = SimRng::new(self.seed, FAULT_STREAM);
        let mut t = self.start_s.max(0.0);
        loop {
            t += rng.exponential(self.rate_hz);
            if t >= horizon_s {
                break;
            }
            let duration = rng.exponential(1.0 / self.mean_outage_s.max(1e-6));
            let recover_at = t + duration;
            let (down, up) = match enabled[rng.index(enabled.len())] {
                FaultClass::DeviceChurn => {
                    let device = rng.index(n_devices);
                    (
                        FaultKind::DeviceDown { device },
                        FaultKind::DeviceUp { device },
                    )
                }
                FaultClass::ApOutage => {
                    let ap = rng.index(n_aps);
                    (FaultKind::ApDown { ap }, FaultKind::ApUp { ap })
                }
                FaultClass::LinkDegradation => {
                    let ap = rng.index(n_aps);
                    let factor = rng.uniform(0.1, 0.6);
                    (
                        FaultKind::LinkDegrade { ap, factor },
                        FaultKind::LinkRestore { ap },
                    )
                }
                FaultClass::ComputeThrottle => {
                    let server = rng.index(n_servers);
                    let factor = rng.uniform(0.2, 0.7);
                    (
                        FaultKind::ServerThrottle { server, factor },
                        FaultKind::ServerRestore { server },
                    )
                }
                FaultClass::ServerOutage => {
                    let server = rng.index(n_servers);
                    (
                        FaultKind::ServerDown { server },
                        FaultKind::ServerUp { server },
                    )
                }
                // Filtered out above; skipping keeps the generator total.
                FaultClass::CorrelatedOutage => continue,
            };
            plan.events.push(FaultEvent {
                at_s: t,
                kind: down,
            });
            plan.events.push(FaultEvent {
                at_s: recover_at,
                kind: up,
            });
        }
        plan.sort();
        plan
    }
}

/// Dedicated RNG stream id for correlated-outage schedule generation
/// (distinct from [`FAULT_STREAM`] so a correlated schedule layered over
/// an independent one never perturbs its draws).
const CORRELATED_STREAM: u64 = 0xD0_17;

/// Seeded correlated-outage schedule generator: whole failure domains
/// going dark and reviving, Poisson in time, uniform over domains. The
/// generated plan is a pure function of the profile and the domain table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorrelatedProfile {
    /// Seed of the correlated-fault stream.
    pub seed: u64,
    /// Mean domain outages per simulated second.
    pub rate_hz: f64,
    /// Mean duration of each domain outage, seconds.
    pub mean_outage_s: f64,
    /// No outages before this time.
    pub start_s: f64,
}

impl Default for CorrelatedProfile {
    fn default() -> Self {
        Self {
            seed: 1,
            rate_hz: 0.05,
            mean_outage_s: 3.0,
            start_s: 0.0,
        }
    }
}

impl CorrelatedProfile {
    /// Generate a plan of `DomainDown`/`DomainUp` pairs over `domains`
    /// across `horizon_s` seconds of injections. The domain table rides
    /// on the returned plan; recoveries may land past the horizon.
    pub fn plan(&self, domains: Vec<FailureDomain>, horizon_s: f64) -> FaultPlan {
        let mut plan = FaultPlan {
            events: Vec::new(),
            domains,
        };
        if self.rate_hz <= 0.0 || plan.domains.is_empty() {
            return plan;
        }
        let mut rng = SimRng::new(self.seed, CORRELATED_STREAM);
        let mut dark_until = vec![f64::NEG_INFINITY; plan.domains.len()];
        let mut t = self.start_s.max(0.0);
        loop {
            t += rng.exponential(self.rate_hz);
            if t >= horizon_s {
                break;
            }
            let duration = rng.exponential(1.0 / self.mean_outage_s.max(1e-6));
            let domain = rng.index(plan.domains.len());
            // A hit on a still-dark domain is swallowed (draws consumed,
            // nothing emitted) so generated plans always carry
            // non-overlapping windows and pass `validate_fault_plan`.
            if t < dark_until[domain] {
                continue;
            }
            dark_until[domain] = t + duration;
            plan.events.push(FaultEvent {
                at_s: t,
                kind: FaultKind::DomainDown { domain },
            });
            plan.events.push(FaultEvent {
                at_s: t + duration,
                kind: FaultKind::DomainUp { domain },
            });
        }
        plan.sort();
        plan
    }
}

/// Robustness counters accumulated while faults execute. Shared by the
/// columnar simulator and the AoS reference oracle so both runs fold their
/// fault accounting through identical arithmetic.
#[derive(Debug, Default)]
pub(crate) struct FaultAccum {
    pub(crate) injected: usize,
    pub(crate) applied: usize,
    pub(crate) stranded: usize,
    pub(crate) stalled: usize,
    pub(crate) completions_during: usize,
    pub(crate) misses_during: usize,
    pub(crate) recovery_sum_s: f64,
    pub(crate) recoveries: usize,
    pub(crate) per_injected: [usize; FaultClass::COUNT],
    pub(crate) per_applied: [usize; FaultClass::COUNT],
    pub(crate) per_stranded: [usize; FaultClass::COUNT],
    pub(crate) per_misses: [usize; FaultClass::COUNT],
}

impl FaultAccum {
    pub(crate) fn finish(self) -> crate::metrics::FaultMetrics {
        crate::metrics::FaultMetrics {
            injected: self.injected,
            applied: self.applied,
            stranded: self.stranded,
            stalled: self.stalled,
            completions_during_fault: self.completions_during,
            misses_during_fault: self.misses_during,
            recoveries: self.recoveries,
            mean_recovery_s: if self.recoveries > 0 {
                self.recovery_sum_s / self.recoveries as f64
            } else {
                0.0
            },
            per_class: FaultClass::ALL
                .iter()
                .map(|&class| {
                    let i = class.index();
                    crate::metrics::FaultClassStats {
                        class,
                        injected: self.per_injected[i],
                        applied: self.per_applied[i],
                        stranded: self.per_stranded[i],
                        misses_during: self.per_misses[i],
                    }
                })
                .collect(),
        }
    }
}

/// Columnar fault-injection state: per-entity health flags, generation
/// counters, and outage timestamps as parallel columns indexed by device,
/// AP, or server id. The event loop's guards (`device_up[d]`,
/// `tx_gen[d]`, …) read these dense lanes; the grid replaces the loose
/// collection of same-shaped `Vec`s the scratch used to carry.
#[derive(Debug, Default)]
pub(crate) struct FaultGrid {
    /// Whether each device is powered on.
    pub(crate) device_up: Vec<bool>,
    /// Generation counter invalidating in-flight `DeviceDone` events.
    pub(crate) dev_gen: Vec<u32>,
    /// Whether each AP's radio is up.
    pub(crate) ap_up: Vec<bool>,
    /// Effective-rate multiplier per AP (1.0 = nominal).
    pub(crate) ap_bw_factor: Vec<f64>,
    /// Generation counter invalidating in-flight `TxDone` events.
    pub(crate) tx_gen: Vec<u32>,
    /// Whether each server has power (false while `ServerDown` /
    /// `DomainDown` holds it dark).
    pub(crate) server_up: Vec<bool>,
    /// Currently-active fault count per class (attribution of misses).
    pub(crate) active: [usize; FaultClass::COUNT],
    /// Outage start times, for recovery-time accounting.
    pub(crate) device_down_at: Vec<Option<crate::time::SimTime>>,
    pub(crate) ap_down_at: Vec<Option<crate::time::SimTime>>,
    pub(crate) ap_degraded_at: Vec<Option<crate::time::SimTime>>,
    pub(crate) server_throttled_at: Vec<Option<crate::time::SimTime>>,
    pub(crate) server_down_at: Vec<Option<crate::time::SimTime>>,
    /// Class index charged for each AP's current radio outage — an
    /// independent `ApDown` and a correlated `DomainDown` set the same
    /// `ap_up` flag, so the reviving event must decrement whichever
    /// `active` slot the downing event incremented.
    pub(crate) ap_down_ci: Vec<u8>,
    /// Same attribution for server power outages.
    pub(crate) server_down_ci: Vec<u8>,
}

impl FaultGrid {
    /// Re-size every column to the cluster's shape and reset to the
    /// all-healthy state, reusing capacity.
    pub(crate) fn reset(&mut self, n_dev: usize, n_ap: usize, n_srv: usize) {
        self.device_up.clear();
        self.device_up.resize(n_dev, true);
        self.dev_gen.clear();
        self.dev_gen.resize(n_dev, 0);
        self.ap_up.clear();
        self.ap_up.resize(n_ap, true);
        self.ap_bw_factor.clear();
        self.ap_bw_factor.resize(n_ap, 1.0);
        self.tx_gen.clear();
        self.tx_gen.resize(n_dev, 0);
        self.server_up.clear();
        self.server_up.resize(n_srv, true);
        self.active = [0; FaultClass::COUNT];
        self.device_down_at.clear();
        self.device_down_at.resize(n_dev, None);
        self.ap_down_at.clear();
        self.ap_down_at.resize(n_ap, None);
        self.ap_degraded_at.clear();
        self.ap_degraded_at.resize(n_ap, None);
        self.server_throttled_at.clear();
        self.server_throttled_at.resize(n_srv, None);
        self.server_down_at.clear();
        self.server_down_at.resize(n_srv, None);
        self.ap_down_ci.clear();
        self.ap_down_ci.resize(n_ap, 0);
        self.server_down_ci.clear();
        self.server_down_ci.resize(n_srv, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ApSpec, DeviceSpec, ServerSpec};
    use scalpel_models::ProcessorClass;

    fn cluster() -> Cluster {
        Cluster {
            devices: vec![DeviceSpec {
                id: 0,
                proc: ProcessorClass::JetsonNano.spec(),
                ap: 0,
                distance_m: 30.0,
            }],
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

    #[test]
    fn profile_plans_are_deterministic_per_seed() {
        let p = FaultProfile::default();
        let a = p.plan(4, 2, 2, 30.0);
        let b = p.plan(4, 2, 2, 30.0);
        assert_eq!(a, b);
        let p2 = FaultProfile {
            seed: 2,
            ..FaultProfile::default()
        };
        assert_ne!(a, p2.plan(4, 2, 2, 30.0));
    }

    #[test]
    fn generated_plans_validate_and_pair_events() {
        let plan = FaultProfile {
            rate_hz: 1.0,
            ..FaultProfile::default()
        }
        .plan(1, 1, 1, 30.0);
        assert!(!plan.is_empty());
        assert!(plan.validate(&cluster()).is_ok());
        // Every injection carries a matching recovery, so counts are even.
        assert_eq!(plan.events.len() % 2, 0);
        // Sorted by time.
        for w in plan.events.windows(2) {
            assert!(w[0].at_s <= w[1].at_s);
        }
    }

    #[test]
    fn zero_rate_gives_empty_plan() {
        let p = FaultProfile {
            rate_hz: 0.0,
            ..FaultProfile::default()
        };
        assert!(p.plan(4, 2, 2, 30.0).is_empty());
    }

    #[test]
    fn start_offset_delays_first_injection() {
        let p = FaultProfile {
            rate_hz: 2.0,
            start_s: 5.0,
            ..FaultProfile::default()
        };
        let plan = p.plan(4, 2, 2, 30.0);
        assert!(plan.events.iter().all(|e| e.at_s >= 5.0));
    }

    #[test]
    fn out_of_range_targets_fail_validation() {
        let c = cluster();
        for kind in [
            FaultKind::DeviceDown { device: 9 },
            FaultKind::ApDown { ap: 9 },
            FaultKind::ServerThrottle {
                server: 9,
                factor: 0.5,
            },
            FaultKind::ServerDown { server: 9 },
            FaultKind::DomainDown { domain: 0 },
        ] {
            assert!(kind.validate(&c, 0).is_err(), "{kind:?}");
        }
        for bad in [0.0, -0.1, 1.5, f64::NAN] {
            assert!(FaultKind::LinkDegrade { ap: 0, factor: bad }
                .validate(&c, 0)
                .is_err());
        }
    }

    #[test]
    fn validation_errors_are_typed() {
        let c = cluster();
        assert_eq!(
            FaultKind::DeviceDown { device: 9 }.validate(&c, 0),
            Err(SimError::MissingDevice { device: 9 })
        );
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at_s: 1.0,
            kind: FaultKind::LinkDegrade { ap: 0, factor: 2.0 },
        }]);
        assert_eq!(
            plan.validate(&c),
            Err(SimError::InvalidEvent {
                index: 0,
                source: Box::new(SimError::FactorOutOfRange { factor: 2.0 }),
            })
        );
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at_s: f64::NAN,
            kind: FaultKind::ApDown { ap: 0 },
        }]);
        assert!(matches!(
            plan.validate(&c),
            Err(SimError::InvalidEventTime { index: 0, .. })
        ));
    }

    #[test]
    fn classes_cover_and_name_uniquely() {
        assert_eq!(FaultClass::ALL.len(), FaultClass::COUNT);
        for (i, c) in FaultClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let mut names: Vec<&str> = FaultClass::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FaultClass::COUNT);
    }

    fn two_domain_table() -> Vec<FailureDomain> {
        vec![
            FailureDomain {
                name: "radio-west".into(),
                kind: DomainKind::ApGroup,
                aps: vec![0],
                servers: vec![],
            },
            FailureDomain {
                name: "rack-a".into(),
                kind: DomainKind::ServerRack,
                aps: vec![],
                servers: vec![0],
            },
        ]
    }

    #[test]
    fn domain_events_validate_against_the_domain_table() {
        let c = cluster();
        let mut plan = FaultPlan {
            events: vec![
                FaultEvent {
                    at_s: 1.0,
                    kind: FaultKind::DomainDown { domain: 1 },
                },
                FaultEvent {
                    at_s: 2.0,
                    kind: FaultKind::DomainUp { domain: 1 },
                },
            ],
            domains: two_domain_table(),
        };
        assert!(plan.validate(&c).is_ok());
        // Dangling domain reference in an event.
        plan.events[0].kind = FaultKind::DomainDown { domain: 7 };
        assert!(matches!(
            plan.validate(&c),
            Err(SimError::InvalidEvent { index: 0, .. })
        ));
        // Dangling member reference inside a domain.
        plan.events[0].kind = FaultKind::DomainDown { domain: 1 };
        plan.domains[0].aps = vec![5];
        assert_eq!(
            plan.validate(&c),
            Err(SimError::InvalidDomain {
                domain: 0,
                source: Box::new(SimError::MissingAp { ap: 5 }),
            })
        );
        // Memberless domains are rejected.
        plan.domains[0] = FailureDomain {
            name: "empty".into(),
            kind: DomainKind::SharedBackhaul,
            aps: vec![],
            servers: vec![],
        };
        assert_eq!(plan.validate(&c), Err(SimError::EmptyDomain { domain: 0 }));
    }

    #[test]
    fn correlated_profiles_are_deterministic_and_strictly_valid() {
        let p = CorrelatedProfile {
            rate_hz: 0.5,
            ..CorrelatedProfile::default()
        };
        let a = p.plan(two_domain_table(), 60.0);
        let b = p.plan(two_domain_table(), 60.0);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a
            .events
            .iter()
            .all(|e| e.kind.class() == FaultClass::CorrelatedOutage));
        // Generated windows never overlap, so the strict checker passes.
        assert!(validate_fault_plan(&a, &cluster()).is_ok());
        let other = CorrelatedProfile { seed: 9, ..p };
        assert_ne!(a, other.plan(two_domain_table(), 60.0));
    }

    #[test]
    fn correlated_generation_leaves_independent_draws_untouched() {
        // Layering a correlated schedule must not perturb the independent
        // profile's RNG stream: same seed, same independent plan.
        let ind = FaultProfile::default().plan(4, 2, 2, 30.0);
        let _ = CorrelatedProfile::default().plan(two_domain_table(), 30.0);
        assert_eq!(ind, FaultProfile::default().plan(4, 2, 2, 30.0));
    }

    #[test]
    fn strict_checker_rejects_overlapping_windows() {
        let c = cluster();
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                at_s: 1.0,
                kind: FaultKind::DeviceDown { device: 0 },
            },
            FaultEvent {
                at_s: 2.0,
                kind: FaultKind::DeviceDown { device: 0 },
            },
            FaultEvent {
                at_s: 3.0,
                kind: FaultKind::DeviceUp { device: 0 },
            },
        ]);
        assert_eq!(
            validate_fault_plan(&plan, &c),
            Err(SimError::OverlappingOutage { index: 1, prior: 0 })
        );
        // Distinct targets (and distinct aspects of one target) coexist.
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                at_s: 1.0,
                kind: FaultKind::ServerThrottle {
                    server: 0,
                    factor: 0.5,
                },
            },
            FaultEvent {
                at_s: 1.5,
                kind: FaultKind::ServerDown { server: 0 },
            },
            FaultEvent {
                at_s: 2.0,
                kind: FaultKind::ServerRestore { server: 0 },
            },
            FaultEvent {
                at_s: 2.5,
                kind: FaultKind::ServerUp { server: 0 },
            },
        ]);
        assert!(validate_fault_plan(&plan, &c).is_ok());
    }

    #[test]
    fn strict_checker_rejects_unsorted_plans() {
        let c = cluster();
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                at_s: 5.0,
                kind: FaultKind::ApDown { ap: 0 },
            },
            FaultEvent {
                at_s: 1.0,
                kind: FaultKind::ApUp { ap: 0 },
            },
        ]);
        assert_eq!(
            validate_fault_plan(&plan, &c),
            Err(SimError::UnsortedPlan { index: 1 })
        );
    }

    #[test]
    fn server_outage_class_generates_down_up_pairs() {
        let p = FaultProfile {
            rate_hz: 2.0,
            classes: vec![FaultClass::ServerOutage],
            ..FaultProfile::default()
        };
        let plan = p.plan(1, 1, 1, 30.0);
        assert!(!plan.is_empty());
        assert!(plan
            .events
            .iter()
            .all(|e| e.kind.class() == FaultClass::ServerOutage));
        assert!(plan.validate(&cluster()).is_ok());
    }

    #[test]
    fn class_filter_restricts_generated_kinds() {
        let p = FaultProfile {
            rate_hz: 2.0,
            classes: vec![FaultClass::ComputeThrottle],
            ..FaultProfile::default()
        };
        let plan = p.plan(4, 2, 2, 30.0);
        assert!(!plan.is_empty());
        assert!(plan
            .events
            .iter()
            .all(|e| e.kind.class() == FaultClass::ComputeThrottle));
    }
}
