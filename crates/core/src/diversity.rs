//! Diversity-bounded placement: concentration caps and blast-radius
//! pricing.
//!
//! Nothing in the base objective stops the optimizer from concentrating
//! most of the fleet on one fast server — a single correlated outage (one
//! rack losing power, one backhaul cut) then strands almost everything at
//! once. This module bounds that blast radius: a [`DiversityConfig`] caps
//! the fraction of the fleet any one server or failure domain may carry,
//! and the search engines enforce it two ways:
//!
//! * **Pricing**: [`EvalContext`] keeps saturating concentration counters
//!   (offloaded streams per server and per failure domain) and adds
//!   `PENALTY_WEIGHT × total_excess` to the pooled objective. The excess
//!   is an integer, so the penalty is order-independent and bitwise
//!   identical between the incremental and rebuild paths.
//! * **Feasibility**: descent/Gibbs/exhaustive only consider moves whose
//!   touched counters stay within the caps, and [`repair`] restores a
//!   violating assignment deterministically — so from a repaired start
//!   every visited state satisfies the caps by induction (the proptest
//!   contract in `tests/diversity_invariants.rs`).
//!
//! Caps are *fractions of the whole fleet* on every axis: `max_domain_frac
//! = 0.5` literally means "one failure domain going dark strands at most
//! half the streams". See DESIGN.md §2.16.
//!
//! [`EvalContext`]: crate::eval_context::EvalContext

use crate::evaluator::{Assignment, Evaluator};
use serde::{Deserialize, Serialize};

/// Sentinel in [`DiversityConfig::server_domain`] for a server that
/// belongs to no failure domain (its per-domain counter never moves).
pub const NO_DOMAIN: usize = usize::MAX;

/// Concentration caps for diversity-bounded placement. Both `*_frac`
/// knobs bound the number of *offloaded* streams an entity may carry as a
/// fraction of the total fleet size; a fraction ≥ 1 disables that axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiversityConfig {
    /// Max fraction of the fleet offloaded to any single server.
    pub max_server_frac: f64,
    /// Max fraction of the fleet offloaded into any single failure
    /// domain (a rack / shared-backhaul group of servers).
    pub max_domain_frac: f64,
    /// Failure domain of each server ([`NO_DOMAIN`] = none). Empty means
    /// no domain axis at all. Anything else must have one entry per
    /// server (checked by [`crate::validate::validate_diversity`]).
    #[serde(default)]
    pub server_domain: Vec<usize>,
}

impl Default for DiversityConfig {
    fn default() -> Self {
        Self {
            max_server_frac: 0.5,
            max_domain_frac: 0.5,
            server_domain: Vec::new(),
        }
    }
}

/// Integer caps derived from a [`DiversityConfig`] for a fleet of `n`
/// streams. `usize::MAX` disables an axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConcentrationCaps {
    /// Max offloaded streams on one server.
    pub server: usize,
    /// Max offloaded streams in one failure domain.
    pub domain: usize,
}

/// `floor(frac·n)` clamped to at least 1 (some entity must be able to
/// take a stream), or unlimited when `frac ≥ 1`. Floor keeps the promise
/// exact: `count ≤ floor(frac·n)` implies `count/n ≤ frac`.
fn frac_cap(frac: f64, n: usize) -> usize {
    if frac.is_nan() || frac >= 1.0 {
        return usize::MAX;
    }
    (((frac * n as f64).floor()) as usize).max(1)
}

impl DiversityConfig {
    /// Integer caps for a fleet of `n` streams.
    pub fn caps(&self, n: usize) -> ConcentrationCaps {
        ConcentrationCaps {
            server: frac_cap(self.max_server_frac, n),
            domain: frac_cap(self.max_domain_frac, n),
        }
    }

    /// Failure domain of server `srv` ([`NO_DOMAIN`] when unmapped).
    pub fn domain_of(&self, srv: usize) -> usize {
        self.server_domain.get(srv).copied().unwrap_or(NO_DOMAIN)
    }

    /// Number of per-domain counters needed (`max mapped id + 1`).
    pub fn num_domains(&self) -> usize {
        self.server_domain
            .iter()
            .filter(|&&d| d != NO_DOMAIN)
            .max()
            .map_or(0, |&d| d + 1)
    }

    /// Restrict to a shard's server subset: entry `i` of the result maps
    /// the shard's `i`-th server (global index `servers[i]`) to its
    /// global domain id, so per-shard solves price the same domains.
    /// Fractional caps carry over unchanged — each shard bounding its
    /// own fraction composes conservatively (`Σ⌊f·nᵢ⌋ ≤ ⌊f·Σnᵢ⌋`).
    pub fn for_servers(&self, servers: &[usize]) -> DiversityConfig {
        DiversityConfig {
            server_domain: if self.server_domain.is_empty() {
                Vec::new()
            } else {
                servers.iter().map(|&s| self.domain_of(s)).collect()
            },
            ..self.clone()
        }
    }
}

/// Map servers to failure domains from a sim-side domain table: each
/// server takes the index of the first [`scalpel_sim::FailureDomain`]
/// listing it, [`NO_DOMAIN`] otherwise.
pub fn server_domain_from(
    domains: &[scalpel_sim::FailureDomain],
    num_servers: usize,
) -> Vec<usize> {
    (0..num_servers)
        .map(|s| {
            domains
                .iter()
                .position(|d| d.servers.contains(&s))
                .unwrap_or(NO_DOMAIN)
        })
        .collect()
}

/// Offloaded-stream concentration counters of one assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConcentrationCounts {
    /// Offloaded streams per server.
    pub per_server: Vec<usize>,
    /// Offloaded streams per failure domain.
    pub per_domain: Vec<usize>,
}

/// Count the concentration of `asg` under `div` (device-only streams
/// never count — their placement entry is dormant).
fn count_assignment(
    ev: &Evaluator,
    asg: &Assignment,
    div: &DiversityConfig,
) -> ConcentrationCounts {
    let mut c = ConcentrationCounts {
        per_server: vec![0; ev.num_servers()],
        per_domain: vec![0; div.num_domains()],
    };
    for k in 0..ev.num_streams() {
        if ev.menu(k)[asg.plan_idx[k]].is_device_only() {
            continue;
        }
        let srv = asg.placement[k];
        c.per_server[srv] += 1;
        let d = div.domain_of(srv);
        if d != NO_DOMAIN {
            c.per_domain[d] += 1;
        }
    }
    c
}

/// Total saturating excess of `counts` over `caps` — the integer the
/// penalty prices. Zero iff every counter respects its cap.
fn total_excess(counts: &ConcentrationCounts, caps: &ConcentrationCaps) -> usize {
    let sum = |xs: &[usize], cap: usize| xs.iter().map(|&x| x.saturating_sub(cap)).sum::<usize>();
    sum(&counts.per_server, caps.server) + sum(&counts.per_domain, caps.domain)
}

/// Saturating excess of one assignment (the Full-engine / oracle path).
pub fn assignment_excess(ev: &Evaluator, asg: &Assignment, div: &DiversityConfig) -> usize {
    let caps = div.caps(ev.num_streams());
    total_excess(&count_assignment(ev, asg, div), &caps)
}

/// Whether flipping stream `k` to plan `idx` keeps `asg` within the caps
/// — the O(n) Full-engine twin of `EvalContext::plan_within_caps`. Only a
/// device-only → offloading flip can push a counter over; every other
/// flip leaves the counters unchanged or lower.
pub fn plan_flip_within_caps(
    ev: &Evaluator,
    asg: &Assignment,
    div: &DiversityConfig,
    k: usize,
    idx: usize,
) -> bool {
    let old_off = !ev.menu(k)[asg.plan_idx[k]].is_device_only();
    let new_off = !ev.menu(k)[idx].is_device_only();
    if old_off || !new_off {
        return true;
    }
    let caps = div.caps(ev.num_streams());
    let c = count_assignment(ev, asg, div);
    let srv = asg.placement[k];
    if c.per_server[srv] >= caps.server {
        return false;
    }
    let d = div.domain_of(srv);
    d == NO_DOMAIN || c.per_domain[d] < caps.domain
}

/// Objective penalty per stream of cap excess (pricing for states a
/// repair has not reached yet; the hard guarantee comes from the engines'
/// move filtering, not from this weight).
const PENALTY_WEIGHT: f64 = 0.05;

/// The objective penalty for a given excess: one multiply of an exact
/// integer, so identical excesses price to identical bits regardless of
/// the path that computed them.
pub fn penalty(excess: usize) -> f64 {
    PENALTY_WEIGHT * excess as f64
}

/// Deterministically restore `asg` to the caps by greedy re-placement:
/// streams are revisited in ascending index order; a placement that
/// still fits (server and domain counters) is kept, otherwise the stream
/// moves to the least-loaded feasible server (ties to the lowest index).
/// When no server fits — the caps are infeasible for this fleet — the
/// original placement stays and the penalty prices the excess.
///
/// Returns the number of changed placements.
pub fn repair(ev: &Evaluator, asg: &mut Assignment, div: &DiversityConfig) -> usize {
    let n = ev.num_streams();
    let caps = div.caps(n);
    let mut changed = 0usize;
    let mut per_server = vec![0usize; ev.num_servers()];
    let mut per_domain = vec![0usize; div.num_domains()];
    let fits = |srv: usize, per_server: &[usize], per_domain: &[usize]| {
        if per_server[srv] >= caps.server {
            return false;
        }
        let d = div.domain_of(srv);
        d == NO_DOMAIN || per_domain[d] < caps.domain
    };
    for k in 0..n {
        if ev.menu(k)[asg.plan_idx[k]].is_device_only() {
            continue;
        }
        let mut srv = asg.placement[k];
        if !fits(srv, &per_server, &per_domain) {
            let mut best: Option<usize> = None;
            for t in 0..ev.num_servers() {
                if !fits(t, &per_server, &per_domain) {
                    continue;
                }
                best = Some(match best {
                    Some(b) if per_server[b] <= per_server[t] => b,
                    _ => t,
                });
            }
            if let Some(t) = best {
                srv = t;
                asg.placement[k] = t;
                changed += 1;
            }
        }
        per_server[srv] += 1;
        let d = div.domain_of(srv);
        if d != NO_DOMAIN {
            per_domain[d] += 1;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::optimizer::{initial_assignment, OptimizerConfig};

    fn setup() -> Evaluator {
        let cfg = ScenarioConfig {
            num_aps: 2,
            devices_per_ap: 4,
            arrival_rate_hz: 4.0,
            ..ScenarioConfig::default()
        };
        Evaluator::new(&cfg.build(), None)
    }

    #[test]
    fn caps_floor_preserves_the_fraction_promise() {
        let div = DiversityConfig {
            max_server_frac: 0.3,
            ..DiversityConfig::default()
        };
        let caps = div.caps(10);
        assert_eq!(caps.server, 3);
        assert!(caps.server as f64 / 10.0 <= 0.3);
        // frac ≥ 1 disables the axis; tiny fleets still admit one stream.
        assert_eq!(frac_cap(1.0, 10), usize::MAX);
        assert_eq!(frac_cap(0.1, 3), 1);
    }

    #[test]
    fn repair_reaches_zero_excess_on_feasible_caps() {
        let ev = setup();
        let cfg = OptimizerConfig::default();
        let mut asg = initial_assignment(&ev, cfg.placement);
        // Pile everything on server 0, then cap at a quarter.
        asg.placement.iter_mut().for_each(|s| *s = 0);
        let div = DiversityConfig {
            max_server_frac: 0.25,
            ..DiversityConfig::default()
        };
        assert!(assignment_excess(&ev, &asg, &div) > 0);
        let moved = repair(&ev, &mut asg, &div);
        assert!(moved > 0);
        assert_eq!(assignment_excess(&ev, &asg, &div), 0);
    }

    #[test]
    fn repair_is_deterministic_and_idempotent() {
        let ev = setup();
        let cfg = OptimizerConfig::default();
        let div = DiversityConfig {
            max_server_frac: 0.25,
            server_domain: vec![0, 0, 1, 1],
            max_domain_frac: 0.5,
        };
        let mut a = initial_assignment(&ev, cfg.placement);
        a.placement.iter_mut().for_each(|s| *s = 1);
        let mut b = a.clone();
        repair(&ev, &mut a, &div);
        repair(&ev, &mut b, &div);
        assert_eq!(a, b);
        let frozen = a.clone();
        assert_eq!(
            repair(&ev, &mut a, &div),
            0,
            "second repair must be a no-op"
        );
        assert_eq!(a, frozen);
    }

    #[test]
    fn domain_mapping_from_sim_table() {
        use scalpel_sim::{DomainKind, FailureDomain};
        let domains = vec![
            FailureDomain {
                name: "rack-a".into(),
                kind: DomainKind::ServerRack,
                aps: vec![],
                servers: vec![1, 2],
            },
            FailureDomain {
                name: "rack-b".into(),
                kind: DomainKind::ServerRack,
                aps: vec![],
                servers: vec![3],
            },
        ];
        assert_eq!(server_domain_from(&domains, 4), vec![NO_DOMAIN, 0, 0, 1]);
        let div = DiversityConfig {
            server_domain: server_domain_from(&domains, 4),
            ..DiversityConfig::default()
        };
        assert_eq!(div.num_domains(), 2);
        assert_eq!(div.for_servers(&[2, 3]).server_domain, vec![0, 1]);
    }
}
