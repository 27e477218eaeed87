//! Diversity-bounded placement: concentration caps and blast-radius
//! pricing.
//!
//! Nothing in the base objective stops the optimizer from concentrating
//! most of the fleet on one fast rack — a single correlated outage (one
//! rack losing power, one backhaul cut) then strands almost everything at
//! once. This module bounds that blast radius: under a [`DiversityConfig`]
//! no failure domain may carry more than [`MAX_DOMAIN_FRAC`] of the fleet,
//! and the search engines enforce it two ways:
//!
//! * **Pricing**: [`EvalContext`] keeps saturating concentration counters
//!   (offloaded streams per failure domain) and adds
//!   `PENALTY_WEIGHT × total_excess` to the pooled objective. The excess
//!   is an integer, so the penalty is order-independent and bitwise
//!   identical between the incremental and rebuild paths.
//! * **Feasibility**: descent/Gibbs/exhaustive only consider moves whose
//!   touched counters stay within the cap, and [`repair`] restores a
//!   violating assignment deterministically — so from a repaired start
//!   every visited state satisfies the cap by induction (the proptest
//!   contract in `tests/diversity_invariants.rs`).
//!
//! The cap is a *fraction of the whole fleet*: one failure domain going
//! dark strands at most a third of the streams. See DESIGN.md §2.16.
//!
//! [`EvalContext`]: crate::eval_context::EvalContext

use crate::evaluator::{Assignment, Evaluator};
use serde::{Deserialize, Serialize};

/// Sentinel in [`DiversityConfig::server_domain`] for a server that
/// belongs to no failure domain (its per-domain counter never moves).
pub const NO_DOMAIN: usize = usize::MAX;

/// Max fraction of the fleet offloaded into any single failure domain.
pub const MAX_DOMAIN_FRAC: f64 = 1.0 / 3.0;

/// The failure-domain map diversity-bounded placement caps against.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DiversityConfig {
    /// Failure domain of each server ([`NO_DOMAIN`] = none). Empty means
    /// no domain axis at all. Anything else must have one entry per
    /// server (checked by [`crate::validate::validate_diversity`]).
    pub server_domain: Vec<usize>,
}

/// Max offloaded streams in one failure domain for a fleet of `n`
/// streams: `floor(MAX_DOMAIN_FRAC·n)` clamped to at least 1 (some domain
/// must be able to take a stream). Floor keeps the promise exact:
/// `count ≤ floor(frac·n)` implies `count/n ≤ frac`.
pub fn domain_cap(n: usize) -> usize {
    (((MAX_DOMAIN_FRAC * n as f64).floor()) as usize).max(1)
}

impl DiversityConfig {
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

/// Offloaded streams per failure domain of `asg` under `div`
/// (device-only streams never count — their placement entry is dormant).
fn count_assignment(ev: &Evaluator, asg: &Assignment, div: &DiversityConfig) -> Vec<usize> {
    let mut per_domain = vec![0; div.num_domains()];
    for k in 0..ev.num_streams() {
        if ev.menu(k)[asg.plan_idx[k]].is_device_only() {
            continue;
        }
        let d = div.domain_of(asg.placement[k]);
        if d != NO_DOMAIN {
            per_domain[d] += 1;
        }
    }
    per_domain
}

/// Total saturating excess of the per-domain counts over the cap — the
/// integer the penalty prices. Zero iff every counter respects the cap.
fn total_excess(per_domain: &[usize], cap: usize) -> usize {
    per_domain.iter().map(|&x| x.saturating_sub(cap)).sum()
}

/// Saturating excess of one assignment (the Full-engine / oracle path).
pub fn assignment_excess(ev: &Evaluator, asg: &Assignment, div: &DiversityConfig) -> usize {
    total_excess(
        &count_assignment(ev, asg, div),
        domain_cap(ev.num_streams()),
    )
}

/// Whether flipping stream `k` to plan `idx` keeps `asg` within the cap
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
    let d = div.domain_of(asg.placement[k]);
    d == NO_DOMAIN || count_assignment(ev, asg, div)[d] < domain_cap(ev.num_streams())
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

/// Deterministically restore `asg` to the cap by greedy re-placement:
/// streams are revisited in ascending index order; a placement whose
/// domain still fits is kept, otherwise the stream moves to the
/// least-loaded server whose domain fits (ties to the lowest index).
/// When no server fits — the cap is infeasible for this fleet — the
/// original placement stays and the penalty prices the excess.
///
/// Returns the number of changed placements.
pub fn repair(ev: &Evaluator, asg: &mut Assignment, div: &DiversityConfig) -> usize {
    let n = ev.num_streams();
    let cap = domain_cap(n);
    let mut changed = 0usize;
    let mut per_server = vec![0usize; ev.num_servers()];
    let mut per_domain = vec![0usize; div.num_domains()];
    let fits = |srv: usize, per_domain: &[usize]| {
        let d = div.domain_of(srv);
        d == NO_DOMAIN || per_domain[d] < cap
    };
    for k in 0..n {
        if ev.menu(k)[asg.plan_idx[k]].is_device_only() {
            continue;
        }
        let mut srv = asg.placement[k];
        if !fits(srv, &per_domain) {
            let mut best: Option<usize> = None;
            for t in 0..ev.num_servers() {
                if !fits(t, &per_domain) {
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
        let cap = domain_cap(10);
        assert_eq!(cap, 3);
        assert!(cap as f64 / 10.0 <= MAX_DOMAIN_FRAC);
        // Tiny fleets still admit one stream.
        assert_eq!(domain_cap(2), 1);
    }

    #[test]
    fn repair_reaches_zero_excess_on_feasible_caps() {
        let ev = setup();
        let cfg = OptimizerConfig::default();
        let mut asg = initial_assignment(&ev, cfg.placement);
        // Pile everything on server 0, one domain per server.
        asg.placement.iter_mut().for_each(|s| *s = 0);
        let div = DiversityConfig {
            server_domain: (0..ev.num_servers()).collect(),
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
            server_domain: vec![0, 0, 1, 1],
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
        };
        assert_eq!(div.num_domains(), 2);
    }
}
