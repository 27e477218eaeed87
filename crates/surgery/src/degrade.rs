//! Graceful-degradation ladders derived from surgery plans.
//!
//! When a stream's offload path is unhealthy (AP outage, dead server) or a
//! request's remaining deadline slack cannot cover transmission + edge
//! compute, the runtime does not have to strand the request: every
//! offloaded [`SurgeryPlan`] implies a ladder of *degraded completion
//! modes* that trade accuracy for independence from the network.
//!
//! Two kinds of rung exist:
//!
//! * **Forced exit** — the request leaves at a device-side early exit even
//!   though its confidence gate did not fire. The exit head outputs were
//!   already computed on the way through the prefix, so this costs zero
//!   extra device seconds; it costs accuracy (the exit's conditional
//!   accuracy minus [`FORCED_EXIT_ACC_COST`], because the gate firing is
//!   itself evidence the sample was easy).
//! * **Local finish** — the device runs the remaining suffix itself,
//!   completing the full model without the network at full-model accuracy.
//!   This costs the device-only execution time beyond the prefix it has
//!   already spent.
//!
//! A ladder is sorted best-accuracy-first, so pick-the-first-that-fits is
//! the optimal deadline-aware choice.

use crate::plan::SurgeryPlan;
use serde::{Deserialize, Serialize};

/// Accuracy haircut applied when an early exit is *forced* (its confidence
/// gate did not fire): samples that fail the gate are disproportionately
/// hard, so the exit's conditional accuracy overstates what a forced
/// emission achieves.
pub const FORCED_EXIT_ACC_COST: f64 = 0.01;

/// One degraded completion mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradeRung {
    /// Device-side exit to force (`None` = finish the full model locally).
    pub exit: Option<usize>,
    /// Extra device compute seconds beyond the prefix already executed.
    pub extra_device_s: f64,
    /// Accuracy credited to a request completing at this rung.
    pub accuracy: f64,
}

/// A stream's degradation options, best accuracy first.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DegradeLadder {
    /// Rungs sorted by descending accuracy (ties: cheapest first).
    pub rungs: Vec<DegradeRung>,
}

impl DegradeLadder {
    /// The empty ladder (no degraded completion possible — e.g. a
    /// device-only plan, which never needs one).
    pub fn none() -> Self {
        Self::default()
    }

    /// Build from unordered rungs; sorts best-accuracy-first.
    pub fn new(mut rungs: Vec<DegradeRung>) -> Self {
        rungs.sort_by(|a, b| {
            b.accuracy
                .total_cmp(&a.accuracy)
                .then(a.extra_device_s.total_cmp(&b.extra_device_s))
        });
        Self { rungs }
    }

    /// Whether the ladder offers no rung.
    pub fn is_empty(&self) -> bool {
        self.rungs.is_empty()
    }

    /// Index of the rung to degrade to: the most accurate rung whose
    /// extra device time fits into `avail_s` seconds, else — on an `idle`
    /// device — the cheapest rung (ties: most accurate), the last resort
    /// when no rung fits the deadline but completing late still beats
    /// stranding. `None` when neither exists.
    pub fn pick_rung(&self, avail_s: f64, idle: bool) -> Option<usize> {
        self.rungs
            .iter()
            .position(|r| r.extra_device_s <= avail_s)
            .or_else(|| {
                if !idle {
                    return None;
                }
                self.rungs
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

    /// Internal-consistency check: finite non-negative costs, accuracy in
    /// `[0, 1]`, sorted best-accuracy-first.
    pub fn validate(&self) -> Result<(), String> {
        for (i, r) in self.rungs.iter().enumerate() {
            if !r.extra_device_s.is_finite() || r.extra_device_s < 0.0 {
                return Err(format!("rung {i}: negative extra device time"));
            }
            if !(0.0..=1.0).contains(&r.accuracy) {
                return Err(format!("rung {i}: accuracy {} outside [0,1]", r.accuracy));
            }
        }
        for w in self.rungs.windows(2) {
            if w[1].accuracy > w[0].accuracy {
                return Err("rungs not sorted by descending accuracy".into());
            }
        }
        Ok(())
    }
}

/// Derive the ladder an offloaded `plan` implies. `acc_at_exit[i]` is the
/// conditional accuracy of the plan's device-side exit `i`; `local_finish`
/// is the device-only completion option, if the stream's menu offers one,
/// as `(extra_device_s, accuracy)`.
pub fn ladder_for_plan(
    plan: &SurgeryPlan,
    acc_at_exit: &[f64],
    local_finish: Option<(f64, f64)>,
) -> DegradeLadder {
    debug_assert_eq!(plan.exits.len(), acc_at_exit.len());
    let mut rungs: Vec<DegradeRung> = acc_at_exit
        .iter()
        .enumerate()
        .map(|(i, &acc)| DegradeRung {
            exit: Some(i),
            extra_device_s: 0.0,
            accuracy: (acc - FORCED_EXIT_ACC_COST).max(0.0),
        })
        .collect();
    if let Some((extra_s, accuracy)) = local_finish {
        rungs.push(DegradeRung {
            exit: None,
            extra_device_s: extra_s.max(0.0),
            accuracy,
        });
    }
    DegradeLadder::new(rungs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruning::PruneLevel;

    fn plan_with_exits(n: usize) -> SurgeryPlan {
        SurgeryPlan {
            cut: 8,
            exits: (0..n).map(|i| (i, 0.8)).collect(),
            prune: PruneLevel::None,
            quantize_tx: false,
        }
    }

    #[test]
    fn ladder_sorts_best_accuracy_first() {
        let l = ladder_for_plan(&plan_with_exits(2), &[0.70, 0.74], Some((0.02, 0.76)));
        assert_eq!(l.rungs.len(), 3);
        assert!(l.validate().is_ok());
        // Local finish (0.76) outranks forced exits (0.73, 0.69).
        assert_eq!(l.rungs[0].exit, None);
        assert_eq!(l.rungs[1].exit, Some(1));
        assert_eq!(l.rungs[2].exit, Some(0));
        assert!((l.rungs[1].accuracy - (0.74 - FORCED_EXIT_ACC_COST)).abs() < 1e-12);
    }

    #[test]
    fn best_within_is_deadline_aware() {
        let l = ladder_for_plan(&plan_with_exits(1), &[0.71], Some((0.05, 0.76)));
        let exit_of =
            |avail_s: f64, idle: bool| l.pick_rung(avail_s, idle).map(|i| l.rungs[i].exit);
        // Plenty of slack: take the accurate local finish.
        assert_eq!(exit_of(0.1, false), Some(None));
        // Tight slack: fall to the free forced exit.
        assert_eq!(exit_of(0.01, false), Some(Some(0)));
        // Negative slack: nothing fits; only an idle device falls back to
        // the cheapest rung.
        assert_eq!(exit_of(-0.01, false), None);
        assert_eq!(exit_of(-0.01, true), Some(Some(0)));
        // Among equally cheap rungs the fallback takes the most accurate.
        let l = ladder_for_plan(&plan_with_exits(2), &[0.62, 0.70], Some((0.05, 0.76)));
        assert_eq!(
            l.pick_rung(-1.0, true).map(|i| l.rungs[i].exit),
            Some(Some(1))
        );
    }

    #[test]
    fn exitless_plan_still_gets_local_finish() {
        let l = ladder_for_plan(&plan_with_exits(0), &[], Some((0.03, 0.72)));
        assert_eq!(l.rungs.len(), 1);
        assert_eq!(l.rungs[0].exit, None);
        assert!((l.rungs[0].extra_device_s - 0.03).abs() < 1e-12);
    }

    #[test]
    fn empty_ladder_has_no_rungs() {
        let l = ladder_for_plan(&plan_with_exits(0), &[], None);
        assert!(l.is_empty());
        assert!(l.pick_rung(1.0, false).is_none());
        assert!(l.pick_rung(-1.0, true).is_none());
        assert!(DegradeLadder::none().validate().is_ok());
    }

    #[test]
    fn negative_local_extra_clamps_to_zero() {
        // A quantized/pruned plan can price its prefix above the plain
        // device-only time; the local rung never reports negative cost.
        let l = ladder_for_plan(&plan_with_exits(0), &[], Some((-0.01, 0.7)));
        assert_eq!(l.rungs[0].extra_device_s, 0.0);
    }

    #[test]
    fn validate_rejects_malformed_rungs() {
        let bad = DegradeLadder {
            rungs: vec![DegradeRung {
                exit: None,
                extra_device_s: -1.0,
                accuracy: 0.7,
            }],
        };
        assert!(bad.validate().is_err());
        let unsorted = DegradeLadder {
            rungs: vec![
                DegradeRung {
                    exit: Some(0),
                    extra_device_s: 0.0,
                    accuracy: 0.6,
                },
                DegradeRung {
                    exit: None,
                    extra_device_s: 0.0,
                    accuracy: 0.8,
                },
            ],
        };
        assert!(unsorted.validate().is_err());
    }
}
