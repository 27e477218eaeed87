//! Input-difficulty model: maps exit positions + confidence thresholds to
//! per-exit exit probabilities and end-to-end expected accuracy.
//!
//! Without the authors' trained models and datasets we substitute an
//! analytic calibration (DESIGN.md §3): each input carries a latent
//! difficulty `u ∈ [0,1]`; an exit at backbone-depth fraction `x` with
//! threshold `t` confidently classifies all inputs with
//! `u ≤ s(x,t) = (1 − t^ρ) · x^γ`. The exponents are fit so that the
//! resulting early-exit rates (30–60 % at mid-depth with thresholds around
//! 0.8) and accuracy drops (≲1 % for conservative thresholds) match the
//! ranges published for BranchyNet-style multi-exit networks.
//!
//! Because `s` is evaluated per exit and an input takes the *first* exit
//! whose `s` covers its difficulty, the per-exit probabilities follow from
//! the running maximum of `s` — consistent for any threshold pattern.

use serde::{Deserialize, Serialize};

/// Calibrated difficulty / confidence model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DifficultyModel {
    /// Depth exponent γ (< 1: early layers already resolve easy inputs).
    pub gamma: f64,
    /// Threshold exponent ρ (> 1: high thresholds sharply reduce exits).
    pub rho: f64,
    /// Top-1 accuracy of the full backbone.
    pub acc_full: f64,
    /// Accuracy lost by a hypothetical exit at depth 0.
    pub acc_drop: f64,
    /// Depth exponent η of exit accuracy recovery.
    pub eta: f64,
    /// How much thresholding boosts *conditional* accuracy on exited inputs
    /// (confident inputs are easier, so they are classified better).
    pub conf_boost: f64,
}

impl DifficultyModel {
    /// Calibration for an ImageNet-class backbone with the given full-model
    /// top-1 accuracy.
    fn imagenet(acc_full: f64) -> Self {
        Self {
            gamma: 0.5,
            rho: 4.0,
            acc_full,
            acc_drop: 0.25,
            eta: 1.5,
            conf_boost: 0.6,
        }
    }

    /// Fraction of inputs an exit at depth `x` with threshold `t` would
    /// confidently classify (unconditionally).
    fn coverage(&self, x: f64, t: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&x));
        debug_assert!((0.0..=1.0).contains(&t));
        self.coverage_cached(self.depth_cache(x), self.threshold_pow(t))
    }

    /// Accuracy of an exit classifier at depth `x` over *all* inputs.
    fn exit_accuracy(&self, x: f64) -> f64 {
        (self.acc_full - self.acc_drop * (1.0 - x).powf(self.eta)).clamp(0.0, 1.0)
    }

    /// Conditional accuracy on the inputs that actually exit at depth `x`
    /// with threshold `t` (confident ⇒ easier ⇒ more accurate). Capped at
    /// the full model's accuracy: exited inputs are easy, but the full
    /// model would have classified those same easy inputs at least as
    /// well, so a multi-exit network's expected accuracy never exceeds the
    /// backbone's (the selection effect the boost would otherwise ignore).
    pub fn conditional_accuracy(&self, x: f64, t: f64) -> f64 {
        self.conditional_accuracy_cached(self.depth_cache(x), t)
    }

    /// Precompute the two depth transcendentals (`x^γ` and the exit
    /// accuracy's `(1−x)^η` term) for one exit depth. Threshold sweeps —
    /// the exit-setting DP grid, coordinate-ascent refinement — evaluate
    /// coverage and [`Self::conditional_accuracy`] many times at
    /// the *same* depth, and this cache is what they hoist out of the
    /// loop (the same idiom as the simulator's per-link SNR cache).
    pub fn depth_cache(&self, x: f64) -> DepthCache {
        DepthCache {
            depth_pow: x.powf(self.gamma),
            exit_acc: self.exit_accuracy(x),
        }
    }

    /// The threshold transcendental `t^ρ`, hoistable across every depth
    /// evaluated at the same threshold.
    pub fn threshold_pow(&self, t: f64) -> f64 {
        t.powf(self.rho)
    }

    /// The coverage of an exit (the fraction of inputs it confidently
    /// classifies) from cached powers — bit-identical to the uncached
    /// form (same expression tree, exactly-rounded ops).
    pub fn coverage_cached(&self, depth: DepthCache, thr_pow: f64) -> f64 {
        ((1.0 - thr_pow) * depth.depth_pow).clamp(0.0, 1.0)
    }

    /// [`Self::conditional_accuracy`] from a cached depth — bit-identical
    /// to the uncached form.
    pub fn conditional_accuracy_cached(&self, depth: DepthCache, t: f64) -> f64 {
        let base = depth.exit_acc;
        // Strictly below the backbone: a small head never quite matches the
        // full model, even on the easy inputs it confidently accepts.
        let cap = (self.acc_full - 0.002).max(0.0);
        (base + (1.0 - base) * self.conf_boost * t * t).clamp(0.0, cap)
    }

    /// Resolve the behavior of an exit chain given `(depth_fraction,
    /// threshold)` pairs in ascending depth order.
    pub fn behavior(&self, profile: &[(f64, f64)]) -> ExitBehavior {
        let mut exit_probs = Vec::with_capacity(profile.len());
        let mut cum = Vec::with_capacity(profile.len());
        let mut running = 0.0f64;
        for &(x, t) in profile {
            let s = self.coverage(x, t);
            let new_running = running.max(s);
            exit_probs.push(new_running - running);
            running = new_running;
            cum.push(running);
        }
        let remain_prob = 1.0 - running;
        let mut acc = remain_prob * self.acc_full;
        for (i, &(x, t)) in profile.iter().enumerate() {
            acc += exit_probs[i] * self.conditional_accuracy(x, t);
        }
        ExitBehavior {
            exit_probs,
            cum,
            remain_prob,
            expected_accuracy: acc,
        }
    }
}

impl Default for DifficultyModel {
    /// ResNet-18-class calibration (76 % is generous; the classic 69.8 % is
    /// also fine — only relative movements matter for the optimizer).
    fn default() -> Self {
        Self::imagenet(0.76)
    }
}

/// Per-depth transcendental cache for [`DifficultyModel`]: the values of
/// `x^γ` and the depth-only exit accuracy, valid for one `(model, x)`
/// pair. Build once per exit host, reuse across a whole threshold sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthCache {
    /// `x^γ` — the depth factor of coverage.
    depth_pow: f64,
    /// `exit_accuracy(x)` — the threshold-independent accuracy base.
    exit_acc: f64,
}

/// Resolved behavior of a specific exit chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExitBehavior {
    /// Probability an input leaves at exit `i` (first match wins).
    pub exit_probs: Vec<f64>,
    /// Cumulative exit probability through exit `i`.
    pub cum: Vec<f64>,
    /// Probability the input runs the full backbone.
    pub remain_prob: f64,
    /// End-to-end expected top-1 accuracy.
    pub expected_accuracy: f64,
}

impl ExitBehavior {
    /// Behavior of a model with no exits.
    pub fn no_exits(acc_full: f64) -> Self {
        Self {
            exit_probs: Vec::new(),
            cum: Vec::new(),
            remain_prob: 1.0,
            expected_accuracy: acc_full,
        }
    }

    /// Which exit a specific input takes, given its latent difficulty draw
    /// `u ∈ [0,1)`: the first exit whose cumulative coverage reaches `u`,
    /// or `None` for the full path. Deterministic in `u` — the simulator
    /// draws `u` once per task so retries are reproducible.
    pub fn sample_exit(&self, u: f64) -> Option<usize> {
        self.cum.iter().position(|&c| u < c)
    }

    /// Expected number of exit heads evaluated per input (all heads up to
    /// the taken exit, or all of them on the full path).
    #[cfg(test)]
    fn expected_heads_evaluated(&self) -> f64 {
        let mut e = 0.0;
        for (i, &p) in self.exit_probs.iter().enumerate() {
            e += p * (i + 1) as f64;
        }
        e + self.remain_prob * self.exit_probs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_monotonicity() {
        let m = DifficultyModel::default();
        // deeper -> more coverage
        assert!(m.coverage(0.6, 0.8) > m.coverage(0.2, 0.8));
        // higher threshold -> less coverage
        assert!(m.coverage(0.5, 0.9) < m.coverage(0.5, 0.6));
        // extremes
        assert_eq!(m.coverage(0.0, 0.5), 0.0);
        assert!(m.coverage(1.0, 0.0) >= 0.999);
    }

    #[test]
    fn cached_forms_are_bit_identical_to_direct_evaluation() {
        let m = DifficultyModel::default();
        for xi in 0..=20 {
            let x = xi as f64 / 20.0;
            let d = m.depth_cache(x);
            for ti in 0..=20 {
                let t = ti as f64 / 20.0;
                let tp = m.threshold_pow(t);
                assert_eq!(
                    m.coverage_cached(d, tp).to_bits(),
                    m.coverage(x, t).to_bits(),
                    "coverage x={x} t={t}"
                );
                assert_eq!(
                    m.conditional_accuracy_cached(d, t).to_bits(),
                    m.conditional_accuracy(x, t).to_bits(),
                    "cond acc x={x} t={t}"
                );
            }
        }
    }

    #[test]
    fn calibration_matches_branchynet_ranges() {
        let m = DifficultyModel::default();
        // mid-depth exit at threshold 0.8: 30-60% of inputs exit early.
        let c = m.coverage(0.35, 0.8);
        assert!((0.3..0.6).contains(&c), "coverage {c}");
    }

    #[test]
    fn exit_accuracy_recovers_with_depth() {
        let m = DifficultyModel::default();
        assert!(m.exit_accuracy(0.9) > m.exit_accuracy(0.3));
        assert!((m.exit_accuracy(1.0) - m.acc_full).abs() < 1e-12);
    }

    #[test]
    fn behavior_probabilities_are_a_distribution() {
        let m = DifficultyModel::default();
        let b = m.behavior(&[(0.2, 0.8), (0.5, 0.8), (0.8, 0.85)]);
        let total: f64 = b.exit_probs.iter().sum::<f64>() + b.remain_prob;
        assert!((total - 1.0).abs() < 1e-12);
        assert!(b.exit_probs.iter().all(|&p| p >= 0.0));
        assert!((0.0..=1.0).contains(&b.expected_accuracy));
    }

    #[test]
    fn conservative_thresholds_keep_accuracy_close_to_full() {
        let m = DifficultyModel::default();
        let b = m.behavior(&[(0.3, 0.92), (0.6, 0.92)]);
        assert!(
            m.acc_full - b.expected_accuracy < 0.01,
            "accuracy drop {}",
            m.acc_full - b.expected_accuracy
        );
        // But some inputs do exit early.
        assert!(b.remain_prob < 1.0);
    }

    #[test]
    fn aggressive_thresholds_cost_accuracy_but_exit_more() {
        let m = DifficultyModel::default();
        let cons = m.behavior(&[(0.3, 0.92)]);
        let aggr = m.behavior(&[(0.3, 0.5)]);
        assert!(aggr.exit_probs[0] > cons.exit_probs[0]);
        assert!(aggr.expected_accuracy < cons.expected_accuracy);
    }

    #[test]
    fn sample_exit_respects_cumulative_bands() {
        let m = DifficultyModel::default();
        let b = m.behavior(&[(0.3, 0.8), (0.7, 0.8)]);
        assert_eq!(b.sample_exit(0.0), Some(0));
        assert_eq!(b.sample_exit(b.cum[0] + 1e-9), Some(1));
        assert_eq!(b.sample_exit(0.9999), None);
    }

    #[test]
    fn no_exit_behavior() {
        let b = ExitBehavior::no_exits(0.76);
        assert_eq!(b.sample_exit(0.1), None);
        assert_eq!(b.remain_prob, 1.0);
        assert_eq!(b.expected_heads_evaluated(), 0.0);
    }

    #[test]
    fn expected_heads_counts_declined_heads() {
        let m = DifficultyModel::default();
        let b = m.behavior(&[(0.3, 0.8), (0.7, 0.8)]);
        let manual = b.exit_probs[0] * 1.0 + b.exit_probs[1] * 2.0 + b.remain_prob * 2.0;
        assert!((b.expected_heads_evaluated() - manual).abs() < 1e-12);
    }

    #[test]
    fn later_weaker_exit_adds_no_mass() {
        // A deep exit with a very high threshold can cover *less* than an
        // earlier permissive one; the running-max construction must then
        // assign it zero probability rather than a negative one.
        let m = DifficultyModel::default();
        let b = m.behavior(&[(0.5, 0.3), (0.6, 0.99)]);
        assert!(b.exit_probs[1].abs() < 1e-12);
    }
}
