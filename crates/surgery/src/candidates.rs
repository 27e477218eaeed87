//! Candidate-plan generation: the per-stream plan menu the joint optimizer
//! searches over.
//!
//! For every (downsampled) cut × pruning level, the exit-setting DP picks
//! the best exits under a *reference environment* (the stream's device
//! speed and its fair-share transmission/edge rates); the resulting plans
//! are then reduced to the Pareto frontier over the environment-independent
//! demand vector, because dominated plans cannot win under any allocation.

use crate::exit_setting::{self, ExitCandidate, ExitSettingProblem};
use crate::partition::candidate_cuts;
use crate::plan::SurgeryPlan;
use crate::pruning::PruneLevel;
use scalpel_models::{DifficultyModel, ExitBehavior, ExitHead, ModelGraph};
use serde::{Deserialize, Serialize};

/// The environment the exit-setting DP prices a plan in: the stream's own
/// device plus its *planned* (fair-share) transmission and edge rates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReferenceEnv {
    /// Seconds per FLOP on the stream's device.
    pub device_sec_per_flop: f64,
    /// Seconds per byte on the uplink at the planned bandwidth share.
    pub tx_sec_per_byte: f64,
    /// Seconds per FLOP on the edge at the planned compute share.
    pub edge_sec_per_flop: f64,
    /// AP round-trip time, seconds.
    pub rtt_s: f64,
}

/// Knobs of the candidate generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateConfig {
    /// Maximum cut boundaries to consider per model.
    pub max_cuts: usize,
    /// Maximum exits per plan.
    pub max_exits: usize,
    /// Maximum exit hosts offered to the DP per cut.
    pub max_hosts: usize,
    /// Accuracy floor every plan must respect.
    pub accuracy_floor: f64,
    /// Full-model accuracy (before pruning).
    pub acc_full: f64,
    /// Pruning levels to consider.
    pub prune_levels: Vec<PruneLevel>,
    /// Whether int8-quantized transmission variants are offered.
    pub allow_quantize: bool,
    /// Difficulty calibration.
    pub difficulty: DifficultyModel,
    /// Exit-threshold sweep.
    pub threshold_grid: Vec<f64>,
}

impl Default for CandidateConfig {
    fn default() -> Self {
        Self {
            max_cuts: 6,
            max_exits: 3,
            max_hosts: 8,
            accuracy_floor: 0.74,
            acc_full: 0.76,
            prune_levels: vec![PruneLevel::None, PruneLevel::Medium],
            allow_quantize: true,
            difficulty: DifficultyModel::default(),
            threshold_grid: ExitSettingProblem::default_grid(),
        }
    }
}

/// Environment-independent demand summary of a plan (what the joint
/// optimizer and the Pareto filter consume).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanProfile {
    /// Expected device FLOPs per request (exit-weighted prefix + heads,
    /// pruning applied).
    pub expected_device_flops: f64,
    /// Device FLOPs when no exit fires (full pruned prefix + all heads).
    pub device_flops_full: f64,
    /// Per-exit cumulative device FLOPs (ascending; pruned backbone +
    /// heads through each exit).
    pub device_flops_to_exit: Vec<f64>,
    /// Bytes crossing the cut for a non-exiting request.
    pub tx_bytes: f64,
    /// Edge FLOPs for a non-exiting request.
    pub edge_flops: f64,
    /// Probability a request reaches the edge.
    pub remain_prob: f64,
    /// Exit behavior (device-side exits only).
    pub behavior: ExitBehavior,
    /// Conditional accuracy of each exit.
    pub acc_at_exit: Vec<f64>,
    /// Accuracy of the full path (pruning applied).
    pub acc_full: f64,
    /// Expected accuracy over all paths.
    pub expected_accuracy: f64,
    /// Expected latency under the reference environment (for reporting;
    /// the optimizer re-prices under actual allocations).
    pub reference_latency_s: f64,
}

impl PlanProfile {
    /// The demand vector the Pareto filter minimizes.
    fn demand_vector(&self) -> Vec<f64> {
        vec![
            self.expected_device_flops,
            self.tx_bytes * self.remain_prob,
            self.edge_flops * self.remain_prob,
            -self.expected_accuracy,
        ]
    }
}

/// A surgery plan together with its demand profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidatePlan {
    /// The plan.
    pub plan: SurgeryPlan,
    /// Its profile.
    pub profile: PlanProfile,
}

/// Build the profile of an explicit plan under `cfg`.
fn profile_plan(model: &ModelGraph, plan: &SurgeryPlan, cfg: &CandidateConfig) -> PlanProfile {
    let classes = model.output_shape().c;
    let scale = plan.prune.flops_scale();
    let quant_cost = if plan.quantize_tx && plan.cut < model.len() {
        crate::plan::QUANTIZE_TX_ACC_COST
    } else {
        0.0
    };
    let acc_full = (cfg.acc_full - plan.prune.accuracy_cost() - quant_cost).max(0.0);
    let exit_profile: Vec<(f64, f64)> = plan
        .exits
        .iter()
        .map(|&(host, t)| (model.depth_fraction(host + 1), t))
        .collect();
    let behavior = if exit_profile.is_empty() {
        ExitBehavior::no_exits(acc_full)
    } else {
        let mut b = cfg.difficulty.behavior(&exit_profile);
        // behavior() uses cfg.difficulty.acc_full internally for the tail;
        // rebuild expected accuracy with the pruned full-path accuracy.
        b.expected_accuracy = b.remain_prob * acc_full
            + exit_profile
                .iter()
                .zip(&b.exit_probs)
                .map(|(&(x, t), &p)| p * cfg.difficulty.conditional_accuracy(x, t))
                .sum::<f64>();
        b
    };
    let acc_at_exit: Vec<f64> = exit_profile
        .iter()
        .map(|&(x, t)| cfg.difficulty.conditional_accuracy(x, t))
        .collect();
    let mut device_flops_to_exit = Vec::with_capacity(plan.exits.len());
    let mut heads_so_far = 0.0;
    for &(host, _) in &plan.exits {
        let head = ExitHead::standard(model.shape(host), classes);
        heads_so_far += head.flops as f64;
        device_flops_to_exit.push(model.prefix_flops(host + 1) as f64 * scale + heads_so_far);
    }
    let device_flops_full = model.prefix_flops(plan.cut) as f64 * scale + heads_so_far;
    let mut tx_bytes = model.crossing_bytes(plan.cut) as f64;
    if plan.quantize_tx {
        tx_bytes /= crate::plan::QUANTIZE_TX_SHRINK;
    }
    let edge_flops = model.suffix_flops(plan.cut) as f64;
    let mut expected_device_flops = behavior.remain_prob * device_flops_full;
    for (i, &p) in behavior.exit_probs.iter().enumerate() {
        expected_device_flops += p * device_flops_to_exit[i];
    }
    PlanProfile {
        expected_device_flops,
        device_flops_full,
        device_flops_to_exit,
        tx_bytes,
        edge_flops,
        remain_prob: behavior.remain_prob,
        acc_at_exit,
        acc_full,
        expected_accuracy: behavior.expected_accuracy,
        behavior,
        reference_latency_s: 0.0,
    }
}

/// Price a profile's expected latency under an environment (no queueing).
fn reference_latency(profile: &PlanProfile, env: &ReferenceEnv) -> f64 {
    let mut lat = 0.0;
    for (i, &p) in profile.behavior.exit_probs.iter().enumerate() {
        lat += p * profile.device_flops_to_exit[i] * env.device_sec_per_flop;
    }
    let rest = if profile.edge_flops > 0.0 || profile.tx_bytes > 0.0 {
        profile.tx_bytes * env.tx_sec_per_byte
            + env.rtt_s / 2.0
            + profile.edge_flops * env.edge_sec_per_flop
    } else {
        0.0
    };
    lat +=
        profile.behavior.remain_prob * (profile.device_flops_full * env.device_sec_per_flop + rest);
    lat
}

/// Generate the candidate menu for one (model, environment) pair.
pub fn generate(
    model: &ModelGraph,
    env: &ReferenceEnv,
    cfg: &CandidateConfig,
) -> Vec<CandidatePlan> {
    let cuts = candidate_cuts(model, cfg.max_cuts);
    let interior: Vec<usize> = cuts
        .iter()
        .map(|c| c.boundary)
        .filter(|&b| b != 0 && b != model.len())
        .collect();
    let classes = model.output_shape().c;
    let mut out: Vec<CandidatePlan> = Vec::new();
    for cut in &cuts {
        for &prune in &cfg.prune_levels {
            // Pruning a nonexistent prefix is meaningless.
            if cut.boundary == 0 && prune != PruneLevel::None {
                continue;
            }
            let scale = prune.flops_scale();
            let acc_full = (cfg.acc_full - prune.accuracy_cost()).max(0.0);
            // Exit hosts: interior single-tensor boundaries inside the prefix.
            let mut hosts: Vec<ExitCandidate> = interior
                .iter()
                .filter(|&&b| b < cut.boundary)
                .map(|&b| {
                    let host = b - 1;
                    let head = ExitHead::standard(model.shape(host), classes);
                    ExitCandidate {
                        node: host,
                        depth_fraction: model.depth_fraction(b),
                        time_to_host_s: model.prefix_flops(b) as f64
                            * scale
                            * env.device_sec_per_flop,
                        head_time_s: head.flops as f64 * env.device_sec_per_flop,
                    }
                })
                .collect();
            hosts.truncate(cfg.max_hosts);
            let rest_time_s = if cut.boundary == model.len() {
                0.0
            } else {
                model.crossing_bytes(cut.boundary) as f64 * env.tx_sec_per_byte
                    + env.rtt_s / 2.0
                    + model.suffix_flops(cut.boundary) as f64 * env.edge_sec_per_flop
            };
            let problem = ExitSettingProblem {
                hosts: hosts.clone(),
                full_prefix_time_s: model.prefix_flops(cut.boundary) as f64
                    * scale
                    * env.device_sec_per_flop,
                rest_time_s,
                max_exits: cfg.max_exits,
                accuracy_floor: cfg.accuracy_floor,
                acc_full,
                difficulty: cfg.difficulty.clone(),
                threshold_grid: cfg.threshold_grid.clone(),
            };
            let sol = exit_setting::solve(&problem);
            // Per-exit threshold refinement on top of the uniform-threshold
            // DP solution (never worse; see exit_setting::refine_thresholds).
            let (thresholds, _, _) = exit_setting::refine_thresholds(&problem, &sol);
            let base_plan = SurgeryPlan {
                cut: cut.boundary,
                exits: sol
                    .selected
                    .iter()
                    .zip(&thresholds)
                    .map(|(&i, &t)| (hosts[i].node, t))
                    .collect(),
                prune,
                quantize_tx: false,
            };
            if base_plan.validate(model).is_err() {
                continue;
            }
            // Offer, besides the DP-chosen exits: the exit-free variant
            // (what Neurosurgeon-style static partitioning uses — higher
            // accuracy, more compute, so it survives the Pareto filter)
            // and the int8-transmission variants. The filter keeps
            // whichever versions can win.
            let mut variants = vec![base_plan.clone()];
            if !base_plan.exits.is_empty() {
                let mut plain = base_plan.clone();
                plain.exits.clear();
                variants.push(plain);
            }
            if cfg.allow_quantize
                && cut.boundary < model.len()
                && model.crossing_bytes(cut.boundary) > 0
            {
                for i in 0..variants.len() {
                    let mut q = variants[i].clone();
                    q.quantize_tx = true;
                    variants.push(q);
                }
            }
            for plan in variants {
                let mut profile = profile_plan(model, &plan, cfg);
                // Enforce the accuracy floor on the final profile as well.
                if profile.expected_accuracy + 1e-9 < cfg.accuracy_floor {
                    continue;
                }
                profile.reference_latency_s = reference_latency(&profile, env);
                out.push(CandidatePlan { plan, profile });
            }
        }
    }
    // The menu can legitimately come out empty (e.g. an accuracy floor no
    // plan can clear); callers surface that as a typed validation error
    // rather than asserting here.
    crate::pareto::pareto_filter(out, |c| c.profile.demand_vector())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalpel_models::zoo;

    fn env() -> ReferenceEnv {
        ReferenceEnv {
            device_sec_per_flop: 1.0 / 25.0e9, // phone-class
            tx_sec_per_byte: 8.0 / 50e6,       // 50 Mbit/s
            edge_sec_per_flop: 1.0 / 1.0e12,   // shared T4-class slice
            rtt_s: 2e-3,
        }
    }

    #[test]
    fn menu_is_nonempty_and_valid_for_every_model() {
        let cfg = CandidateConfig::default();
        for g in zoo::standard_zoo() {
            let menu = generate(&g, &env(), &cfg);
            assert!(!menu.is_empty(), "{}", g.name());
            for c in &menu {
                assert!(c.plan.validate(&g).is_ok(), "{}", g.name());
                assert!(c.profile.expected_accuracy + 1e-9 >= cfg.accuracy_floor);
                assert!(c.profile.reference_latency_s > 0.0);
            }
        }
    }

    #[test]
    fn menu_is_pareto_minimal() {
        let cfg = CandidateConfig::default();
        let g = zoo::alexnet(1000);
        let menu = generate(&g, &env(), &cfg);
        for a in &menu {
            for b in &menu {
                if a.plan != b.plan {
                    assert!(!crate::pareto::dominates(
                        &a.profile.demand_vector(),
                        &b.profile.demand_vector()
                    ));
                }
            }
        }
    }

    #[test]
    fn profile_of_device_only_plan_has_no_edge_demand() {
        let cfg = CandidateConfig::default();
        let g = zoo::lenet5(10);
        let mut cfg10 = cfg.clone();
        cfg10.acc_full = 0.99;
        cfg10.accuracy_floor = 0.0;
        let plan = SurgeryPlan::device_only(&g);
        let p = profile_plan(&g, &plan, &cfg10);
        assert_eq!(p.tx_bytes, 0.0);
        assert_eq!(p.edge_flops, 0.0);
        assert_eq!(p.remain_prob, 1.0);
        assert!((p.device_flops_full - g.total_flops() as f64).abs() < 1.0);
    }

    #[test]
    fn profile_of_full_offload_has_no_device_flops() {
        let cfg = CandidateConfig::default();
        let g = zoo::alexnet(1000);
        let p = profile_plan(&g, &SurgeryPlan::full_offload(), &cfg);
        assert_eq!(p.expected_device_flops, 0.0);
        assert!((p.edge_flops - g.total_flops() as f64).abs() < 1.0);
        assert!(p.tx_bytes > 0.0);
    }

    #[test]
    fn pruning_reduces_device_flops_and_accuracy() {
        let cfg = CandidateConfig::default();
        let g = zoo::alexnet(1000);
        let cut = 8;
        let none = profile_plan(&g, &SurgeryPlan::partition(cut), &cfg);
        let pruned = profile_plan(
            &g,
            &SurgeryPlan {
                cut,
                exits: vec![],
                prune: PruneLevel::Medium,
                quantize_tx: false,
            },
            &cfg,
        );
        assert!(pruned.device_flops_full < none.device_flops_full);
        assert!(pruned.expected_accuracy < none.expected_accuracy);
        // Edge demand untouched by pruning.
        assert_eq!(pruned.edge_flops, none.edge_flops);
    }

    #[test]
    fn exits_reduce_expected_edge_traffic() {
        let cfg = CandidateConfig {
            accuracy_floor: 0.70,
            ..Default::default()
        };
        let g = zoo::alexnet(1000);
        let plain = profile_plan(&g, &SurgeryPlan::partition(8), &cfg);
        let with_exit = profile_plan(
            &g,
            &SurgeryPlan {
                cut: 8,
                exits: vec![(3, 0.8)],
                prune: PruneLevel::None,
                quantize_tx: false,
            },
            &cfg,
        );
        assert!(with_exit.remain_prob < plain.remain_prob);
        assert!(with_exit.tx_bytes * with_exit.remain_prob < plain.tx_bytes * plain.remain_prob);
    }

    #[test]
    fn reference_latency_weights_paths() {
        let cfg = CandidateConfig {
            accuracy_floor: 0.0,
            ..Default::default()
        };
        let g = zoo::alexnet(1000);
        let p = profile_plan(
            &g,
            &SurgeryPlan {
                cut: 8,
                exits: vec![(3, 0.7)],
                prune: PruneLevel::None,
                quantize_tx: false,
            },
            &cfg,
        );
        let lat = reference_latency(&p, &env());
        // must be between the fastest exit path and the slowest full path
        let fastest = p.device_flops_to_exit[0] * env().device_sec_per_flop;
        let slowest = p.device_flops_full * env().device_sec_per_flop
            + p.tx_bytes * env().tx_sec_per_byte
            + 1e-3
            + p.edge_flops * env().edge_sec_per_flop;
        assert!(
            lat > fastest && lat < slowest,
            "{fastest} < {lat} < {slowest}"
        );
    }

    #[test]
    fn quantized_variant_shrinks_bytes_and_costs_accuracy() {
        let cfg = CandidateConfig::default();
        let g = zoo::alexnet(1000);
        let plain = profile_plan(&g, &SurgeryPlan::partition(8), &cfg);
        let mut qplan = SurgeryPlan::partition(8);
        qplan.quantize_tx = true;
        let quant = profile_plan(&g, &qplan, &cfg);
        assert!((quant.tx_bytes - plain.tx_bytes / 4.0).abs() < 1.0);
        assert!(quant.expected_accuracy < plain.expected_accuracy);
        assert_eq!(quant.edge_flops, plain.edge_flops);
    }

    #[test]
    fn quantization_is_a_noop_for_device_only_plans() {
        let cfg = CandidateConfig::default();
        let g = zoo::lenet5(10);
        let mut plan = SurgeryPlan::device_only(&g);
        plan.quantize_tx = true;
        let p = profile_plan(&g, &plan, &cfg);
        // no bytes cross, and no accuracy penalty applies
        assert_eq!(p.tx_bytes, 0.0);
        assert!((p.acc_full - cfg.acc_full).abs() < 1e-12);
    }

    #[test]
    fn generator_offers_exit_free_variants() {
        let cfg = CandidateConfig::default();
        for g in [zoo::alexnet(1000), zoo::resnet18(1000)] {
            let menu = generate(&g, &env(), &cfg);
            // A pure device-only plan (no exits, no quantization) must be
            // available for the DeviceOnly baseline...
            assert!(
                menu.iter().any(|c| c.plan.cut == g.len()
                    && c.plan.exits.is_empty()
                    && !c.plan.quantize_tx),
                "{}: no pure device-only plan",
                g.name()
            );
            // ...and at least one *interior* exit-free plan for
            // Neurosurgeon-style static partitioning.
            assert!(
                menu.iter()
                    .any(|c| c.plan.cut != 0 && c.plan.cut != g.len() && c.plan.exits.is_empty()),
                "{}: no interior exit-free plan",
                g.name()
            );
        }
    }

    #[test]
    fn generator_offers_quantized_plans_when_allowed() {
        let cfg = CandidateConfig::default();
        let g = zoo::alexnet(1000);
        let menu = generate(&g, &env(), &cfg);
        assert!(
            menu.iter().any(|c| c.plan.quantize_tx),
            "no quantized plan survived Pareto filtering"
        );
        let mut no_q = cfg.clone();
        no_q.allow_quantize = false;
        let menu = generate(&g, &env(), &no_q);
        assert!(menu.iter().all(|c| !c.plan.quantize_tx));
    }

    #[test]
    fn menu_contains_the_two_extremes_or_something_dominating_them() {
        // The generator always evaluates boundaries 0 and n; they can only
        // be absent if something dominates them, which cannot happen for
        // device-only (unique zero edge demand) unless another plan has
        // zero edge demand too.
        let cfg = CandidateConfig::default();
        let g = zoo::mobilenet_v2(1000);
        let menu = generate(&g, &env(), &cfg);
        assert!(menu
            .iter()
            .any(|c| c.profile.remain_prob * c.profile.edge_flops == 0.0 || c.plan.cut == g.len()));
    }
}
