//! Candidate-plan generation: the per-stream plan menu the joint optimizer
//! searches over.
//!
//! For every (downsampled) cut × pruning level, the exit-setting DP picks
//! the best exits under a *reference environment* (the stream's device
//! speed and its fair-share transmission/edge rates); the resulting plans
//! are then reduced to the Pareto frontier over the environment-independent
//! demand vector, because dominated plans cannot win under any allocation.
//!
//! Generation is split in two. A [`MenuSkeleton`] holds everything the
//! transmission and edge rates never reach: the cuts, the exit hosts, their
//! depth transcendentals and FLOPs, and the DP's Pareto fronts per (cut,
//! prune) slot and threshold. Streams that share a model, device speed and
//! accuracy floor share one skeleton. [`MenuSkeleton::menu`] then closes the
//! fronts at one stream's rest time, refines thresholds and profiles the
//! variants. [`generate`] is one skeleton and one menu.

use crate::exit_setting::{ExitCandidate, ExitFronts, ExitSettingProblem, Refined};
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
}

impl Default for CandidateConfig {
    fn default() -> Self {
        Self {
            max_cuts: 6,
            max_exits: 3,
            accuracy_floor: 0.74,
            acc_full: 0.76,
            prune_levels: vec![PruneLevel::None, PruneLevel::Medium],
            allow_quantize: true,
            difficulty: DifficultyModel::default(),
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
    fn demand_vector(&self) -> [f64; 4] {
        [
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

/// Build the profile of an explicit plan under `cfg` from the model
/// directly: the oracle [`MenuSkeleton`]'s cached profiles are pinned to.
#[cfg(test)]
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
    MenuSkeleton::new(model, env.device_sec_per_flop, cfg).menu(env)
}

/// The environment-free part of the menus of one stream class: one model
/// on one device speed under one [`CandidateConfig`]. Build it once and
/// call [`Self::menu`] per stream of the class.
#[derive(Debug)]
pub struct MenuSkeleton<'a> {
    cfg: &'a CandidateConfig,
    device_sec_per_flop: f64,
    slots: Vec<Slot>,
}

/// One (cut, prune) slot of a skeleton.
#[derive(Debug)]
struct Slot {
    cut: usize,
    prune: PruneLevel,
    /// Whether the cut is the device-only boundary (no rest time).
    device_only: bool,
    /// Bytes crossing the cut.
    tx_bytes: f64,
    /// Edge FLOPs past the cut.
    edge_flops: f64,
    /// Whether the int8-transmission variants are offered.
    quantizable: bool,
    /// Full-path accuracy of the plain and the int8 variants.
    acc_full: [f64; 2],
    /// Pruned prefix FLOPs through each exit host.
    host_prefix_flops: Vec<f64>,
    /// FLOPs of each exit host's head.
    head_flops: Vec<f64>,
    /// Pruned prefix FLOPs through the cut.
    prefix_flops: f64,
    /// The slot's exit-setting instance.
    problem: ExitSettingProblem,
    fronts: ExitFronts,
}

/// The transmission-independent half of a plan's profile: its exit
/// behaviour and device FLOPs, shared by a plan and its int8 variant.
#[derive(Debug)]
struct ExitPart {
    exit_probs: Vec<f64>,
    cum: Vec<f64>,
    remain_prob: f64,
    acc_at_exit: Vec<f64>,
    /// `Σ exit_probs[i] · acc_at_exit[i]`, the exits' share of expected
    /// accuracy.
    exit_acc: f64,
    device_flops_to_exit: Vec<f64>,
    device_flops_full: f64,
    expected_device_flops: f64,
}

/// Maximum exit hosts offered to the exit-setting DP per cut.
const MAX_HOSTS: usize = 8;

impl<'a> MenuSkeleton<'a> {
    /// Build the skeleton of `model` on a device taking
    /// `device_sec_per_flop` seconds per FLOP.
    pub fn new(model: &ModelGraph, device_sec_per_flop: f64, cfg: &'a CandidateConfig) -> Self {
        let cuts = candidate_cuts(model, cfg.max_cuts);
        let interior: Vec<usize> = cuts
            .iter()
            .map(|c| c.boundary)
            .filter(|&b| b != 0 && b != model.len())
            .collect();
        let classes = model.output_shape().c;
        let mut slots = Vec::new();
        for cut in &cuts {
            // A plan validates when its cut does, its exits sit before the
            // cut (true of every host below) and its thresholds lie in
            // [0, 1), which `menu` checks.
            if model.validate_cut(cut.boundary).is_err() {
                continue;
            }
            for &prune in &cfg.prune_levels {
                // Pruning a nonexistent prefix is meaningless.
                if cut.boundary == 0 && prune != PruneLevel::None {
                    continue;
                }
                let scale = prune.flops_scale();
                // Exit hosts: interior single-tensor boundaries inside the
                // prefix.
                let bounds: Vec<usize> = interior
                    .iter()
                    .copied()
                    .filter(|&b| b < cut.boundary)
                    .take(MAX_HOSTS)
                    .collect();
                let host_prefix_flops: Vec<f64> = bounds
                    .iter()
                    .map(|&b| model.prefix_flops(b) as f64 * scale)
                    .collect();
                let head_flops: Vec<f64> = bounds
                    .iter()
                    .map(|&b| ExitHead::standard(model.shape(b - 1), classes).flops as f64)
                    .collect();
                let hosts = bounds
                    .iter()
                    .zip(host_prefix_flops.iter().zip(&head_flops))
                    .map(|(&b, (&prefix, &head))| ExitCandidate {
                        node: b - 1,
                        depth_fraction: model.depth_fraction(b),
                        time_to_host_s: prefix * device_sec_per_flop,
                        head_time_s: head * device_sec_per_flop,
                    })
                    .collect();
                let prefix_flops = model.prefix_flops(cut.boundary) as f64 * scale;
                let acc_plain = (cfg.acc_full - prune.accuracy_cost()).max(0.0);
                let problem = ExitSettingProblem {
                    hosts,
                    full_prefix_time_s: prefix_flops * device_sec_per_flop,
                    max_exits: cfg.max_exits,
                    accuracy_floor: cfg.accuracy_floor,
                    acc_full: acc_plain,
                    difficulty: cfg.difficulty.clone(),
                };
                let fronts = ExitFronts::new(&problem);
                let device_only = cut.boundary == model.len();
                slots.push(Slot {
                    cut: cut.boundary,
                    prune,
                    device_only,
                    tx_bytes: cut.bytes as f64,
                    edge_flops: model.suffix_flops(cut.boundary) as f64,
                    quantizable: cfg.allow_quantize && !device_only && cut.bytes > 0,
                    acc_full: [
                        acc_plain,
                        (cfg.acc_full - prune.accuracy_cost() - crate::plan::QUANTIZE_TX_ACC_COST)
                            .max(0.0),
                    ],
                    host_prefix_flops,
                    head_flops,
                    prefix_flops,
                    problem,
                    fronts,
                });
            }
        }
        Self {
            cfg,
            device_sec_per_flop,
            slots,
        }
    }

    /// The menu of one stream of the class in `env`, whose device speed
    /// must be the skeleton's.
    pub fn menu(&self, env: &ReferenceEnv) -> Vec<CandidatePlan> {
        debug_assert_eq!(
            env.device_sec_per_flop.to_bits(),
            self.device_sec_per_flop.to_bits()
        );
        let mut out: Vec<CandidatePlan> = Vec::new();
        for slot in &self.slots {
            let rest_time_s = if slot.device_only {
                0.0
            } else {
                slot.tx_bytes * env.tx_sec_per_byte
                    + env.rtt_s / 2.0
                    + slot.edge_flops * env.edge_sec_per_flop
            };
            let sol = slot.fronts.close(&slot.problem, rest_time_s);
            // Per-exit threshold refinement on top of the uniform-threshold
            // DP solution (never worse; see `ExitFronts::refine`).
            let refined = slot.fronts.refine(&slot.problem, rest_time_s, &sol);
            if !refined.thresholds.iter().all(|t| (0.0..1.0).contains(t)) {
                continue;
            }
            let exits: Vec<(usize, f64)> = sol
                .selected
                .iter()
                .zip(&refined.thresholds)
                .map(|(&i, &t)| (slot.problem.hosts[i].node, t))
                .collect();
            let difficulty = &self.cfg.difficulty;
            let part = slot.exit_part(difficulty, &sol.selected, &refined);
            // Offer, besides the DP-chosen exits: the exit-free variant
            // (what Neurosurgeon-style static partitioning uses — higher
            // accuracy, more compute, so it survives the Pareto filter)
            // and the int8-transmission variants. The filter keeps
            // whichever versions can win.
            let mut variants = vec![(exits, part)];
            if !sol.selected.is_empty() {
                variants.push((
                    Vec::new(),
                    slot.exit_part(difficulty, &[], &Refined::default()),
                ));
            }
            for quantize_tx in [false, true] {
                if quantize_tx && !slot.quantizable {
                    break;
                }
                for (exits, part) in &variants {
                    let mut profile = slot.profile(part, quantize_tx);
                    // Enforce the accuracy floor on the final profile as well.
                    if profile.expected_accuracy + 1e-9 < self.cfg.accuracy_floor {
                        continue;
                    }
                    profile.reference_latency_s = reference_latency(&profile, env);
                    let plan = SurgeryPlan {
                        cut: slot.cut,
                        exits: exits.clone(),
                        prune: slot.prune,
                        quantize_tx,
                    };
                    out.push(CandidatePlan { plan, profile });
                }
            }
        }
        // The menu can legitimately come out empty (e.g. an accuracy floor no
        // plan can clear); callers surface that as a typed validation error
        // rather than asserting here.
        crate::pareto::pareto_filter(out, |c| c.profile.demand_vector())
    }
}

impl Slot {
    /// The exit half of the profile of this slot's plan with exits at
    /// hosts `sel` under `refined`'s thresholds: `profile_plan`'s
    /// arithmetic over the cached depth caches, threshold powers and
    /// FLOPs.
    fn exit_part(
        &self,
        difficulty: &DifficultyModel,
        sel: &[usize],
        refined: &Refined,
    ) -> ExitPart {
        let mut exit_probs = Vec::with_capacity(sel.len());
        let mut cum = Vec::with_capacity(sel.len());
        let mut running = 0.0f64;
        for (j, &i) in sel.iter().enumerate() {
            let s = difficulty.coverage_cached(self.fronts.depth(i), refined.thr_pows[j]);
            let new_running = running.max(s);
            exit_probs.push(new_running - running);
            running = new_running;
            cum.push(running);
        }
        let remain_prob = 1.0 - running;
        let acc_at_exit: Vec<f64> = sel
            .iter()
            .zip(&refined.thresholds)
            .map(|(&i, &t)| difficulty.conditional_accuracy_cached(self.fronts.depth(i), t))
            .collect();
        let exit_acc = exit_probs
            .iter()
            .zip(&acc_at_exit)
            .map(|(&p, &a)| p * a)
            .sum::<f64>();
        let mut device_flops_to_exit = Vec::with_capacity(sel.len());
        let mut heads_so_far = 0.0;
        for &i in sel {
            heads_so_far += self.head_flops[i];
            device_flops_to_exit.push(self.host_prefix_flops[i] + heads_so_far);
        }
        let device_flops_full = self.prefix_flops + heads_so_far;
        let mut expected_device_flops = remain_prob * device_flops_full;
        for (i, &p) in exit_probs.iter().enumerate() {
            expected_device_flops += p * device_flops_to_exit[i];
        }
        ExitPart {
            exit_probs,
            cum,
            remain_prob,
            acc_at_exit,
            exit_acc,
            device_flops_to_exit,
            device_flops_full,
            expected_device_flops,
        }
    }

    /// The full profile of this slot's plan with exit half `part`, sent
    /// int8-quantized or not (reference latency unset).
    fn profile(&self, part: &ExitPart, quantize_tx: bool) -> PlanProfile {
        let acc_full = self.acc_full[usize::from(quantize_tx)];
        let expected_accuracy = if part.exit_probs.is_empty() {
            acc_full
        } else {
            part.remain_prob * acc_full + part.exit_acc
        };
        let mut tx_bytes = self.tx_bytes;
        if quantize_tx {
            tx_bytes /= crate::plan::QUANTIZE_TX_SHRINK;
        }
        PlanProfile {
            expected_device_flops: part.expected_device_flops,
            device_flops_full: part.device_flops_full,
            device_flops_to_exit: part.device_flops_to_exit.clone(),
            tx_bytes,
            edge_flops: self.edge_flops,
            remain_prob: part.remain_prob,
            behavior: ExitBehavior {
                exit_probs: part.exit_probs.clone(),
                cum: part.cum.clone(),
                remain_prob: part.remain_prob,
                expected_accuracy,
            },
            acc_at_exit: part.acc_at_exit.clone(),
            acc_full,
            expected_accuracy,
            reference_latency_s: 0.0,
        }
    }
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

    /// `a` and `b` agree on every field, bit for bit.
    fn assert_same_bits(what: &str, a: &PlanProfile, b: &PlanProfile) {
        let scalars = |p: &PlanProfile| {
            [
                p.expected_device_flops,
                p.device_flops_full,
                p.tx_bytes,
                p.edge_flops,
                p.remain_prob,
                p.behavior.remain_prob,
                p.behavior.expected_accuracy,
                p.acc_full,
                p.expected_accuracy,
                p.reference_latency_s,
            ]
            .map(f64::to_bits)
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(scalars(a), scalars(b), "{what}: scalar fields");
        assert_eq!(
            bits(&a.device_flops_to_exit),
            bits(&b.device_flops_to_exit),
            "{what}: device_flops_to_exit"
        );
        assert_eq!(
            bits(&a.acc_at_exit),
            bits(&b.acc_at_exit),
            "{what}: acc_at_exit"
        );
        assert_eq!(
            bits(&a.behavior.exit_probs),
            bits(&b.behavior.exit_probs),
            "{what}: exit_probs"
        );
        assert_eq!(bits(&a.behavior.cum), bits(&b.behavior.cum), "{what}: cum");
    }

    #[test]
    fn cached_profiles_match_the_uncached_oracle_bit_for_bit() {
        let cfgs = [
            CandidateConfig::default(),
            CandidateConfig {
                accuracy_floor: 0.70,
                ..Default::default()
            },
        ];
        let (mut plans, mut with_exits, mut quantized) = (0, 0, 0);
        for name in zoo::ALL_NAMES {
            let g = zoo::by_name(name).expect("zoo model");
            for cfg in &cfgs {
                for device_fps in [2e9, 25e9, 200e9] {
                    // One skeleton serves every environment of the class.
                    let skeleton = MenuSkeleton::new(&g, 1.0 / device_fps, cfg);
                    for tx_bps in [5e6, 50e6, 500e6] {
                        for edge_fps in [1e11, 1e12, 1e13] {
                            for rtt_s in [0.0, 2e-3, 20e-3] {
                                let env = ReferenceEnv {
                                    device_sec_per_flop: 1.0 / device_fps,
                                    tx_sec_per_byte: 8.0 / tx_bps,
                                    edge_sec_per_flop: 1.0 / edge_fps,
                                    rtt_s,
                                };
                                for c in skeleton.menu(&env) {
                                    let mut oracle = profile_plan(&g, &c.plan, cfg);
                                    oracle.reference_latency_s = reference_latency(&oracle, &env);
                                    let what = format!("{name} {:?} {env:?}", c.plan);
                                    assert_same_bits(&what, &c.profile, &oracle);
                                    plans += 1;
                                    with_exits += usize::from(!c.plan.exits.is_empty());
                                    quantized += usize::from(c.plan.quantize_tx);
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(
            plans > 1000 && with_exits > 100 && quantized > 100,
            "{plans} plans checked, {with_exits} with exits, {quantized} quantized"
        );
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
