//! Analytic pricing of joint configurations.
//!
//! The search loop cannot afford a discrete-event simulation per candidate,
//! so configurations are priced analytically: exact expected service times
//! (roofline device compute, mean-rate transmission, shared-capacity edge
//! compute) plus queueing corrections — Pollaczek–Khinchine M/G/1 waiting
//! on the device FIFO (the service second moment comes from the exact exit
//! mixture), M/D/1 on the uplink, and M/G/1-PS response `s/(1−ρ)` on the
//! per-stream edge slice. The simulator (`scalpel-sim`) is the ground truth
//! the experiments report; F14 quantifies the analytic model's residual
//! error against it.

use crate::problem::JointProblem;
use scalpel_alloc::bandwidth_alloc::BandwidthPolicy;
use scalpel_alloc::compute_alloc::ComputePolicy;
use scalpel_models::{ExitHead, LatencyModel};
use scalpel_surgery::candidates::{CandidateConfig, CandidatePlan, MenuSkeleton, ReferenceEnv};
use scalpel_surgery::SurgeryPlan;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Utilization is clamped here before the `1/(1−ρ)` correction so an
/// overloaded stage prices as "very bad" rather than infinite/negative.
pub(crate) const RHO_CAP: f64 = 0.99;

/// Radio power while transmitting, watts (Wi-Fi-class uplink).
pub(crate) const TX_WATTS: f64 = 0.8;

/// Allocation policies used when pricing / compiling a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocPolicies {
    /// Per-server compute policy.
    pub compute: ComputePolicy,
    /// Per-AP bandwidth policy.
    pub bandwidth: BandwidthPolicy,
}

impl AllocPolicies {
    /// The paper's allocation: deadline-aware on both resources.
    pub fn optimal() -> Self {
        Self {
            compute: ComputePolicy::DeadlineAware,
            bandwidth: BandwidthPolicy::DeadlineAware,
        }
    }

    /// Static equal shares on both resources (baselines).
    pub fn equal() -> Self {
        Self {
            compute: ComputePolicy::Equal,
            bandwidth: BandwidthPolicy::Equal,
        }
    }
}

/// One plan of one stream, fully priced in that stream's environment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanPricing {
    /// The plan itself.
    pub plan: SurgeryPlan,
    /// Device seconds to complete at each exit (ascending).
    pub dev_to_exit: Vec<f64>,
    /// Device seconds when no exit fires.
    pub dev_full: f64,
    /// Expected device seconds per request.
    pub exp_dev: f64,
    /// Second moment `E[S²]` of the device-service exit mixture (the PK
    /// numerator ingredient), precomputed so stage-1 pricing never
    /// re-derives it per evaluate.
    pub es2: f64,
    /// Transmission seconds at full AP spectrum (per offloaded request).
    pub tx_full_s: f64,
    /// Bytes on the wire (per offloaded request).
    pub tx_bytes: f64,
    /// Edge FLOPs (per offloaded request).
    pub edge_flops: f64,
    /// Probability a request reaches the edge.
    pub remain: f64,
    /// Exit behavior.
    pub behavior: scalpel_models::ExitBehavior,
    /// Conditional accuracy per exit.
    pub acc_at_exit: Vec<f64>,
    /// Full-path accuracy.
    pub acc_full: f64,
    /// Expected accuracy.
    pub exp_accuracy: f64,
}

impl PlanPricing {
    /// Whether the plan keeps everything on the device.
    pub fn is_device_only(&self) -> bool {
        self.remain == 0.0 || (self.tx_bytes == 0.0 && self.edge_flops == 0.0)
    }
}

/// A joint decision: per-stream plan index (into the menus) and server.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// Plan choice per stream (index into `Evaluator::menu(k)`).
    pub plan_idx: Vec<usize>,
    /// Server per stream (ignored for device-only plans).
    pub placement: Vec<usize>,
}

/// Priced outcome of a configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalResult {
    /// Expected end-to-end latency per stream, seconds.
    pub latency_s: Vec<f64>,
    /// Expected accuracy per stream.
    pub accuracy: Vec<f64>,
    /// Bandwidth share per stream (of its AP).
    pub bandwidth_shares: Vec<f64>,
    /// Compute share per stream (of its server).
    pub compute_shares: Vec<f64>,
    /// Scalar objective (lower is better).
    pub objective: f64,
    /// Streams whose *expected* latency exceeds their deadline.
    pub expected_misses: usize,
    /// Expected *device-side* energy per request, joules (compute on the
    /// device + radio transmission).
    pub device_energy_j: Vec<f64>,
    /// Expected total energy per request, joules (device + edge compute).
    pub total_energy_j: Vec<f64>,
}

/// Prices configurations of one [`JointProblem`].
pub struct Evaluator {
    /// Per-stream candidate menus.
    pub(crate) menus: Vec<Vec<PlanPricing>>,
    /// Request rate per stream.
    pub(crate) rate_hz: Vec<f64>,
    /// Deadline per stream.
    pub(crate) deadline_s: Vec<f64>,
    /// Device of each stream / AP of each stream.
    pub(crate) device_of: Vec<usize>,
    pub(crate) ap_of: Vec<usize>,
    /// Device board power per stream, watts (for energy accounting).
    pub(crate) device_watts: Vec<f64>,
    /// Edge energy per FLOP per server, joules.
    pub(crate) server_jpf: Vec<f64>,
    /// rtt of each stream's AP.
    pub(crate) rtt_s: Vec<f64>,
    /// Server capacities.
    pub(crate) server_caps: Vec<f64>,
    pub(crate) num_aps: usize,
    /// Number of devices in the topology.
    pub(crate) num_devices: usize,
    /// Streams hosted by each device, ascending (stage-1 grouping).
    pub(crate) device_members: Vec<Vec<usize>>,
    /// Streams attached to each AP, ascending (stage-2/3 grouping).
    pub(crate) ap_members: Vec<Vec<usize>>,
    /// Mean streams per server, the construction-time fair-share proxy
    /// for edge time inside bandwidth demands.
    pub(crate) streams_per_server: f64,
}

impl Evaluator {
    /// Fallible constructor: strict ingest validation first, then menu
    /// construction, rejecting any stream whose candidate menu comes out
    /// empty (accuracy floor unsatisfiable at every cut/exit setting).
    /// Use this for inputs that did not already pass
    /// [`JointProblem::validate`].
    pub fn try_new(
        problem: &JointProblem,
        menu_cfg: Option<CandidateConfig>,
    ) -> Result<Self, crate::validate::ProblemError> {
        problem.validate()?;
        let ev = Self::new(problem, menu_cfg);
        for (k, menu) in ev.menus.iter().enumerate() {
            if menu.is_empty() {
                return Err(crate::validate::ProblemError::EmptyExitMenu { stream: k });
            }
        }
        Ok(ev)
    }

    /// Build menus and pricing caches for a problem. `menu_cfg` controls
    /// candidate generation; pass `None` for the defaults.
    pub fn new(problem: &JointProblem, menu_cfg: Option<CandidateConfig>) -> Self {
        let n = problem.streams.len();
        let total_cap: f64 = problem
            .cluster
            .servers
            .iter()
            .map(|s| s.proc.flops_per_sec)
            .sum();
        let mean_cap = total_cap / problem.cluster.servers.len() as f64;
        let streams_per_server = (n as f64 / problem.cluster.servers.len() as f64).max(1.0);
        let menu_cfg = menu_cfg.unwrap_or_default();
        // Latency models cached per (model, device-proc name), the first
        // stream of each pair supplying the processor.
        let mut lat_cache: HashMap<(usize, &str), LatencyModel> = HashMap::new();
        // Stream classes: a menu skeleton reads only the model, the device
        // speed and the accuracy floor (the model's accuracy follows from
        // its index), so streams agreeing on all three share one.
        let mut class_of: HashMap<(usize, u64, u64), usize> = HashMap::new();
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for (k, spec) in problem.streams.iter().enumerate() {
            let proc = &problem.cluster.devices[spec.device].proc;
            lat_cache
                .entry((spec.model, proc.name.as_str()))
                .or_insert_with(|| LatencyModel::new(&problem.models[spec.model], proc.clone()));
            let key = (
                spec.model,
                proc.flops_per_sec.to_bits(),
                spec.accuracy_floor.to_bits(),
            );
            let c = *class_of.entry(key).or_insert_with(|| {
                classes.push(Vec::new());
                classes.len() - 1
            });
            classes[c].push(k);
        }
        let by_ap = problem.streams_by_ap();
        // Mean full-spectrum link rate cached per *device*: `mean_rate_bps`
        // walks the fading model (log2/powf), and streams sharing a device
        // share its link, so the transcendentals run once per device.
        let mut dev_rate_bps: Vec<Option<f64>> = vec![None; problem.cluster.devices.len()];
        let mut menus: Vec<Vec<PlanPricing>> = vec![Vec::new(); n];
        for members in &classes {
            let first = &problem.streams[members[0]];
            let model = &problem.models[first.model];
            let cfg = CandidateConfig {
                accuracy_floor: first.accuracy_floor,
                acc_full: problem.model_accuracy[first.model],
                difficulty: problem.difficulty.clone(),
                ..menu_cfg.clone()
            };
            let device_sec_per_flop =
                1.0 / problem.cluster.devices[first.device].proc.flops_per_sec;
            let skeleton = MenuSkeleton::new(model, device_sec_per_flop, &cfg);
            for &k in members {
                let spec = &problem.streams[k];
                let dev = &problem.cluster.devices[spec.device];
                let rate = *dev_rate_bps[spec.device]
                    .get_or_insert_with(|| problem.cluster.link(spec.device).mean_rate_bps(1.0));
                let peers_on_ap = by_ap[dev.ap].len().max(1) as f64;
                let env = ReferenceEnv {
                    device_sec_per_flop,
                    tx_sec_per_byte: 8.0 * peers_on_ap / rate,
                    edge_sec_per_flop: streams_per_server / mean_cap,
                    rtt_s: problem.cluster.aps[dev.ap].rtt_s,
                };
                let lat = &lat_cache[&(spec.model, dev.proc.name.as_str())];
                menus[k] = skeleton
                    .menu(&env)
                    .into_iter()
                    .map(|c| Self::price_plan(model, lat, rate, c))
                    .collect();
            }
        }
        let device_of: Vec<usize> = problem.streams.iter().map(|s| s.device).collect();
        let num_devices = problem.cluster.devices.len();
        let mut device_members = vec![Vec::new(); num_devices];
        for (k, &d) in device_of.iter().enumerate() {
            device_members[d].push(k);
        }
        Self {
            menus,
            rate_hz: (0..n).map(|k| problem.rate_of(k)).collect(),
            deadline_s: problem.streams.iter().map(|s| s.deadline_s).collect(),
            device_of,
            ap_of: problem
                .streams
                .iter()
                .map(|s| problem.cluster.devices[s.device].ap)
                .collect(),
            device_watts: problem
                .streams
                .iter()
                .map(|s| {
                    let p = &problem.cluster.devices[s.device].proc;
                    p.joules_per_flop * p.flops_per_sec
                })
                .collect(),
            server_jpf: problem
                .cluster
                .servers
                .iter()
                .map(|s| s.proc.joules_per_flop)
                .collect(),
            rtt_s: problem
                .streams
                .iter()
                .map(|s| problem.cluster.aps[problem.cluster.devices[s.device].ap].rtt_s)
                .collect(),
            server_caps: problem
                .cluster
                .servers
                .iter()
                .map(|s| s.proc.flops_per_sec)
                .collect(),
            num_aps: problem.cluster.aps.len(),
            num_devices,
            device_members,
            ap_members: by_ap,
            streams_per_server,
        }
    }

    /// Price one candidate plan on one stream's device, whose link runs
    /// at `rate_bps` with the full AP spectrum.
    fn price_plan(
        model: &scalpel_models::ModelGraph,
        lat: &LatencyModel,
        rate_bps: f64,
        c: CandidatePlan,
    ) -> PlanPricing {
        let CandidatePlan { plan, profile } = c;
        let scale = plan.prune.flops_scale();
        let classes = model.output_shape().c;
        let mut dev_to_exit = Vec::with_capacity(plan.exits.len());
        let mut head_s = 0.0;
        for &(host, _) in &plan.exits {
            let feature = model.shape(host);
            let head = ExitHead::standard(feature, classes);
            let head_bytes = feature.bytes(model.dtype()) as u64 + head.params * 4;
            head_s += lat.extra_kernel_seconds(head.flops, head_bytes);
            dev_to_exit.push(lat.prefix_seconds(host + 1) * scale + head_s);
        }
        let dev_full = lat.prefix_seconds(plan.cut) * scale + head_s;
        let behavior = profile.behavior;
        let mut exp_dev = behavior.remain_prob * dev_full;
        for (i, &p) in behavior.exit_probs.iter().enumerate() {
            exp_dev += p * dev_to_exit[i];
        }
        // Second moment of the same mixture, accumulated in the exact
        // order the evaluator previously used per call (bit-identical).
        let mut es2 = behavior.remain_prob * dev_full * dev_full;
        for (i, &q) in behavior.exit_probs.iter().enumerate() {
            es2 += q * dev_to_exit[i] * dev_to_exit[i];
        }
        // The full-spectrum transmission time is cached here so the hot
        // path reads a field instead of re-dividing per demand gather.
        let tx_full_s = if profile.tx_bytes == 0.0 {
            0.0
        } else {
            profile.tx_bytes * 8.0 / rate_bps
        };
        PlanPricing {
            dev_to_exit,
            dev_full,
            exp_dev,
            es2,
            tx_full_s,
            tx_bytes: profile.tx_bytes,
            edge_flops: profile.edge_flops,
            remain: profile.remain_prob,
            behavior,
            acc_at_exit: profile.acc_at_exit,
            acc_full: profile.acc_full,
            exp_accuracy: profile.expected_accuracy,
            plan,
        }
    }

    /// Number of streams.
    pub fn num_streams(&self) -> usize {
        self.menus.len()
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.server_caps.len()
    }

    /// Server capacities (FLOP/s).
    pub fn server_caps(&self) -> &[f64] {
        &self.server_caps
    }

    /// The plan menu of stream `k`.
    pub fn menu(&self, k: usize) -> &[PlanPricing] {
        &self.menus[k]
    }

    /// Deadline of stream `k`.
    pub fn deadline(&self, k: usize) -> f64 {
        self.deadline_s[k]
    }

    /// Request rate of stream `k`.
    pub fn rate(&self, k: usize) -> f64 {
        self.rate_hz[k]
    }

    /// AP of stream `k`'s device.
    pub fn ap_of(&self, k: usize) -> usize {
        self.ap_of[k]
    }

    /// Number of APs in the topology.
    pub fn num_aps(&self) -> usize {
        self.num_aps
    }

    /// Number of streams sharing stream `k`'s AP (including `k`).
    /// O(1): per-AP membership is precomputed at construction.
    pub fn peers_on_same_ap(&self, k: usize) -> usize {
        self.ap_members[self.ap_of[k]].len().max(1)
    }

    /// Number of devices in the topology.
    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    /// Transmission seconds at full spectrum for plan `p` of stream `k`.
    /// Reads the value precomputed at menu construction (`p` must come
    /// from stream `k`'s menu, which every caller satisfies); `k` is kept
    /// in the signature as the provenance reminder.
    pub fn tx_full_seconds(&self, k: usize, p: &PlanPricing) -> f64 {
        let _ = k;
        p.tx_full_s
    }

    /// Price a configuration under the given allocation policies.
    ///
    /// Implemented as a fresh [`crate::eval_context::EvalContext`] rebuild,
    /// so the full evaluator and the incremental delta path share one
    /// pricing implementation — a from-scratch context *is* the oracle the
    /// delta path is checked against.
    pub fn evaluate(&self, asg: &Assignment, policies: AllocPolicies) -> EvalResult {
        crate::eval_context::EvalContext::new(self, asg.clone(), policies).into_result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::problem::JointProblem;

    fn small_problem() -> JointProblem {
        let cfg = ScenarioConfig {
            num_aps: 1,
            devices_per_ap: 4,
            arrival_rate_hz: 4.0,
            ..ScenarioConfig::default()
        };
        cfg.build()
    }

    fn default_assignment(ev: &Evaluator) -> Assignment {
        Assignment {
            plan_idx: vec![0; ev.num_streams()],
            placement: (0..ev.num_streams())
                .map(|k| k % ev.num_servers())
                .collect(),
        }
    }

    #[test]
    fn evaluator_builds_nonempty_menus() {
        let p = small_problem();
        let ev = Evaluator::new(&p, None);
        assert_eq!(ev.num_streams(), 4);
        for k in 0..4 {
            assert!(!ev.menu(k).is_empty(), "stream {k}");
            for plan in ev.menu(k) {
                assert!(plan.exp_dev >= 0.0);
                assert!(plan.exp_accuracy > 0.5);
            }
        }
    }

    #[test]
    fn evaluate_produces_finite_positive_latencies() {
        let p = small_problem();
        let ev = Evaluator::new(&p, None);
        let r = ev.evaluate(&default_assignment(&ev), AllocPolicies::optimal());
        for (k, &l) in r.latency_s.iter().enumerate() {
            assert!(l.is_finite() && l > 0.0, "stream {k}: {l}");
        }
        assert!(r.objective.is_finite());
    }

    #[test]
    fn optimal_allocation_not_worse_than_equal_on_sensible_plans() {
        // On a *sensible* configuration (each stream's lowest-latency-proxy
        // plan, the optimizer's starting point) the deadline-aware
        // allocation must price at least as well as static equal shares on
        // the objective it optimizes. (On pathological plan choices — e.g.
        // a 9-second device-only VGG prefix — no allocation can help and
        // miss counts may tie arbitrarily, so the guarantee is stated on
        // the objective, not raw miss counts.)
        let p = small_problem();
        let ev = Evaluator::new(&p, None);
        let asg = crate::optimizer::initial_assignment(
            &ev,
            scalpel_alloc::PlacementStrategy::BestResponse,
        );
        let opt = ev.evaluate(&asg, AllocPolicies::optimal());
        let eq = ev.evaluate(&asg, AllocPolicies::equal());
        assert!(
            opt.objective <= eq.objective * 1.02 + 1e-9,
            "optimal {} vs equal {}",
            opt.objective,
            eq.objective
        );
    }

    #[test]
    fn shares_live_on_simplices() {
        let p = small_problem();
        let ev = Evaluator::new(&p, None);
        let r = ev.evaluate(&default_assignment(&ev), AllocPolicies::optimal());
        let bw: f64 = r.bandwidth_shares.iter().sum();
        assert!(bw <= 1.0 + 1e-6, "bandwidth over-allocated: {bw}");
        let mut per_server = vec![0.0; ev.num_servers()];
        let asg = default_assignment(&ev);
        for k in 0..ev.num_streams() {
            per_server[asg.placement[k]] += r.compute_shares[k];
        }
        for (s, &c) in per_server.iter().enumerate() {
            assert!(c <= 1.0 + 1e-6, "server {s} over-allocated: {c}");
        }
    }

    #[test]
    fn better_plans_lower_the_objective() {
        // The menu's first entry is arbitrary; check that *some* other
        // selection changes (usually improves) the objective, i.e. plan
        // choice matters to the evaluator.
        let p = small_problem();
        let ev = Evaluator::new(&p, None);
        let base = ev.evaluate(&default_assignment(&ev), AllocPolicies::optimal());
        let mut best = base.objective;
        for k in 0..ev.num_streams() {
            for idx in 0..ev.menu(k).len() {
                let mut asg = default_assignment(&ev);
                asg.plan_idx[k] = idx;
                let r = ev.evaluate(&asg, AllocPolicies::optimal());
                best = best.min(r.objective);
            }
        }
        assert!(best < base.objective * 0.999 || ev.menu(0).len() == 1);
    }

    #[test]
    fn device_only_plans_get_no_shares() {
        let p = small_problem();
        let ev = Evaluator::new(&p, None);
        // find a device-only plan in any menu
        for k in 0..ev.num_streams() {
            if let Some(idx) = ev.menu(k).iter().position(|pl| pl.is_device_only()) {
                let mut asg = default_assignment(&ev);
                asg.plan_idx[k] = idx;
                let r = ev.evaluate(&asg, AllocPolicies::optimal());
                assert_eq!(r.bandwidth_shares[k], 0.0);
                assert_eq!(r.compute_shares[k], 0.0);
                return;
            }
        }
        // No device-only plan in any menu is also acceptable (heavy
        // models on weak devices); nothing to assert then.
    }

    #[test]
    fn latency_matches_pk_hand_computation() {
        // Reconstruct the evaluator's own latency formula for one stream
        // from its public pieces: PK device wait over the device's streams,
        // M/D/1 uplink wait, PS edge response.
        let problem = small_problem();
        let ev = Evaluator::new(&problem, None);
        let asg = default_assignment(&ev);
        let r = ev.evaluate(&asg, AllocPolicies::optimal());
        for k in 0..ev.num_streams() {
            let p = &ev.menu(k)[asg.plan_idx[k]];
            // Device PK wait: all streams on the same device.
            let dev = problem.streams[k].device;
            let mut lam_es2 = 0.0;
            let mut rho = 0.0;
            for j in 0..ev.num_streams() {
                if problem.streams[j].device != dev {
                    continue;
                }
                let pj = &ev.menu(j)[asg.plan_idx[j]];
                let mut es2 = pj.behavior.remain_prob * pj.dev_full * pj.dev_full;
                for (i, &q) in pj.behavior.exit_probs.iter().enumerate() {
                    es2 += q * pj.dev_to_exit[i] * pj.dev_to_exit[i];
                }
                lam_es2 += ev.rate(j) * es2;
                rho += ev.rate(j) * pj.exp_dev;
            }
            let w_dev = lam_es2 / (2.0 * (1.0 - rho.min(0.99)));
            let mut expect = 0.0;
            for (i, &q) in p.behavior.exit_probs.iter().enumerate() {
                expect += q * (w_dev + p.dev_to_exit[i]);
            }
            let mut full = w_dev + p.dev_full;
            if !p.is_device_only() {
                let tx = ev.tx_full_seconds(k, p) / r.bandwidth_shares[k].max(1e-9);
                let lam_tx = ev.rate(k) * p.remain;
                let rho_tx = (lam_tx * tx).min(0.99);
                let w_tx = lam_tx * tx * tx / (2.0 * (1.0 - rho_tx));
                let srv = asg.placement[k];
                let edge = p.edge_flops / (ev.server_caps()[srv] * r.compute_shares[k].max(1e-9));
                let rho_edge = (ev.rate(k) * p.remain * edge).min(0.99);
                full += w_tx + tx + 1e-3 + edge / (1.0 - rho_edge); // rtt 2ms / 2
            }
            expect += p.behavior.remain_prob * full;
            assert!(
                (r.latency_s[k] - expect).abs() < 1e-9 * expect.max(1.0),
                "stream {k}: {} vs hand {expect}",
                r.latency_s[k]
            );
        }
    }

    #[test]
    fn energy_accounting_is_positive_and_split_correctly() {
        let p = small_problem();
        let ev = Evaluator::new(&p, None);
        let r = ev.evaluate(&default_assignment(&ev), AllocPolicies::optimal());
        for k in 0..ev.num_streams() {
            assert!(r.device_energy_j[k] >= 0.0);
            assert!(
                r.total_energy_j[k] >= r.device_energy_j[k] - 1e-12,
                "total < device for stream {k}"
            );
        }
    }

    #[test]
    fn energy_matches_hand_computation() {
        // device energy = device compute (service × board power) + radio
        // (remain × tx seconds at the allocated share × TX_WATTS); total
        // adds the edge compute at the server's joules/FLOP.
        let problem = small_problem();
        let ev = Evaluator::new(&problem, None);
        let asg = default_assignment(&ev);
        let r = ev.evaluate(&asg, AllocPolicies::optimal());
        for k in 0..ev.num_streams() {
            let p = &ev.menu(k)[asg.plan_idx[k]];
            let dev = &problem.cluster.devices[problem.streams[k].device].proc;
            let watts = dev.joules_per_flop * dev.flops_per_sec;
            let mut expect_dev = p.exp_dev * watts;
            let mut expect_tot = expect_dev;
            if !p.is_device_only() {
                let tx = ev.tx_full_seconds(k, p) / r.bandwidth_shares[k].max(1e-9);
                let radio = p.remain * tx * 0.8;
                expect_dev += radio;
                let srv = asg.placement[k];
                let jpf = problem.cluster.servers[srv].proc.joules_per_flop;
                expect_tot += radio + p.remain * p.edge_flops * jpf;
            }
            assert!(
                (r.device_energy_j[k] - expect_dev).abs() < 1e-9 * expect_dev.max(1.0),
                "stream {k}: device {} vs {}",
                r.device_energy_j[k],
                expect_dev
            );
            assert!(
                (r.total_energy_j[k] - expect_tot).abs() < 1e-9 * expect_tot.max(1.0),
                "stream {k}: total {} vs {}",
                r.total_energy_j[k],
                expect_tot
            );
        }
    }

    /// The 64-stream churn topology: 8 APs of 8 devices against 8
    /// synthetic 1 TFLOP/s servers.
    fn churn_topology() -> JointProblem {
        ScenarioConfig {
            num_aps: 8,
            devices_per_ap: 8,
            arrival_rate_hz: 4.0,
            servers: crate::config::ServerMix::Synthetic {
                count: 8,
                mean_fps: 1e12,
                cv: 0.3,
            },
            ..ScenarioConfig::default()
        }
        .build()
    }

    /// Every field of a pricing, as bits (plans compared separately).
    fn pricing_bits(p: &PlanPricing) -> Vec<u64> {
        let scalars = [
            p.dev_full,
            p.exp_dev,
            p.es2,
            p.tx_full_s,
            p.tx_bytes,
            p.edge_flops,
            p.remain,
            p.acc_full,
            p.exp_accuracy,
            p.behavior.remain_prob,
            p.behavior.expected_accuracy,
        ];
        let vectors = [
            &p.dev_to_exit,
            &p.acc_at_exit,
            &p.behavior.exit_probs,
            &p.behavior.cum,
        ];
        scalars
            .iter()
            .chain(vectors.into_iter().flatten())
            .map(|x| x.to_bits())
            .collect()
    }

    /// Every stream's menu equals, plan for plan and bit for bit, the
    /// pricing of `candidates::generate` run for that stream alone: sharing
    /// a class's skeleton moves nothing.
    fn assert_menus_match_per_stream_generation(p: &JointProblem) {
        use scalpel_surgery::candidates;
        let ev = Evaluator::new(p, None);
        let by_ap = p.streams_by_ap();
        let caps: f64 = p.cluster.servers.iter().map(|s| s.proc.flops_per_sec).sum();
        let mean_cap = caps / p.cluster.servers.len() as f64;
        let per_server = (p.streams.len() as f64 / p.cluster.servers.len() as f64).max(1.0);
        for (k, spec) in p.streams.iter().enumerate() {
            let dev = &p.cluster.devices[spec.device];
            let rate = p.cluster.link(spec.device).mean_rate_bps(1.0);
            let env = ReferenceEnv {
                device_sec_per_flop: 1.0 / dev.proc.flops_per_sec,
                tx_sec_per_byte: 8.0 * by_ap[dev.ap].len().max(1) as f64 / rate,
                edge_sec_per_flop: per_server / mean_cap,
                rtt_s: p.cluster.aps[dev.ap].rtt_s,
            };
            let cfg = CandidateConfig {
                accuracy_floor: spec.accuracy_floor,
                acc_full: p.model_accuracy[spec.model],
                difficulty: p.difficulty.clone(),
                ..CandidateConfig::default()
            };
            let model = &p.models[spec.model];
            let lat = LatencyModel::new(model, dev.proc.clone());
            let alone: Vec<PlanPricing> = candidates::generate(model, &env, &cfg)
                .into_iter()
                .map(|c| Evaluator::price_plan(model, &lat, rate, c))
                .collect();
            let shared = ev.menu(k);
            assert_eq!(shared.len(), alone.len(), "stream {k}: menu length");
            for (i, (a, b)) in shared.iter().zip(&alone).enumerate() {
                assert_eq!(a.plan, b.plan, "stream {k} plan {i}");
                assert_eq!(pricing_bits(a), pricing_bits(b), "stream {k} plan {i}");
            }
        }
    }

    #[test]
    fn shared_skeletons_price_like_per_stream_generation() {
        let base = churn_topology();
        assert_menus_match_per_stream_generation(&base);
        // A drifted copy, scaled the way churn scales the fleet.
        let mut fleet = crate::service::FleetState::nominal(&base);
        for (i, f) in fleet.link_factor.iter_mut().enumerate() {
            *f = 0.3 + 0.7 * ((i * 5 + 1) % 8) as f64 / 7.0;
        }
        for (i, f) in fleet.cap_factor.iter_mut().enumerate() {
            *f = 0.3 + 0.7 * ((i * 3 + 2) % 8) as f64 / 7.0;
        }
        assert_menus_match_per_stream_generation(&fleet.effective_problem(&base));
    }

    #[test]
    fn distinct_device_speeds_price_like_per_stream_generation() {
        // No two streams share a class when every device has its own speed.
        let mut p = churn_topology();
        for (d, dev) in p.cluster.devices.iter_mut().enumerate() {
            dev.proc.flops_per_sec *= 1.0 + d as f64 * 1e-3;
            dev.proc.name = format!("{}-{d}", dev.proc.name);
        }
        assert_menus_match_per_stream_generation(&p);
    }

    #[test]
    fn higher_load_prices_worse() {
        let cfg_lo = ScenarioConfig {
            num_aps: 1,
            devices_per_ap: 4,
            arrival_rate_hz: 2.0,
            ..ScenarioConfig::default()
        };
        let mut cfg_hi = cfg_lo.clone();
        cfg_hi.arrival_rate_hz = 16.0;
        let ev_lo = Evaluator::new(&cfg_lo.build(), None);
        let ev_hi = Evaluator::new(&cfg_hi.build(), None);
        let r_lo = ev_lo.evaluate(&default_assignment(&ev_lo), AllocPolicies::optimal());
        let r_hi = ev_hi.evaluate(&default_assignment(&ev_hi), AllocPolicies::optimal());
        assert!(r_hi.objective > r_lo.objective);
    }
}
