//! Scenario generation: the evaluation's default parameters (Table 2) and
//! every sweep axis used by the experiment harness.
//!
//! Defaults (all \[reconstructed\] — see DESIGN.md's mismatch note): 4 APs ×
//! 10 devices, a realistic device-class mix (40 % RPi-class, 30 % phone,
//! 20 % Nano, 10 % TX2), four heterogeneous servers, 20 MHz per AP,
//! Poisson 8 req/s per stream, backbones round-robined over the standard
//! zoo with per-model deadlines.

use crate::problem::{JointProblem, StreamSpec};
use scalpel_models::zoo;
use scalpel_models::{DifficultyModel, ProcessorClass, ProcessorSpec};
use scalpel_sim::SimRng;
use scalpel_sim::{
    ApSpec, ArrivalProcess, Cluster, DeviceSpec, FaultPlan, FaultProfile, ServerSpec, SimConfig,
};
use serde::{Deserialize, Serialize};

/// How server capacities are drawn.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerMix {
    /// The default four-box rack: Xeon, T4, V100, T4.
    Standard,
    /// `count` servers whose capacities share a mean but vary with the
    /// given coefficient of variation (the F7 heterogeneity sweep).
    Synthetic {
        /// Number of servers.
        count: usize,
        /// Mean effective capacity, FLOP/s.
        mean_fps: f64,
        /// Coefficient of variation of capacities in `[0, 1]`.
        cv: f64,
    },
}

/// Everything needed to instantiate a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Number of access points.
    pub num_aps: usize,
    /// Devices per AP (total devices = `num_aps × devices_per_ap`).
    pub devices_per_ap: usize,
    /// Uplink spectrum per AP, Hz.
    pub ap_bandwidth_hz: f64,
    /// Server rack composition.
    pub servers: ServerMix,
    /// Mean Poisson arrival rate per stream, req/s.
    pub arrival_rate_hz: f64,
    /// Accuracy floor applied to every stream.
    pub accuracy_floor_drop: f64,
    /// Seed for topology randomness (distances, device classes).
    pub seed: u64,
    /// Simulation settings used when executing solutions.
    pub sim: SimConfig,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            num_aps: 4,
            devices_per_ap: 10,
            ap_bandwidth_hz: 20e6,
            servers: ServerMix::Standard,
            arrival_rate_hz: 4.0,
            accuracy_floor_drop: 0.02,
            seed: 7,
            sim: SimConfig {
                horizon_s: 30.0,
                warmup_s: 3.0,
                seed: 7,
                fading: true,
                ..SimConfig::default()
            },
        }
    }
}

/// Published top-1 accuracies of the standard zoo (alexnet, vgg16,
/// resnet18, mobilenet_v2).
pub const ZOO_ACCURACY: [f64; 4] = [0.565, 0.716, 0.698, 0.718];

/// Relative deadline of each zoo model's streams, seconds (same order).
pub const DEADLINES_S: [f64; 4] = [0.060, 0.150, 0.080, 0.040];

/// AP ↔ server round-trip of every AP, seconds.
pub const RTT_S: f64 = 2e-3;

impl ScenarioConfig {
    /// Total number of devices (== streams).
    pub fn num_devices(&self) -> usize {
        self.num_aps * self.devices_per_ap
    }

    /// Number of servers the scenario will instantiate.
    pub fn num_servers(&self) -> usize {
        match &self.servers {
            ServerMix::Standard => 4,
            ServerMix::Synthetic { count, .. } => *count,
        }
    }

    /// Generate the fault plan a profile produces for this topology
    /// (a pure function of the profile seed and the scenario dimensions).
    pub fn fault_plan(&self, profile: &FaultProfile) -> FaultPlan {
        profile.plan(
            self.num_devices(),
            self.num_aps,
            self.num_servers(),
            self.sim.horizon_s,
        )
    }

    /// Materialize the topology and streams.
    pub fn build(&self) -> JointProblem {
        let mut rng = SimRng::new(self.seed, 77);
        let device_classes = [
            ProcessorClass::RaspberryPi4,
            ProcessorClass::Smartphone,
            ProcessorClass::JetsonNano,
            ProcessorClass::JetsonTx2,
        ];
        // 40/30/20/10 class mix, deterministic per seed.
        let class_of = |i: usize, rng: &mut SimRng| -> ProcessorClass {
            let _ = i;
            let u = rng.open01();
            if u < 0.4 {
                device_classes[0]
            } else if u < 0.7 {
                device_classes[1]
            } else if u < 0.9 {
                device_classes[2]
            } else {
                device_classes[3]
            }
        };
        let mut devices = Vec::with_capacity(self.num_devices());
        for ap in 0..self.num_aps {
            for j in 0..self.devices_per_ap {
                let id = ap * self.devices_per_ap + j;
                devices.push(DeviceSpec {
                    id,
                    proc: class_of(id, &mut rng).spec(),
                    ap,
                    distance_m: rng.uniform(10.0, 80.0),
                });
            }
        }
        let aps = (0..self.num_aps)
            .map(|id| ApSpec {
                id,
                bandwidth_hz: self.ap_bandwidth_hz,
                rtt_s: RTT_S,
            })
            .collect();
        let servers = self.build_servers(&mut rng);
        let models = zoo::standard_zoo();
        let streams = (0..self.num_devices())
            .map(|d| {
                let m = d % models.len();
                StreamSpec {
                    device: d,
                    model: m,
                    arrivals: ArrivalProcess::Poisson {
                        rate_hz: self.arrival_rate_hz,
                    },
                    deadline_s: DEADLINES_S[m % DEADLINES_S.len()],
                    accuracy_floor: (ZOO_ACCURACY[m] - self.accuracy_floor_drop).max(0.0),
                }
            })
            .collect();
        JointProblem {
            cluster: Cluster {
                devices,
                aps,
                servers,
            },
            models,
            model_accuracy: ZOO_ACCURACY.to_vec(),
            streams,
            difficulty: DifficultyModel::default(),
        }
    }

    fn build_servers(&self, rng: &mut SimRng) -> Vec<ServerSpec> {
        match &self.servers {
            ServerMix::Standard => {
                let classes = [
                    ProcessorClass::EdgeXeon,
                    ProcessorClass::EdgeGpuT4,
                    ProcessorClass::EdgeGpuV100,
                    ProcessorClass::EdgeGpuT4,
                ];
                classes
                    .iter()
                    .enumerate()
                    .map(|(id, c)| ServerSpec { id, proc: c.spec() })
                    .collect()
            }
            ServerMix::Synthetic {
                count,
                mean_fps,
                cv,
            } => {
                // Capacities spread uniformly to hit the requested CV
                // (uniform on mean*(1±√3·cv)), clamped positive.
                let half_width = 3f64.sqrt() * cv;
                (0..*count)
                    .map(|id| {
                        let f = rng.uniform(1.0 - half_width, 1.0 + half_width).max(0.05);
                        ServerSpec {
                            id,
                            proc: ProcessorSpec::new(
                                format!("synth{id}"),
                                mean_fps * f,
                                mean_fps * f / 10.0,
                                15e-6,
                            ),
                        }
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scenario_builds_and_validates() {
        let p = ScenarioConfig::default().build();
        assert!(p.validate().is_ok());
        assert_eq!(p.streams.len(), 40);
        assert_eq!(p.cluster.servers.len(), 4);
        assert_eq!(p.cluster.aps.len(), 4);
    }

    #[test]
    fn scenario_is_deterministic_per_seed() {
        let a = ScenarioConfig::default().build();
        let b = ScenarioConfig::default().build();
        assert_eq!(
            a.cluster.devices[5].distance_m,
            b.cluster.devices[5].distance_m
        );
        assert_eq!(
            a.cluster.devices[5].proc.name,
            b.cluster.devices[5].proc.name
        );
    }

    #[test]
    fn seeds_change_topology() {
        let a = ScenarioConfig::default().build();
        let cfg = ScenarioConfig {
            seed: 99,
            ..ScenarioConfig::default()
        };
        let b = cfg.build();
        let same = a
            .cluster
            .devices
            .iter()
            .zip(&b.cluster.devices)
            .filter(|(x, y)| x.distance_m == y.distance_m)
            .count();
        assert!(same < a.cluster.devices.len());
    }

    #[test]
    fn synthetic_servers_honor_count_and_cv_zero() {
        let cfg = ScenarioConfig {
            servers: ServerMix::Synthetic {
                count: 6,
                mean_fps: 1e12,
                cv: 0.0,
            },
            ..ScenarioConfig::default()
        };
        let p = cfg.build();
        assert_eq!(p.cluster.servers.len(), 6);
        for s in &p.cluster.servers {
            assert!((s.proc.flops_per_sec - 1e12).abs() < 1e6);
        }
    }

    #[test]
    fn synthetic_cv_spreads_capacities() {
        let cfg = ScenarioConfig {
            servers: ServerMix::Synthetic {
                count: 16,
                mean_fps: 1e12,
                cv: 0.5,
            },
            ..ScenarioConfig::default()
        };
        let p = cfg.build();
        let caps: Vec<f64> = p
            .cluster
            .servers
            .iter()
            .map(|s| s.proc.flops_per_sec)
            .collect();
        let mean = caps.iter().sum::<f64>() / caps.len() as f64;
        let var = caps.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / caps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(cv > 0.2, "cv {cv}");
    }

    #[test]
    fn models_round_robin_with_matching_deadlines() {
        let p = ScenarioConfig::default().build();
        assert_eq!(p.streams[0].model, 0);
        assert_eq!(p.streams[1].model, 1);
        assert_eq!(p.streams[4].model, 0);
        assert_eq!(p.streams[1].deadline_s, 0.150); // vgg16 gets the long one
    }

    #[test]
    fn fault_profile_wiring_sizes_to_topology() {
        let cfg = ScenarioConfig::default();
        let profile = FaultProfile {
            rate_hz: 0.5,
            ..FaultProfile::default()
        };
        let plan = cfg.fault_plan(&profile);
        assert!(!plan.is_empty());
        // Every target the generator picked exists in the built topology.
        assert!(plan.validate(&cfg.build().cluster).is_ok());
        // And the same profile regenerates the same plan (purity).
        assert_eq!(cfg.fault_plan(&profile), plan);
    }

    #[test]
    fn device_class_mix_is_roughly_40_30_20_10() {
        let cfg = ScenarioConfig {
            num_aps: 10,
            devices_per_ap: 40, // 400 devices for tight statistics
            ..ScenarioConfig::default()
        };
        let p = cfg.build();
        let count = |name: &str| {
            p.cluster
                .devices
                .iter()
                .filter(|d| d.proc.name == name)
                .count() as f64
                / 400.0
        };
        assert!((count("rpi4") - 0.4).abs() < 0.08);
        assert!((count("phone") - 0.3).abs() < 0.08);
        assert!((count("nano") - 0.2).abs() < 0.08);
        assert!((count("tx2") - 0.1).abs() < 0.06);
    }
}
