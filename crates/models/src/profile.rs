//! Roofline latency prediction for heterogeneous processors.
//!
//! The paper's testbed (embedded devices + GPU edge servers) is replaced by
//! calibrated analytic processors: each layer costs
//! `max(flops / compute_throughput, bytes / memory_bandwidth)` plus a small
//! per-layer launch overhead. Throughputs are *effective* (published peak ×
//! a typical conv-workload efficiency), taken from public spec sheets, so
//! the ratios between device classes — which drive every crossover in the
//! evaluation — are realistic.

use crate::graph::ModelGraph;
use serde::{Deserialize, Serialize};

/// An analytic processor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessorSpec {
    /// Human-readable name.
    pub name: String,
    /// Effective compute throughput in FLOP/s.
    pub flops_per_sec: f64,
    /// Effective memory bandwidth in bytes/s.
    pub bytes_per_sec: f64,
    /// Fixed overhead per layer launch, seconds (kernel launch / op
    /// dispatch; dominates tiny layers on GPUs).
    pub layer_overhead_s: f64,
    /// Compute energy, joules per FLOP (board power ÷ effective
    /// throughput; used by the energy accounting in the evaluator).
    pub joules_per_flop: f64,
}

impl ProcessorSpec {
    /// Construct a spec directly (energy defaults to zero; the class
    /// presets carry realistic joules-per-FLOP figures).
    pub fn new(
        name: impl Into<String>,
        flops_per_sec: f64,
        bytes_per_sec: f64,
        layer_overhead_s: f64,
    ) -> Self {
        assert!(flops_per_sec > 0.0 && bytes_per_sec > 0.0 && layer_overhead_s >= 0.0);
        Self {
            name: name.into(),
            flops_per_sec,
            bytes_per_sec,
            layer_overhead_s,
            joules_per_flop: 0.0,
        }
    }

    /// Set the compute energy from a board-power figure in watts.
    fn with_power_watts(mut self, watts: f64) -> Self {
        assert!(watts >= 0.0);
        self.joules_per_flop = watts / self.flops_per_sec;
        self
    }

    /// Energy to execute `flops` FLOPs, joules.
    #[cfg(test)]
    fn compute_energy_j(&self, flops: f64) -> f64 {
        flops * self.joules_per_flop
    }

    /// Roofline time for one kernel of `flops` FLOPs touching `bytes` bytes.
    #[inline]
    fn kernel_time(&self, flops: u64, bytes: u64) -> f64 {
        let compute = flops as f64 / self.flops_per_sec;
        let memory = bytes as f64 / self.bytes_per_sec;
        compute.max(memory) + self.layer_overhead_s
    }
}

/// Named device / server classes with calibrated effective throughputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProcessorClass {
    /// Raspberry Pi 4 class CPU (NEON fp32, ~1/3 efficiency).
    RaspberryPi4,
    /// Jetson Nano class embedded GPU.
    JetsonNano,
    /// Jetson TX2 class embedded GPU.
    JetsonTx2,
    /// Mid-range smartphone SoC (CPU+GPU mix).
    Smartphone,
    /// 16-core Xeon edge server (AVX2).
    EdgeXeon,
    /// NVIDIA T4 class edge GPU.
    EdgeGpuT4,
    /// NVIDIA V100 class edge GPU.
    EdgeGpuV100,
}

impl ProcessorClass {
    /// Every class, weakest device first.
    pub const ALL: &'static [ProcessorClass] = &[
        ProcessorClass::RaspberryPi4,
        ProcessorClass::Smartphone,
        ProcessorClass::JetsonNano,
        ProcessorClass::JetsonTx2,
        ProcessorClass::EdgeXeon,
        ProcessorClass::EdgeGpuT4,
        ProcessorClass::EdgeGpuV100,
    ];

    /// Device-side classes only.
    pub const DEVICES: &'static [ProcessorClass] = &[
        ProcessorClass::RaspberryPi4,
        ProcessorClass::Smartphone,
        ProcessorClass::JetsonNano,
        ProcessorClass::JetsonTx2,
    ];

    /// Server-side classes only.
    pub const SERVERS: &'static [ProcessorClass] = &[
        ProcessorClass::EdgeXeon,
        ProcessorClass::EdgeGpuT4,
        ProcessorClass::EdgeGpuV100,
    ];

    /// Calibrated effective spec (peak × typical conv efficiency; board
    /// power from spec sheets for the energy accounting).
    pub fn spec(self) -> ProcessorSpec {
        match self {
            // ~9.6 GFLOPS peak NEON, ~35% effective; LPDDR4 ~4 GB/s usable.
            ProcessorClass::RaspberryPi4 => {
                ProcessorSpec::new("rpi4", 3.4e9, 4.0e9, 40e-6).with_power_watts(6.0)
            }
            // big.LITTLE CPU + mobile GPU mix, ~25 GFLOPS effective.
            ProcessorClass::Smartphone => {
                ProcessorSpec::new("phone", 25.0e9, 12.0e9, 30e-6).with_power_watts(4.0)
            }
            // 472 GFLOPS fp16 peak -> ~120 GFLOPS effective fp32 conv.
            ProcessorClass::JetsonNano => {
                ProcessorSpec::new("nano", 120.0e9, 20.0e9, 60e-6).with_power_watts(8.0)
            }
            // 1.33 TFLOPS fp16 peak -> ~330 GFLOPS effective.
            ProcessorClass::JetsonTx2 => {
                ProcessorSpec::new("tx2", 330.0e9, 45.0e9, 50e-6).with_power_watts(12.0)
            }
            // 16-core AVX2 ~1 TFLOPS peak -> ~400 GFLOPS effective.
            ProcessorClass::EdgeXeon => {
                ProcessorSpec::new("xeon", 400.0e9, 70.0e9, 8e-6).with_power_watts(150.0)
            }
            // T4: 8.1 TFLOPS fp32 peak -> ~2.6 TFLOPS effective.
            ProcessorClass::EdgeGpuT4 => {
                ProcessorSpec::new("t4", 2.6e12, 250.0e9, 25e-6).with_power_watts(70.0)
            }
            // V100: 14 TFLOPS fp32 peak -> ~5 TFLOPS effective.
            ProcessorClass::EdgeGpuV100 => {
                ProcessorSpec::new("v100", 5.0e12, 750.0e9, 25e-6).with_power_watts(250.0)
            }
        }
    }
}

/// Per-model latency predictor: caches per-node roofline times for one
/// processor so prefix/suffix queries are O(1).
#[derive(Debug, Clone)]
pub struct LatencyModel {
    spec: ProcessorSpec,
    prefix_time: Vec<f64>,
}

impl LatencyModel {
    /// Precompute per-node times of `graph` on `spec`.
    pub fn new(graph: &ModelGraph, spec: ProcessorSpec) -> Self {
        let mut prefix_time = Vec::with_capacity(graph.len());
        let mut acc = 0.0;
        for node in graph.nodes() {
            acc += spec.kernel_time(graph.node_flops(node.id), graph.node_mem_bytes(node.id));
            prefix_time.push(acc);
        }
        Self { spec, prefix_time }
    }

    /// The processor this model predicts for.
    pub fn spec(&self) -> &ProcessorSpec {
        &self.spec
    }

    /// Predicted seconds to run nodes `0..boundary`.
    pub fn prefix_seconds(&self, boundary: usize) -> f64 {
        if boundary == 0 {
            0.0
        } else {
            self.prefix_time[boundary - 1]
        }
    }

    /// Predicted seconds to run nodes `boundary..n`.
    #[cfg(test)]
    fn suffix_seconds(&self, boundary: usize) -> f64 {
        self.total_seconds() - self.prefix_seconds(boundary)
    }

    /// Predicted seconds for the whole model.
    #[cfg(test)]
    fn total_seconds(&self) -> f64 {
        self.prefix_time.last().copied().unwrap_or(0.0)
    }

    /// Predicted seconds for an arbitrary extra kernel (e.g. an exit head,
    /// treated as one fused kernel whose bytes ≈ 4·flops/10 heuristic is
    /// avoided — callers pass real byte counts when they have them).
    pub fn extra_kernel_seconds(&self, flops: u64, bytes: u64) -> f64 {
        self.spec.kernel_time(flops, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn kernel_time_respects_roofline() {
        let p = ProcessorSpec::new("p", 1e9, 1e9, 0.0);
        // compute bound: 2 GFLOP / 1 GFLOPS = 2 s
        assert!((p.kernel_time(2_000_000_000, 1000) - 2.0).abs() < 1e-9);
        // memory bound: 3 GB / 1 GB/s = 3 s
        assert!((p.kernel_time(1000, 3_000_000_000) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_added_per_kernel() {
        let p = ProcessorSpec::new("p", 1e9, 1e9, 0.5);
        assert!((p.kernel_time(0, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn devices_are_slower_than_servers_on_every_model() {
        for g in zoo::standard_zoo() {
            let dev = LatencyModel::new(&g, ProcessorClass::RaspberryPi4.spec());
            let srv = LatencyModel::new(&g, ProcessorClass::EdgeGpuT4.spec());
            assert!(
                dev.total_seconds() > 10.0 * srv.total_seconds(),
                "{}: dev {} srv {}",
                g.name(),
                dev.total_seconds(),
                srv.total_seconds()
            );
        }
    }

    #[test]
    fn prefix_suffix_split_is_exact() {
        let g = zoo::alexnet(1000);
        let m = LatencyModel::new(&g, ProcessorClass::JetsonNano.spec());
        for b in 0..=g.len() {
            let sum = m.prefix_seconds(b) + m.suffix_seconds(b);
            assert!((sum - m.total_seconds()).abs() < 1e-9);
        }
    }

    #[test]
    fn energy_presets_are_sane() {
        // Devices cost far more joules per FLOP than datacenter GPUs.
        let rpi = ProcessorClass::RaspberryPi4.spec().joules_per_flop;
        let t4 = ProcessorClass::EdgeGpuT4.spec().joules_per_flop;
        assert!(rpi > 10.0 * t4, "rpi {rpi} vs t4 {t4}");
        // AlexNet on an RPi4 should cost on the order of a joule.
        let g = zoo::alexnet(1000);
        let e = ProcessorClass::RaspberryPi4
            .spec()
            .compute_energy_j(g.total_flops() as f64);
        assert!(e > 0.5 && e < 10.0, "energy {e}");
    }

    #[test]
    fn with_power_watts_divides_by_throughput() {
        let p = ProcessorSpec::new("p", 2e9, 1e9, 0.0).with_power_watts(4.0);
        assert!((p.joules_per_flop - 2e-9).abs() < 1e-18);
        assert!((p.compute_energy_j(1e9) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sanity_absolute_latencies() {
        // AlexNet on an RPi4-class CPU takes on the order of a second;
        // on a T4-class GPU on the order of milliseconds. These wide
        // brackets guard against unit mistakes (ms vs s vs us).
        let g = zoo::alexnet(1000);
        let rpi = LatencyModel::new(&g, ProcessorClass::RaspberryPi4.spec());
        assert!(rpi.total_seconds() > 0.2 && rpi.total_seconds() < 5.0);
        let t4 = LatencyModel::new(&g, ProcessorClass::EdgeGpuT4.spec());
        assert!(t4.total_seconds() > 0.5e-3 && t4.total_seconds() < 50e-3);
    }
}
