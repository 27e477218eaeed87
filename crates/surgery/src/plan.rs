//! The surgery plan: one stream's restructuring of its backbone.

use crate::pruning::PruneLevel;
use scalpel_models::{ExitErrorKind, ModelError, ModelGraph, NodeId};
use serde::{Deserialize, Serialize};

/// A complete model-surgery decision for one stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurgeryPlan {
    /// Cut boundary: nodes `0..cut` run on the device, `cut..n` on the edge.
    pub cut: usize,
    /// Early exits as `(host node, confidence threshold)`; hosts must lie
    /// strictly inside the device prefix so they can fire before
    /// transmission.
    pub exits: Vec<(NodeId, f64)>,
    /// Structured pruning applied to the device prefix.
    pub prune: PruneLevel,
    /// Quantize the cut tensor to int8 before transmission (4× fewer
    /// bytes for f32 activations, ~0.5 pp accuracy cost on the full path).
    pub quantize_tx: bool,
}

/// Accuracy cost of int8-quantizing the cut tensor (calibrated to
/// post-training activation-quantization results).
pub const QUANTIZE_TX_ACC_COST: f64 = 0.005;

/// Byte shrink factor of int8 transmission relative to f32 activations.
pub const QUANTIZE_TX_SHRINK: f64 = 4.0;

impl SurgeryPlan {
    /// The no-surgery plan: full offload, no exits, no pruning.
    pub fn full_offload() -> Self {
        Self {
            cut: 0,
            exits: Vec::new(),
            prune: PruneLevel::None,
            quantize_tx: false,
        }
    }

    /// Run everything on the device, no exits, no pruning.
    #[cfg(test)]
    pub fn device_only(model: &ModelGraph) -> Self {
        Self {
            cut: model.len(),
            exits: Vec::new(),
            prune: PruneLevel::None,
            quantize_tx: false,
        }
    }

    /// A plain partition at `cut` (Neurosurgeon-style), no exits.
    pub fn partition(cut: usize) -> Self {
        Self {
            cut,
            exits: Vec::new(),
            prune: PruneLevel::None,
            quantize_tx: false,
        }
    }

    /// Check the plan against its model: the cut must be a valid
    /// single-tensor boundary and every exit host must precede the cut.
    pub fn validate(&self, model: &ModelGraph) -> Result<(), ModelError> {
        model.validate_cut(self.cut)?;
        for &(host, threshold) in &self.exits {
            if host >= self.cut {
                return Err(ModelError::InvalidExit {
                    node: host,
                    kind: ExitErrorKind::HostAfterCut { cut: self.cut },
                });
            }
            if !(0.0..1.0).contains(&threshold) {
                return Err(ModelError::InvalidExit {
                    node: host,
                    kind: ExitErrorKind::ThresholdOutOfRange { threshold },
                });
            }
        }
        Ok(())
    }

    /// Bytes crossing the cut (0 for device-only).
    #[cfg(test)]
    pub fn tx_bytes(&self, model: &ModelGraph) -> usize {
        model.crossing_bytes(self.cut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalpel_models::zoo;

    #[test]
    fn full_offload_and_device_only_validate_on_all_models() {
        for name in zoo::ALL_NAMES {
            let g = zoo::by_name(name).unwrap();
            assert!(SurgeryPlan::full_offload().validate(&g).is_ok(), "{name}");
            assert!(SurgeryPlan::device_only(&g).validate(&g).is_ok(), "{name}");
        }
    }

    #[test]
    fn exit_after_cut_is_rejected() {
        let g = zoo::lenet5(10);
        let plan = SurgeryPlan {
            cut: 3,
            exits: vec![(5, 0.8)],
            prune: PruneLevel::None,
            quantize_tx: false,
        };
        assert!(plan.validate(&g).is_err());
        let ok = SurgeryPlan {
            cut: 6,
            exits: vec![(2, 0.8)],
            prune: PruneLevel::None,
            quantize_tx: false,
        };
        assert!(ok.validate(&g).is_ok());
    }

    #[test]
    fn invalid_cut_is_rejected() {
        let g = zoo::resnet18(1000);
        // boundary 6 lands inside the first basic block (two live tensors).
        let bad = SurgeryPlan::partition(6);
        assert!(bad.validate(&g).is_err());
    }

    #[test]
    fn tx_bytes_zero_when_device_only() {
        let g = zoo::lenet5(10);
        assert_eq!(SurgeryPlan::device_only(&g).tx_bytes(&g), 0);
        assert!(SurgeryPlan::full_offload().tx_bytes(&g) > 0);
    }

    #[test]
    fn threshold_out_of_range_is_rejected() {
        let g = zoo::lenet5(10);
        let plan = SurgeryPlan {
            cut: 6,
            exits: vec![(2, 1.0)],
            prune: PruneLevel::None,
            quantize_tx: false,
        };
        assert!(plan.validate(&g).is_err());
    }
}
