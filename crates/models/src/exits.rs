//! Early-exit heads.
//!
//! An *exit head* is a lightweight classifier attached to an intermediate
//! node of the backbone: `conv1×1(C→C')` (only if the feature map is wide)
//! → global-average-pool → `fc(C'→classes)`. An input whose head confidence
//! clears the exit's threshold leaves the network there — on the device —
//! and never pays transmission or edge compute. This is the BranchyNet-style
//! construction the paper family (LEIME et al.) builds on.

use crate::tensor::TensorShape;
use serde::{Deserialize, Serialize};

/// Maximum channel width the 1×1 reducing conv leaves in an exit head.
const HEAD_REDUCE_CHANNELS: usize = 128;

/// The computation performed by one exit head.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExitHead {
    /// Feature-map shape the head consumes.
    pub feature: TensorShape,
    /// Channels after the optional 1×1 reduction (== `feature.c` if none).
    pub reduced_c: usize,
    /// Classifier width.
    pub classes: usize,
    /// Total FLOPs of the head.
    pub flops: u64,
    /// Learned parameters of the head.
    pub params: u64,
}

impl ExitHead {
    /// Build the standard head for a feature map: reduce wide maps with a
    /// 1×1 conv to ≤128 channels, then GAP, then a linear classifier.
    pub fn standard(feature: TensorShape, classes: usize) -> Self {
        let needs_reduce = feature.c > HEAD_REDUCE_CHANNELS && !feature.is_flat();
        let reduced_c = if needs_reduce {
            HEAD_REDUCE_CHANNELS
        } else {
            feature.c
        };
        let mut flops = 0u64;
        let mut params = 0u64;
        if needs_reduce {
            // 1x1 conv feature.c -> reduced_c over h*w positions (+bias).
            let outs = (reduced_c * feature.h * feature.w) as u64;
            flops += 2 * outs * feature.c as u64 + outs;
            params += (reduced_c * feature.c + reduced_c) as u64;
        }
        // Global average pool over the (possibly reduced) map.
        flops += (reduced_c * feature.h * feature.w) as u64;
        // Linear reduced_c -> classes (+bias) and softmax.
        flops += 2 * (classes * reduced_c) as u64 + classes as u64 + 5 * classes as u64;
        params += (classes * reduced_c + classes) as u64;
        Self {
            feature,
            reduced_c,
            classes,
            flops,
            params,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn head_with_reduction_for_wide_maps() {
        let h = ExitHead::standard(TensorShape::chw(256, 13, 13), 1000);
        assert_eq!(h.reduced_c, 128);
        assert!(h.params > 0);
        // reduce conv params + fc params
        assert_eq!(
            h.params,
            (128 * 256 + 128) as u64 + (1000 * 128 + 1000) as u64
        );
    }

    #[test]
    fn head_without_reduction_for_narrow_maps() {
        let h = ExitHead::standard(TensorShape::chw(64, 56, 56), 1000);
        assert_eq!(h.reduced_c, 64);
        assert_eq!(h.params, (1000 * 64 + 1000) as u64);
    }

    #[test]
    fn exit_heads_are_cheap_relative_to_backbone() {
        let g = zoo::alexnet(1000);
        let total = g.total_flops();
        for cut in g.cut_points() {
            if cut.boundary == 0 || cut.boundary == g.len() {
                continue;
            }
            let h = ExitHead::standard(g.shape(cut.boundary - 1), 1000);
            assert!(
                h.flops * 20 < total,
                "head at {} too expensive: {} vs {}",
                cut.boundary,
                h.flops,
                total
            );
        }
    }
}
