//! Early-exit heads and multi-exit model construction.
//!
//! An *exit head* is a lightweight classifier attached to an intermediate
//! node of the backbone: `conv1×1(C→C')` (only if the feature map is wide)
//! → global-average-pool → `fc(C'→classes)`. An input whose head confidence
//! clears the exit's threshold leaves the network there — on the device —
//! and never pays transmission or edge compute. This is the BranchyNet-style
//! construction the paper family (LEIME et al.) builds on.

use crate::error::{ExitErrorKind, ModelError};
use crate::graph::{ModelGraph, NodeId};
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

/// One exit attached to the backbone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExitPoint {
    /// Backbone node whose output feeds the head (the exit "host").
    pub node: NodeId,
    /// Head computation.
    pub head: ExitHead,
    /// Confidence threshold in `[0, 1)`: an input exits here if the head's
    /// top-1 confidence is at least this value.
    pub threshold: f64,
    /// Fraction of backbone FLOPs completed at this exit's host (cached).
    pub depth_fraction: f64,
}

/// A backbone plus an ordered set of early exits.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiExitModel {
    base: ModelGraph,
    exits: Vec<ExitPoint>,
}

impl MultiExitModel {
    /// Attach heads at the given `(node, threshold)` positions. Exits are
    /// sorted by position; hosts must exist and must not be the final node
    /// (an exit there would duplicate the model's own classifier).
    pub fn new(
        base: ModelGraph,
        positions: &[(NodeId, f64)],
        classes: usize,
    ) -> Result<Self, ModelError> {
        let mut exits = Vec::with_capacity(positions.len());
        for &(node, threshold) in positions {
            if node >= base.len() {
                return Err(ModelError::InvalidExit {
                    node,
                    kind: ExitErrorKind::MissingNode,
                });
            }
            if node + 1 == base.len() {
                return Err(ModelError::InvalidExit {
                    node,
                    kind: ExitErrorKind::FinalClassifier,
                });
            }
            if !(0.0..1.0).contains(&threshold) {
                return Err(ModelError::InvalidExit {
                    node,
                    kind: ExitErrorKind::ThresholdOutOfRange { threshold },
                });
            }
            let feature = base.shape(node);
            exits.push(ExitPoint {
                node,
                head: ExitHead::standard(feature, classes),
                threshold,
                depth_fraction: base.depth_fraction(node + 1),
            });
        }
        exits.sort_by_key(|e| e.node);
        for w in exits.windows(2) {
            if w[0].node == w[1].node {
                return Err(ModelError::InvalidExit {
                    node: w[0].node,
                    kind: ExitErrorKind::DuplicateHost,
                });
            }
        }
        Ok(Self { base, exits })
    }

    /// A multi-exit model with no exits (plain backbone).
    pub fn plain(base: ModelGraph) -> Self {
        Self {
            base,
            exits: Vec::new(),
        }
    }

    /// The backbone.
    pub fn base(&self) -> &ModelGraph {
        &self.base
    }

    /// Exits in ascending host order.
    pub fn exits(&self) -> &[ExitPoint] {
        &self.exits
    }

    /// Number of exits.
    pub fn num_exits(&self) -> usize {
        self.exits.len()
    }

    /// Backbone + all-head FLOPs if every exit head were evaluated and the
    /// input still ran to the end (the worst case).
    #[cfg(test)]
    fn worst_case_flops(&self) -> u64 {
        self.base.total_flops() + self.exits.iter().map(|e| e.head.flops).sum::<u64>()
    }

    /// Cumulative FLOPs for an input that leaves at exit index `i`
    /// (backbone prefix through the host + every head up to and including
    /// `i`, since earlier heads were evaluated and declined).
    #[cfg(test)]
    fn flops_to_exit(&self, i: usize) -> u64 {
        let e = &self.exits[i];
        self.base.prefix_flops(e.node + 1)
            + self.exits[..=i].iter().map(|x| x.head.flops).sum::<u64>()
    }

    /// The `(depth_fraction, threshold)` pairs consumed by the
    /// difficulty/behavior model.
    pub fn exit_profile(&self) -> Vec<(f64, f64)> {
        self.exits
            .iter()
            .map(|e| (e.depth_fraction, e.threshold))
            .collect()
    }

    /// Indices of exits whose host lies strictly inside the device prefix
    /// of a cut at `boundary` (only those can fire before transmission).
    pub fn device_side_exits(&self, boundary: usize) -> Vec<usize> {
        self.exits
            .iter()
            .enumerate()
            .filter(|(_, e)| e.node < boundary)
            .map(|(i, _)| i)
            .collect()
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

    #[test]
    fn multi_exit_construction_and_ordering() {
        let g = zoo::lenet5(10);
        // attach out of order; must come back sorted
        let me = MultiExitModel::new(g, &[(5, 0.8), (2, 0.6)], 10).unwrap();
        assert_eq!(me.num_exits(), 2);
        assert_eq!(me.exits()[0].node, 2);
        assert_eq!(me.exits()[1].node, 5);
        assert!(me.exits()[0].depth_fraction < me.exits()[1].depth_fraction);
    }

    #[test]
    fn invalid_exits_rejected() {
        let g = zoo::lenet5(10);
        assert!(MultiExitModel::new(g.clone(), &[(999, 0.5)], 10).is_err());
        let last = g.len() - 1;
        assert!(MultiExitModel::new(g.clone(), &[(last, 0.5)], 10).is_err());
        assert!(MultiExitModel::new(g.clone(), &[(2, 1.5)], 10).is_err());
        assert!(MultiExitModel::new(g, &[(2, 0.5), (2, 0.6)], 10).is_err());
    }

    #[test]
    fn flops_to_exit_is_increasing_and_bounded() {
        let g = zoo::alexnet(1000);
        let me = MultiExitModel::new(g, &[(3, 0.7), (7, 0.7), (15, 0.7)], 1000).unwrap();
        let mut prev = 0;
        for i in 0..me.num_exits() {
            let f = me.flops_to_exit(i);
            assert!(f > prev);
            assert!(f < me.worst_case_flops());
            prev = f;
        }
        assert!(me.worst_case_flops() > me.base().total_flops());
    }

    #[test]
    fn device_side_exit_filtering() {
        let g = zoo::alexnet(1000);
        let me = MultiExitModel::new(g, &[(3, 0.7), (7, 0.7), (15, 0.7)], 1000).unwrap();
        assert_eq!(me.device_side_exits(0), Vec::<usize>::new());
        assert_eq!(me.device_side_exits(4), vec![0]);
        assert_eq!(me.device_side_exits(8), vec![0, 1]);
        assert_eq!(me.device_side_exits(16), vec![0, 1, 2]);
    }
}
