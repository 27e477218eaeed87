//! Layer kinds with exact FLOPs / parameter / output-shape accounting.
//!
//! Conventions:
//! * FLOPs count multiply–accumulate as **2 FLOPs** (the common convention in
//!   the split-computing literature; Neurosurgeon and follow-ups use the
//!   same, so relative layer costs match published profiles).
//! * Shapes are batch-1; see [`crate::tensor`].
//! * `memory_bytes` is the roofline traffic estimate: inputs + outputs +
//!   parameters, in the given datatype — used by
//!   [`crate::profile::ProcessorSpec`] to decide compute- vs memory-bound.

use crate::error::{ModelError, ShapeErrorKind};
use crate::tensor::{DType, TensorShape};
use serde::{Deserialize, Serialize};

/// Pooling flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PoolKind {
    /// Max pooling (compare per window element).
    Max,
    /// Average pooling (add per window element).
    Avg,
}

/// Elementwise activation flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// ReLU clipped at 6 (MobileNet family).
    Relu6,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Softmax over the channel dimension.
    Softmax,
}

/// One layer of a model graph.
///
/// Multi-input layers (`Add`, `Concat`) consume every input listed on their
/// graph node; all others are single-input.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerKind {
    /// 2-D convolution. `groups == in_c == out_c` encodes a depthwise conv.
    Conv2d {
        /// Input channels.
        in_c: usize,
        /// Output channels.
        out_c: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
        /// Channel groups (1 = dense, `in_c` = depthwise).
        groups: usize,
        /// Whether a bias vector is present.
        bias: bool,
    },
    /// Fully-connected layer.
    Linear {
        /// Input features.
        in_f: usize,
        /// Output features.
        out_f: usize,
        /// Whether a bias vector is present.
        bias: bool,
    },
    /// Spatial pooling.
    Pool {
        /// Max or average.
        kind: PoolKind,
        /// Square window size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
    },
    /// Global average pooling to `C × 1 × 1`.
    GlobalAvgPool,
    /// Batch normalization (inference: scale + shift per channel).
    BatchNorm,
    /// Local response normalization (AlexNet).
    Lrn,
    /// Elementwise activation.
    Act(Activation),
    /// Elementwise addition of ≥2 same-shaped inputs (residual join).
    Add,
    /// Channel-wise concatenation of ≥2 inputs with equal spatial dims.
    Concat,
    /// Flatten to a vector.
    Flatten,
    /// Dropout — identity at inference time (kept so zoo graphs mirror the
    /// published architectures layer-for-layer).
    Dropout,
}

impl LayerKind {
    /// Compute the output shape from the input shapes.
    pub fn output_shape(
        &self,
        node: usize,
        inputs: &[TensorShape],
    ) -> Result<TensorShape, ModelError> {
        let single = |inputs: &[TensorShape]| -> Result<TensorShape, ModelError> {
            if inputs.len() != 1 {
                return Err(ModelError::ArityMismatch {
                    node,
                    expected: "exactly 1",
                    actual: inputs.len(),
                });
            }
            Ok(inputs[0])
        };
        match *self {
            LayerKind::Conv2d {
                in_c,
                out_c,
                kernel,
                stride,
                padding,
                groups,
                ..
            } => {
                let x = single(inputs)?;
                if x.c != in_c {
                    return Err(ModelError::ShapeMismatch {
                        node,
                        kind: ShapeErrorKind::ChannelMismatch {
                            expected: in_c,
                            actual: x.c,
                        },
                    });
                }
                if groups == 0 || in_c % groups != 0 || out_c % groups != 0 {
                    return Err(ModelError::ShapeMismatch {
                        node,
                        kind: ShapeErrorKind::InvalidGrouping {
                            groups,
                            in_c,
                            out_c,
                        },
                    });
                }
                let h = TensorShape::conv_out(x.h, kernel, stride, padding);
                let w = TensorShape::conv_out(x.w, kernel, stride, padding);
                if h == 0 || w == 0 {
                    return Err(ModelError::ShapeMismatch {
                        node,
                        kind: ShapeErrorKind::WindowTooLarge {
                            kernel,
                            h: x.h,
                            w: x.w,
                        },
                    });
                }
                Ok(TensorShape::chw(out_c, h, w))
            }
            LayerKind::Linear { in_f, out_f, .. } => {
                let x = single(inputs)?;
                if x.elements() != in_f {
                    return Err(ModelError::ShapeMismatch {
                        node,
                        kind: ShapeErrorKind::FeatureMismatch {
                            expected: in_f,
                            actual: x.elements(),
                        },
                    });
                }
                Ok(TensorShape::flat(out_f))
            }
            LayerKind::Pool {
                kernel,
                stride,
                padding,
                ..
            } => {
                let x = single(inputs)?;
                let h = TensorShape::conv_out(x.h, kernel, stride, padding);
                let w = TensorShape::conv_out(x.w, kernel, stride, padding);
                if h == 0 || w == 0 {
                    return Err(ModelError::ShapeMismatch {
                        node,
                        kind: ShapeErrorKind::WindowTooLarge {
                            kernel,
                            h: x.h,
                            w: x.w,
                        },
                    });
                }
                Ok(TensorShape::chw(x.c, h, w))
            }
            LayerKind::GlobalAvgPool => {
                let x = single(inputs)?;
                Ok(TensorShape::chw(x.c, 1, 1))
            }
            LayerKind::BatchNorm | LayerKind::Lrn | LayerKind::Act(_) | LayerKind::Dropout => {
                single(inputs)
            }
            LayerKind::Add => {
                if inputs.len() < 2 {
                    return Err(ModelError::ArityMismatch {
                        node,
                        expected: "2 or more",
                        actual: inputs.len(),
                    });
                }
                let first = inputs[0];
                for x in &inputs[1..] {
                    if *x != first {
                        return Err(ModelError::ShapeMismatch {
                            node,
                            kind: ShapeErrorKind::ShapeDisagreement {
                                op: "add",
                                first,
                                other: *x,
                            },
                        });
                    }
                }
                Ok(first)
            }
            LayerKind::Concat => {
                if inputs.len() < 2 {
                    return Err(ModelError::ArityMismatch {
                        node,
                        expected: "2 or more",
                        actual: inputs.len(),
                    });
                }
                let first = inputs[0];
                let mut c = first.c;
                for x in &inputs[1..] {
                    if x.h != first.h || x.w != first.w {
                        return Err(ModelError::ShapeMismatch {
                            node,
                            kind: ShapeErrorKind::ShapeDisagreement {
                                op: "concat",
                                first,
                                other: *x,
                            },
                        });
                    }
                    c += x.c;
                }
                Ok(TensorShape::chw(c, first.h, first.w))
            }
            LayerKind::Flatten => {
                let x = single(inputs)?;
                Ok(TensorShape::flat(x.elements()))
            }
        }
    }

    /// FLOPs to compute the layer given input shapes and the (already
    /// validated) output shape. MAC = 2 FLOPs.
    pub fn flops(&self, inputs: &[TensorShape], output: TensorShape) -> u64 {
        let out_elems = output.elements() as u64;
        match *self {
            LayerKind::Conv2d {
                in_c,
                kernel,
                groups,
                bias,
                ..
            } => {
                let macs_per_out = (in_c / groups) as u64 * (kernel * kernel) as u64;
                let mut f = 2 * out_elems * macs_per_out;
                if bias {
                    f += out_elems;
                }
                f
            }
            LayerKind::Linear { in_f, bias, .. } => {
                let mut f = 2 * out_elems * in_f as u64;
                if bias {
                    f += out_elems;
                }
                f
            }
            LayerKind::Pool { kernel, .. } => out_elems * (kernel * kernel) as u64,
            LayerKind::GlobalAvgPool => inputs.first().map_or(0, |x| x.elements() as u64),
            LayerKind::BatchNorm => 2 * out_elems,
            LayerKind::Lrn => 6 * out_elems,
            LayerKind::Act(Activation::Softmax) => 5 * out_elems,
            LayerKind::Act(_) => out_elems,
            LayerKind::Add => {
                let n = inputs.len().saturating_sub(1) as u64;
                n * out_elems
            }
            LayerKind::Concat | LayerKind::Flatten | LayerKind::Dropout => 0,
        }
    }

    /// Number of learned parameters.
    pub fn params(&self, inputs: &[TensorShape]) -> u64 {
        match *self {
            LayerKind::Conv2d {
                in_c,
                out_c,
                kernel,
                groups,
                bias,
                ..
            } => {
                let w = (out_c as u64) * (in_c / groups) as u64 * (kernel * kernel) as u64;
                w + if bias { out_c as u64 } else { 0 }
            }
            LayerKind::Linear { in_f, out_f, bias } => {
                (out_f as u64) * (in_f as u64) + if bias { out_f as u64 } else { 0 }
            }
            // scale + shift per channel
            LayerKind::BatchNorm => inputs.first().map_or(0, |x| 2 * x.c as u64),
            _ => 0,
        }
    }

    /// Roofline memory-traffic estimate in bytes: inputs read + output
    /// written + parameters streamed, in `dtype`.
    pub fn memory_bytes(&self, inputs: &[TensorShape], output: TensorShape, dtype: DType) -> u64 {
        let io: u64 =
            inputs.iter().map(|s| s.bytes(dtype) as u64).sum::<u64>() + output.bytes(dtype) as u64;
        io + self.params(inputs) * dtype.bytes_per_element() as u64
    }

    /// Short lowercase tag for display / labels.
    pub fn tag(&self) -> &'static str {
        match self {
            LayerKind::Conv2d { groups, in_c, .. } if *groups == *in_c && *groups > 1 => "dwconv",
            LayerKind::Conv2d { .. } => "conv",
            LayerKind::Linear { .. } => "fc",
            LayerKind::Pool {
                kind: PoolKind::Max,
                ..
            } => "maxpool",
            LayerKind::Pool {
                kind: PoolKind::Avg,
                ..
            } => "avgpool",
            LayerKind::GlobalAvgPool => "gap",
            LayerKind::BatchNorm => "bn",
            LayerKind::Lrn => "lrn",
            LayerKind::Act(Activation::Relu) => "relu",
            LayerKind::Act(Activation::Relu6) => "relu6",
            LayerKind::Act(Activation::Sigmoid) => "sigmoid",
            LayerKind::Act(Activation::Tanh) => "tanh",
            LayerKind::Act(Activation::Softmax) => "softmax",
            LayerKind::Add => "add",
            LayerKind::Concat => "concat",
            LayerKind::Flatten => "flatten",
            LayerKind::Dropout => "dropout",
        }
    }
}

/// Convenience constructor: dense conv with bias.
pub fn conv(in_c: usize, out_c: usize, kernel: usize, stride: usize, padding: usize) -> LayerKind {
    LayerKind::Conv2d {
        in_c,
        out_c,
        kernel,
        stride,
        padding,
        groups: 1,
        bias: true,
    }
}

/// Convenience constructor: dense conv without bias (typical before BN).
pub fn conv_nb(
    in_c: usize,
    out_c: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> LayerKind {
    LayerKind::Conv2d {
        in_c,
        out_c,
        kernel,
        stride,
        padding,
        groups: 1,
        bias: false,
    }
}

/// Convenience constructor: depthwise conv without bias.
pub fn dwconv(channels: usize, kernel: usize, stride: usize, padding: usize) -> LayerKind {
    LayerKind::Conv2d {
        in_c: channels,
        out_c: channels,
        kernel,
        stride,
        padding,
        groups: channels,
        bias: false,
    }
}

/// Convenience constructor: fully-connected layer with bias.
pub fn linear(in_f: usize, out_f: usize) -> LayerKind {
    LayerKind::Linear {
        in_f,
        out_f,
        bias: true,
    }
}

/// Convenience constructor: max pool.
pub fn maxpool(kernel: usize, stride: usize) -> LayerKind {
    LayerKind::Pool {
        kind: PoolKind::Max,
        kernel,
        stride,
        padding: 0,
    }
}

/// Convenience constructor: ReLU.
pub fn relu() -> LayerKind {
    LayerKind::Act(Activation::Relu)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape_of(k: &LayerKind, input: TensorShape) -> TensorShape {
        k.output_shape(0, &[input]).unwrap()
    }

    #[test]
    fn conv_shape_and_flops_alexnet_conv1() {
        // AlexNet conv1: 3->64 (torchvision), k=11, s=4, p=2 on 224x224.
        let k = conv(3, 64, 11, 4, 2);
        let out = shape_of(&k, TensorShape::chw(3, 224, 224));
        assert_eq!(out, TensorShape::chw(64, 55, 55));
        let flops = k.flops(&[TensorShape::chw(3, 224, 224)], out);
        // 2 * 64*55*55 * 3*11*11 + bias
        assert_eq!(flops, 2 * 64 * 55 * 55 * 3 * 121 + 64 * 55 * 55);
        assert_eq!(
            k.params(&[TensorShape::chw(3, 224, 224)]),
            64 * 3 * 121 + 64
        );
    }

    #[test]
    fn depthwise_conv_flops_scale_with_groups() {
        let input = TensorShape::chw(32, 112, 112);
        let dw = dwconv(32, 3, 1, 1);
        let out = shape_of(&dw, input);
        assert_eq!(out, input);
        // per-output MACs = (in_c/groups)*k*k = 9
        assert_eq!(dw.flops(&[input], out), 2 * (32 * 112 * 112) as u64 * 9);
        assert_eq!(dw.params(&[input]), 32 * 9);
    }

    #[test]
    fn linear_shape_flops_params() {
        let k = linear(4096, 1000);
        let out = shape_of(&k, TensorShape::flat(4096));
        assert_eq!(out, TensorShape::flat(1000));
        assert_eq!(
            k.flops(&[TensorShape::flat(4096)], out),
            2 * 1000 * 4096 + 1000
        );
        assert_eq!(k.params(&[TensorShape::flat(4096)]), 1000 * 4096 + 1000);
    }

    #[test]
    fn add_requires_matching_shapes() {
        let a = TensorShape::chw(64, 56, 56);
        let b = TensorShape::chw(64, 56, 56);
        let c = TensorShape::chw(64, 28, 28);
        assert_eq!(LayerKind::Add.output_shape(0, &[a, b]).unwrap(), a);
        assert!(LayerKind::Add.output_shape(0, &[a, c]).is_err());
        assert!(matches!(
            LayerKind::Add.output_shape(0, &[a]),
            Err(ModelError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn concat_sums_channels() {
        let a = TensorShape::chw(64, 28, 28);
        let b = TensorShape::chw(96, 28, 28);
        assert_eq!(
            LayerKind::Concat.output_shape(0, &[a, b]).unwrap(),
            TensorShape::chw(160, 28, 28)
        );
        let c = TensorShape::chw(96, 14, 14);
        assert!(LayerKind::Concat.output_shape(0, &[a, c]).is_err());
    }

    #[test]
    fn flatten_and_gap() {
        let x = TensorShape::chw(512, 7, 7);
        assert_eq!(
            LayerKind::Flatten.output_shape(0, &[x]).unwrap(),
            TensorShape::flat(512 * 49)
        );
        assert_eq!(
            LayerKind::GlobalAvgPool.output_shape(0, &[x]).unwrap(),
            TensorShape::chw(512, 1, 1)
        );
    }

    #[test]
    fn wrong_channel_count_is_rejected() {
        let k = conv(3, 64, 3, 1, 1);
        assert!(k.output_shape(0, &[TensorShape::chw(4, 32, 32)]).is_err());
    }

    #[test]
    fn zero_flop_layers() {
        let x = TensorShape::chw(16, 8, 8);
        for k in [LayerKind::Flatten, LayerKind::Dropout, LayerKind::Concat] {
            let ins = if matches!(k, LayerKind::Concat) {
                vec![x, x]
            } else {
                vec![x]
            };
            let out = k.output_shape(0, &ins).unwrap();
            assert_eq!(k.flops(&ins, out), 0, "{}", k.tag());
        }
    }

    #[test]
    fn memory_bytes_includes_params() {
        let k = linear(100, 10);
        let input = TensorShape::flat(100);
        let out = k.output_shape(0, &[input]).unwrap();
        let bytes = k.memory_bytes(&[input], out, DType::F32);
        assert_eq!(bytes, (100 + 10) * 4 + (100 * 10 + 10) * 4);
    }

    #[test]
    fn invalid_groups_rejected() {
        let k = LayerKind::Conv2d {
            in_c: 10,
            out_c: 20,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 3,
            bias: false,
        };
        assert!(k.output_shape(0, &[TensorShape::chw(10, 8, 8)]).is_err());
    }
}
