//! Error type shared by the model substrate.

use crate::tensor::TensorShape;
use std::fmt;

/// Precisely which shape rule a layer's input violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeErrorKind {
    /// A convolution received the wrong number of input channels.
    ChannelMismatch {
        /// Channels the layer expects.
        expected: usize,
        /// Channels actually received.
        actual: usize,
    },
    /// Grouped convolution whose groups do not divide the channel counts.
    InvalidGrouping {
        /// The group count (zero is invalid outright).
        groups: usize,
        /// Input channels.
        in_c: usize,
        /// Output channels.
        out_c: usize,
    },
    /// A conv/pool window larger than its input plane.
    WindowTooLarge {
        /// Kernel size.
        kernel: usize,
        /// Input height.
        h: usize,
        /// Input width.
        w: usize,
    },
    /// A linear layer received the wrong flattened feature count.
    FeatureMismatch {
        /// Features the layer expects.
        expected: usize,
        /// Features actually received.
        actual: usize,
    },
    /// A multi-input op (`Add`/`Concat`) received disagreeing shapes.
    ShapeDisagreement {
        /// The op name ("add" or "concat").
        op: &'static str,
        /// Shape of the first input.
        first: TensorShape,
        /// The disagreeing shape.
        other: TensorShape,
    },
}

impl fmt::Display for ShapeErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeErrorKind::ChannelMismatch { expected, actual } => {
                write!(f, "conv expects {expected} input channels, got {actual}")
            }
            ShapeErrorKind::InvalidGrouping {
                groups,
                in_c,
                out_c,
            } => {
                write!(
                    f,
                    "groups={groups} must divide in_c={in_c} and out_c={out_c}"
                )
            }
            ShapeErrorKind::WindowTooLarge { kernel, h, w } => {
                write!(f, "window {kernel} larger than input {h}x{w}")
            }
            ShapeErrorKind::FeatureMismatch { expected, actual } => {
                write!(f, "linear expects {expected} features, got {actual}")
            }
            ShapeErrorKind::ShapeDisagreement { op, first, other } => {
                write!(f, "{op} inputs differ: {first} vs {other}")
            }
        }
    }
}

/// Precisely why an exit cannot be attached where requested.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExitErrorKind {
    /// The confidence threshold is outside `[0, 1)`.
    ThresholdOutOfRange {
        /// The offending threshold.
        threshold: f64,
    },
    /// The host does not precede the partition cut.
    HostAfterCut {
        /// The cut position the host must precede.
        cut: usize,
    },
}

impl fmt::Display for ExitErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExitErrorKind::ThresholdOutOfRange { threshold } => {
                write!(f, "threshold {threshold} outside [0,1)")
            }
            ExitErrorKind::HostAfterCut { cut } => {
                write!(f, "exit host must precede the cut at {cut}")
            }
        }
    }
}

/// Errors raised while building or analyzing model graphs.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A node referenced an input id that does not exist (or is not earlier
    /// in topological order).
    DanglingInput {
        /// The node whose input reference is invalid.
        node: usize,
        /// The invalid input id.
        input: usize,
    },
    /// A layer received an input shape it cannot process.
    ShapeMismatch {
        /// The offending node id.
        node: usize,
        /// Which shape rule was violated.
        kind: ShapeErrorKind,
    },
    /// A layer has the wrong number of inputs (e.g. `Add` with one input).
    ArityMismatch {
        /// The offending node id.
        node: usize,
        /// Expected input count description.
        expected: &'static str,
        /// Actual input count.
        actual: usize,
    },
    /// The graph is empty or has no output.
    EmptyGraph,
    /// A cut was requested at a position that is not a valid cut point.
    InvalidCut {
        /// The requested boundary position.
        position: usize,
    },
    /// A plan places an exit where it cannot fire.
    InvalidExit {
        /// The requested host node.
        node: usize,
        /// Why the exit cannot be attached there.
        kind: ExitErrorKind,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::DanglingInput { node, input } => {
                write!(f, "node {node} references dangling input {input}")
            }
            ModelError::ShapeMismatch { node, kind } => {
                write!(f, "shape mismatch at node {node}: {kind}")
            }
            ModelError::ArityMismatch {
                node,
                expected,
                actual,
            } => write!(
                f,
                "node {node} expects {expected} input(s) but received {actual}"
            ),
            ModelError::EmptyGraph => write!(f, "model graph is empty"),
            ModelError::InvalidCut { position } => {
                write!(f, "position {position} is not a valid single-tensor cut")
            }
            ModelError::InvalidExit { node, kind } => {
                write!(f, "cannot attach exit at node {node}: {kind}")
            }
        }
    }
}

impl std::error::Error for ModelError {}
