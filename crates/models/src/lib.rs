//! # scalpel-models — DNN model substrate
//!
//! This crate provides everything `scalpel` needs to know about the *models*
//! being served in the heterogeneous edge:
//!
//! * [`tensor`] — feature-map shapes and datatype accounting,
//! * [`layer`] — layer kinds with exact FLOPs / parameter / output-shape math,
//! * [`graph`] — layer DAGs with topological ordering, validation and
//!   single-tensor *cut point* enumeration (the partition candidates used by
//!   model surgery),
//! * [`zoo`] — faithful layer-by-layer reconstructions of the classic
//!   backbones the paper family evaluates (AlexNet, VGG-16, ResNet-18/50,
//!   MobileNet-V2, plus a tiny LeNet-5 for tests),
//! * [`exits`] — early-exit heads,
//! * [`profile`] — roofline latency predictors for heterogeneous processors,
//! * [`difficulty`] — the input-difficulty / exit-confidence model that maps
//!   confidence thresholds to per-exit exit probabilities and accuracies.
//!
//! The optimizer in `scalpel-core` consumes only the *profiles* produced
//! here (FLOPs, bytes, exit probabilities, accuracies, predicted latencies);
//! no weights are involved. See DESIGN.md §3 for the substitution rationale.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod difficulty;
pub mod error;
pub mod exits;
pub mod graph;
pub mod layer;
pub mod profile;
pub mod summary;
pub mod tensor;
pub mod zoo;

pub use difficulty::{DepthCache, DifficultyModel, ExitBehavior};
pub use error::{ExitErrorKind, ModelError, ShapeErrorKind};
pub use exits::ExitHead;
pub use graph::{CutPoint, GraphBuilder, ModelGraph, Node, NodeId, INPUT};
pub use layer::{Activation, LayerKind, PoolKind};
pub use profile::{LatencyModel, ProcessorClass, ProcessorSpec};
pub use tensor::{DType, TensorShape};
