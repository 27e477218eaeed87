//! Layer DAGs: construction, validation, shape/FLOPs inference, and
//! enumeration of the single-tensor *cut points* used by model surgery.
//!
//! Nodes are stored in topological order by construction: a node may only
//! reference earlier nodes (or the graph input), which makes the structure
//! acyclic by induction and makes "cut after position *k*" a well-defined
//! partition of the computation.

use crate::error::ModelError;
use crate::layer::LayerKind;
use crate::tensor::{DType, TensorShape};
use serde::{Deserialize, Serialize};

/// Index of a node within a [`ModelGraph`].
pub type NodeId = usize;

// Referenced only from the `#[serde(default = ...)]` attribute below; the
// offline serde stub discards those attributes, so silence the dead-code
// lint instead of deleting the deserialization default.
#[allow(dead_code)]
fn default_input_dtype() -> DType {
    DType::F32
}

/// Sentinel id referring to the graph input tensor.
pub const INPUT: NodeId = usize::MAX;

/// One node of the model DAG.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// Stable index of this node (== its position).
    pub id: NodeId,
    /// Human-readable name, e.g. `"conv2_1"`.
    pub name: String,
    /// The layer computed at this node.
    pub kind: LayerKind,
    /// Ids of producer nodes (or [`INPUT`]); all strictly earlier.
    pub inputs: Vec<NodeId>,
}

/// A validated partition boundary.
///
/// Cutting *after position `boundary`* places nodes `0..boundary` on the
/// device and `boundary..n` on the edge. For a *single-tensor* cut, exactly
/// one tensor crosses the boundary; `bytes` is what must be transmitted.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CutPoint {
    /// Prefix length: nodes `0..boundary` run on the device.
    pub boundary: usize,
    /// Producers whose outputs cross the boundary ([`INPUT`] allowed).
    pub crossing: Vec<NodeId>,
    /// Total bytes crossing the boundary (0 for the device-only cut).
    pub bytes: usize,
}

impl CutPoint {
    /// The full-offload cut (raw input is transmitted).
    #[cfg(test)]
    fn is_full_offload(&self) -> bool {
        self.boundary == 0
    }
}

/// A validated, shape-inferred model DAG with per-node cost caches.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelGraph {
    name: String,
    input_shape: TensorShape,
    dtype: DType,
    /// Datatype of the *raw input* as transmitted (images are uint8, so a
    /// full-offload cut ships 1 byte/pixel, not 4).
    #[serde(default = "default_input_dtype")]
    input_dtype: DType,
    nodes: Vec<Node>,
    shapes: Vec<TensorShape>,
    flops: Vec<u64>,
    params: Vec<u64>,
    mem_bytes: Vec<u64>,
    prefix_flops: Vec<u64>,
}

impl ModelGraph {
    /// Model name (e.g. `"resnet18"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Shape of the graph input.
    pub fn input_shape(&self) -> TensorShape {
        self.input_shape
    }

    /// Datatype used for activation/byte accounting.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Datatype of the raw input as transmitted.
    pub fn input_dtype(&self) -> DType {
        self.input_dtype
    }

    /// Serialized bytes of the tensor produced by `id` as it would cross a
    /// cut ([`INPUT`] uses the raw-input dtype).
    fn tensor_bytes(&self, id: NodeId) -> usize {
        if id == INPUT {
            self.input_shape.bytes(self.input_dtype)
        } else {
            self.shapes[id].bytes(self.dtype)
        }
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes (never true for a built graph).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Output shape of node `id` (or the input shape for [`INPUT`]).
    pub fn shape(&self, id: NodeId) -> TensorShape {
        if id == INPUT {
            self.input_shape
        } else {
            self.shapes[id]
        }
    }

    /// Output shape of the whole model.
    pub fn output_shape(&self) -> TensorShape {
        self.shapes.last().copied().unwrap_or(self.input_shape)
    }

    /// FLOPs of node `id`.
    pub fn node_flops(&self, id: NodeId) -> u64 {
        self.flops[id]
    }

    /// Roofline memory traffic of node `id` in bytes.
    pub fn node_mem_bytes(&self, id: NodeId) -> u64 {
        self.mem_bytes[id]
    }

    /// Parameter count of node `id`.
    pub fn node_params(&self, id: NodeId) -> u64 {
        self.params[id]
    }

    /// Total model FLOPs.
    pub fn total_flops(&self) -> u64 {
        self.prefix_flops.last().copied().unwrap_or(0)
    }

    /// Total parameter count.
    pub fn total_params(&self) -> u64 {
        self.params.iter().sum()
    }

    /// FLOPs of the prefix `0..boundary`.
    pub fn prefix_flops(&self, boundary: usize) -> u64 {
        if boundary == 0 {
            0
        } else {
            self.prefix_flops[boundary - 1]
        }
    }

    /// FLOPs of the suffix `boundary..n`.
    pub fn suffix_flops(&self, boundary: usize) -> u64 {
        self.total_flops() - self.prefix_flops(boundary)
    }

    /// Fraction of total FLOPs computed by the prefix `0..boundary`.
    pub fn depth_fraction(&self, boundary: usize) -> f64 {
        let total = self.total_flops();
        if total == 0 {
            return 0.0;
        }
        self.prefix_flops(boundary) as f64 / total as f64
    }

    /// The set of producers whose tensors cross the boundary after
    /// position `boundary` (deduplicated, in ascending order, [`INPUT`]
    /// sorted first).
    fn crossing_producers(&self, boundary: usize) -> Vec<NodeId> {
        let mut crossing: Vec<NodeId> = Vec::new();
        for node in &self.nodes[boundary..] {
            for &r in &node.inputs {
                let from_prefix = r == INPUT || r < boundary;
                if from_prefix && !crossing.contains(&r) {
                    crossing.push(r);
                }
            }
        }
        crossing.sort_unstable_by_key(|&r| if r == INPUT { (0, 0) } else { (1, r) });
        crossing
    }

    /// Bytes that must cross the boundary after `boundary`.
    pub fn crossing_bytes(&self, boundary: usize) -> usize {
        self.crossing_producers(boundary)
            .iter()
            .map(|&r| self.tensor_bytes(r))
            .sum()
    }

    /// Every boundary `0..=n` as a [`CutPoint`], including multi-tensor
    /// cuts. Boundary `n` (device-only) has no crossing tensor.
    fn all_boundaries(&self) -> Vec<CutPoint> {
        (0..=self.nodes.len())
            .map(|b| {
                let crossing = self.crossing_producers(b);
                let bytes = crossing.iter().map(|&r| self.tensor_bytes(r)).sum();
                CutPoint {
                    boundary: b,
                    crossing,
                    bytes,
                }
            })
            .collect()
    }

    /// The *valid partition candidates*: boundaries where at most one
    /// tensor crosses (single-tensor cuts), always including full offload
    /// (boundary 0) and device-only (boundary n).
    pub fn cut_points(&self) -> Vec<CutPoint> {
        self.all_boundaries()
            .into_iter()
            .filter(|c| c.crossing.len() <= 1)
            .collect()
    }

    /// Validate a specific boundary as a single-tensor cut.
    pub fn validate_cut(&self, boundary: usize) -> Result<CutPoint, ModelError> {
        if boundary > self.nodes.len() {
            return Err(ModelError::InvalidCut { position: boundary });
        }
        let crossing = self.crossing_producers(boundary);
        if crossing.len() > 1 {
            return Err(ModelError::InvalidCut { position: boundary });
        }
        let bytes = crossing.iter().map(|&r| self.tensor_bytes(r)).sum();
        Ok(CutPoint {
            boundary,
            crossing,
            bytes,
        })
    }
}

/// Incremental, order-enforcing builder for [`ModelGraph`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    name: String,
    input_shape: TensorShape,
    dtype: DType,
    input_dtype: DType,
    nodes: Vec<Node>,
}

impl GraphBuilder {
    /// Start a new graph with the given input shape (default dtype F32 for
    /// both activations and the raw input).
    pub fn new(name: impl Into<String>, input_shape: TensorShape) -> Self {
        Self {
            name: name.into(),
            input_shape,
            dtype: DType::F32,
            input_dtype: DType::F32,
            nodes: Vec::new(),
        }
    }

    /// Override the activation datatype used for byte accounting.
    #[cfg(test)]
    fn with_dtype(mut self, dtype: DType) -> Self {
        self.dtype = dtype;
        self
    }

    /// Override the raw-input datatype (e.g. [`DType::I8`] for images, so
    /// full offload ships pixels, not floats).
    pub fn with_input_dtype(mut self, dtype: DType) -> Self {
        self.input_dtype = dtype;
        self
    }

    /// Append a node consuming the given producers. Returns its id.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        kind: LayerKind,
        inputs: Vec<NodeId>,
    ) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Node {
            id,
            name: name.into(),
            kind,
            inputs,
        });
        id
    }

    /// Append a node consuming the single producer `from`.
    pub fn chain(&mut self, name: impl Into<String>, kind: LayerKind, from: NodeId) -> NodeId {
        self.push(name, kind, vec![from])
    }

    /// Id of the most recently pushed node ([`INPUT`] if none yet).
    pub fn last(&self) -> NodeId {
        if self.nodes.is_empty() {
            INPUT
        } else {
            self.nodes.len() - 1
        }
    }

    /// Validate references and shapes, compute all cost caches, and freeze.
    pub fn build(self) -> Result<ModelGraph, ModelError> {
        if self.nodes.is_empty() {
            return Err(ModelError::EmptyGraph);
        }
        let n = self.nodes.len();
        let mut shapes: Vec<TensorShape> = Vec::with_capacity(n);
        let mut flops: Vec<u64> = Vec::with_capacity(n);
        let mut params: Vec<u64> = Vec::with_capacity(n);
        let mut mem_bytes: Vec<u64> = Vec::with_capacity(n);
        for node in &self.nodes {
            let mut in_shapes = Vec::with_capacity(node.inputs.len());
            for &r in &node.inputs {
                if r == INPUT {
                    in_shapes.push(self.input_shape);
                } else if r < node.id {
                    in_shapes.push(shapes[r]);
                } else {
                    return Err(ModelError::DanglingInput {
                        node: node.id,
                        input: r,
                    });
                }
            }
            if node.inputs.is_empty() {
                return Err(ModelError::ArityMismatch {
                    node: node.id,
                    expected: "at least 1",
                    actual: 0,
                });
            }
            let out = node.kind.output_shape(node.id, &in_shapes)?;
            flops.push(node.kind.flops(&in_shapes, out));
            params.push(node.kind.params(&in_shapes));
            mem_bytes.push(node.kind.memory_bytes(&in_shapes, out, self.dtype));
            shapes.push(out);
        }
        let mut prefix_flops = Vec::with_capacity(n);
        let mut acc_f = 0u64;
        for &f in &flops {
            acc_f += f;
            prefix_flops.push(acc_f);
        }
        Ok(ModelGraph {
            name: self.name,
            input_shape: self.input_shape,
            dtype: self.dtype,
            input_dtype: self.input_dtype,
            nodes: self.nodes,
            shapes,
            flops,
            params,
            mem_bytes,
            prefix_flops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{conv, linear, maxpool, relu, LayerKind};

    /// conv -> relu -> pool -> flatten -> fc : a pure chain.
    fn tiny_chain() -> ModelGraph {
        let mut g = GraphBuilder::new("tiny", TensorShape::chw(3, 32, 32));
        let c = g.chain("conv1", conv(3, 8, 3, 1, 1), INPUT);
        let r = g.chain("relu1", relu(), c);
        let p = g.chain("pool1", maxpool(2, 2), r);
        let f = g.chain("flatten", LayerKind::Flatten, p);
        g.chain("fc", linear(8 * 16 * 16, 10), f);
        g.build().unwrap()
    }

    /// A two-branch residual: conv -> (identity + conv) -> add -> fc.
    fn tiny_residual() -> ModelGraph {
        let mut g = GraphBuilder::new("res", TensorShape::chw(3, 8, 8));
        let c1 = g.chain("stem", conv(3, 4, 3, 1, 1), INPUT);
        let c2 = g.chain("branch", conv(4, 4, 3, 1, 1), c1);
        let add = g.push("add", LayerKind::Add, vec![c1, c2]);
        let fl = g.chain("flatten", LayerKind::Flatten, add);
        g.chain("fc", linear(4 * 8 * 8, 10), fl);
        g.build().unwrap()
    }

    #[test]
    fn chain_shapes_and_totals() {
        let g = tiny_chain();
        assert_eq!(g.len(), 5);
        assert_eq!(g.output_shape(), TensorShape::flat(10));
        assert_eq!(g.shape(0), TensorShape::chw(8, 32, 32));
        assert_eq!(g.shape(2), TensorShape::chw(8, 16, 16));
        assert!(g.total_flops() > 0);
        assert_eq!(
            g.total_flops(),
            (0..g.len()).map(|i| g.node_flops(i)).sum::<u64>()
        );
    }

    #[test]
    fn prefix_suffix_flops_are_complementary() {
        let g = tiny_chain();
        for b in 0..=g.len() {
            assert_eq!(g.prefix_flops(b) + g.suffix_flops(b), g.total_flops());
        }
        assert_eq!(g.prefix_flops(0), 0);
        assert_eq!(g.suffix_flops(g.len()), 0);
    }

    #[test]
    fn chain_has_all_single_tensor_cuts() {
        let g = tiny_chain();
        let cuts = g.cut_points();
        // Every boundary of a pure chain is a single-tensor cut.
        assert_eq!(cuts.len(), g.len() + 1);
        // Full offload transmits the raw input.
        assert_eq!(cuts[0].bytes, TensorShape::chw(3, 32, 32).bytes(DType::F32));
        assert!(cuts[0].is_full_offload());
        // Device-only transmits nothing.
        assert_eq!(cuts.last().unwrap().bytes, 0);
    }

    #[test]
    fn residual_interior_is_not_a_single_cut() {
        let g = tiny_residual();
        // Boundary 2 splits between `branch` and `add`: both c1 and c2 cross.
        assert_eq!(g.crossing_producers(2), vec![0, 1]);
        assert!(g.validate_cut(2).is_err());
        // Boundary 3 (after add) is a clean cut.
        let cp = g.validate_cut(3).unwrap();
        assert_eq!(cp.crossing, vec![2]);
        assert_eq!(cp.bytes, TensorShape::chw(4, 8, 8).bytes(DType::F32));
    }

    #[test]
    fn cut_points_skip_multi_tensor_boundaries() {
        let g = tiny_residual();
        let cuts = g.cut_points();
        assert!(cuts.iter().all(|c| c.crossing.len() <= 1));
        assert!(cuts.iter().any(|c| c.boundary == 0));
        assert!(cuts.iter().any(|c| c.boundary == g.len()));
        assert!(!cuts.iter().any(|c| c.boundary == 2));
    }

    #[test]
    fn dangling_reference_is_rejected() {
        let mut g = GraphBuilder::new("bad", TensorShape::chw(3, 8, 8));
        g.push("conv", conv(3, 4, 3, 1, 1), vec![7]);
        assert!(matches!(
            g.build(),
            Err(ModelError::DanglingInput { node: 0, input: 7 })
        ));
    }

    #[test]
    fn empty_graph_is_rejected() {
        let g = GraphBuilder::new("empty", TensorShape::chw(3, 8, 8));
        assert!(matches!(g.build(), Err(ModelError::EmptyGraph)));
    }

    #[test]
    fn shape_error_carries_node_id() {
        let mut g = GraphBuilder::new("bad", TensorShape::chw(3, 8, 8));
        let c = g.chain("conv", conv(3, 4, 3, 1, 1), INPUT);
        g.chain("fc", linear(999, 10), c); // 4*8*8 = 256 != 999
        match g.build() {
            Err(ModelError::ShapeMismatch { node, .. }) => assert_eq!(node, 1),
            other => panic!("expected shape mismatch, got {other:?}"),
        }
    }

    #[test]
    fn depth_fraction_is_monotone() {
        let g = tiny_chain();
        let mut prev = -1.0;
        for b in 0..=g.len() {
            let d = g.depth_fraction(b);
            assert!(d >= prev);
            assert!((0.0..=1.0).contains(&d));
            prev = d;
        }
        assert_eq!(g.depth_fraction(g.len()), 1.0);
    }

    #[test]
    fn dtype_scales_crossing_bytes() {
        let mut g = GraphBuilder::new("q", TensorShape::chw(3, 8, 8)).with_dtype(DType::I8);
        let c = g.chain("conv", conv(3, 4, 3, 1, 1), INPUT);
        let _ = g.chain("relu", relu(), c);
        let g = g.build().unwrap();
        assert_eq!(g.crossing_bytes(1), 4 * 8 * 8); // 1 byte/elem
    }
}
