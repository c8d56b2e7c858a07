//! The one shape walk: [`Model::validate`] checks a model's
//! layer → branch → op → split structure once and returns the
//! [`ModelGraph`] the shape-only views (the mapper, the sparsity analysis,
//! Table I and the value-range pass) iterate, or a [`ModelError`].

use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::slice;

use crate::{conv_out_dim, BranchOp, Conv2d, Layer, MixedBlock, Model, Padding, Pool2d, Shape};

/// What one sub-layer computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubOp<'m> {
    /// A convolution (each convolution of a split is its own sub-layer).
    Conv(&'m Conv2d),
    /// A pooling step.
    Pool(&'m Pool2d),
}

impl<'m> SubOp<'m> {
    /// The convolution, when the sub-layer is one.
    #[must_use]
    pub fn conv(self) -> Option<&'m Conv2d> {
        match self {
            SubOp::Conv(conv) => Some(conv),
            SubOp::Pool(_) => None,
        }
    }

    /// Sub-layer name.
    #[must_use]
    pub fn name(self) -> &'m str {
        match self {
            SubOp::Conv(conv) => &conv.spec.name,
            SubOp::Pool(pool) => &pool.name,
        }
    }
}

/// One convolution or pooling sub-layer of a [`ModelGraph`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sublayer<'m> {
    /// What it computes.
    pub op: SubOp<'m>,
    /// Index in [`ModelGraph::sublayers`] of the sub-layer whose output it
    /// reads; `None` when it reads its layer's input.
    pub reads: Option<usize>,
    /// Input shape.
    pub input: Shape,
    /// Output shape.
    pub output: Shape,
    /// Whether its output is concatenated into the layer output (the one
    /// sub-layer of a plain conv or pool layer always is).
    pub ends_branch: bool,
}

/// One top-level layer of a [`ModelGraph`] (one Table I row).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphLayer<'m> {
    /// The layer.
    pub layer: &'m Layer,
    /// Input shape.
    pub input: Shape,
    /// Output shape: the branch outputs concatenated along channels.
    pub output: Shape,
    /// Branches concatenated into the output (1 for a plain conv or pool).
    pub branches: usize,
    /// Indices of its sub-layers in [`ModelGraph::sublayers`].
    pub sublayers: Range<usize>,
}

/// A model's sub-layers in execution order (branch by branch, as Neural
/// Cache runs them), grouped by top-level layer. Only [`Model::validate`]
/// builds one.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelGraph<'m> {
    input: Shape,
    layers: Vec<GraphLayer<'m>>,
    sublayers: Vec<Sublayer<'m>>,
}

impl Model {
    /// The one shape walk over the layers, a mixed block's serial branches
    /// and their concatenation (Section IV, Table I). It checks a non-zero
    /// input shape; non-empty blocks, branches and splits, a split only
    /// last; per sub-layer, non-zero windows, filter counts and strides,
    /// channel chaining, a `Valid` window that fits, and weight and bias
    /// lengths; and the spatial agreement of everything concatenated.
    ///
    /// # Errors
    ///
    /// Returns the first fault in execution order.
    pub fn validate(&self) -> Result<ModelGraph<'_>, ModelError> {
        ModelGraph::build(self.input_shape, &self.layers)
    }
}

impl Layer {
    /// [`Model::validate`] for this one layer on an input of shape
    /// `input`: a one-layer graph, or the first fault in execution order,
    /// found by the same checks.
    ///
    /// # Errors
    ///
    /// Returns the first fault in execution order.
    pub(crate) fn validate(&self, input: Shape) -> Result<ModelGraph<'_>, ModelError> {
        ModelGraph::build(input, slice::from_ref(self))
    }
}

impl<'m> ModelGraph<'m> {
    /// The one shape walk of `layers` on an `input`-shaped tensor.
    fn build(input: Shape, layers: &'m [Layer]) -> Result<Self, ModelError> {
        if input.h == 0 || input.w == 0 || input.c == 0 {
            return Err(Fault::EmptyInput(input).at("input"));
        }
        let mut graph = ModelGraph {
            input,
            layers: Vec::with_capacity(layers.len()),
            sublayers: Vec::new(),
        };
        let mut cur = input;
        for layer in layers {
            let start = graph.sublayers.len();
            let (output, branches) = match layer {
                Layer::Conv(conv) => (graph.push(SubOp::Conv(conv), None, cur, true)?, 1),
                Layer::Pool(pool) => (graph.push(SubOp::Pool(pool), None, cur, true)?, 1),
                Layer::Mixed(block) => (graph.push_block(block, cur)?, block.branches.len()),
            };
            graph.layers.push(GraphLayer {
                layer,
                input: cur,
                output,
                branches,
                sublayers: start..graph.sublayers.len(),
            });
            cur = output;
        }
        Ok(graph)
    }

    /// The top-level layers, in execution order.
    #[must_use]
    pub fn layers(&self) -> &[GraphLayer<'m>] {
        &self.layers
    }

    /// Every sub-layer, in execution order.
    #[must_use]
    pub fn sublayers(&self) -> &[Sublayer<'m>] {
        &self.sublayers
    }

    /// The sub-layers of one of this graph's layers.
    #[must_use]
    pub fn sublayers_of(&self, layer: &GraphLayer<'m>) -> &[Sublayer<'m>] {
        &self.sublayers[layer.sublayers.clone()]
    }

    /// The model's output shape.
    #[must_use]
    pub fn output(&self) -> Shape {
        self.layers.last().map_or(self.input, |l| l.output)
    }

    /// Appends a block's branches, each op reading the one before it and a
    /// terminal split's convolutions all reading the same tensor, and
    /// returns the shape of their concatenated ends.
    fn push_block(&mut self, block: &'m MixedBlock, input: Shape) -> Result<Shape, ModelError> {
        let first = self.sublayers.len();
        for (branch, ops) in block.branches.iter().enumerate() {
            let Some((last, body)) = ops.ops.split_last() else {
                return Err(Fault::EmptyBranch(branch).at(&block.name));
            };
            let (mut cur, mut reads) = (input, None);
            for op in body {
                let op = match op {
                    BranchOp::Conv(conv) => SubOp::Conv(conv),
                    BranchOp::Pool(pool) => SubOp::Pool(pool),
                    BranchOp::Split(_) => return Err(Fault::SplitNotLast(branch).at(&block.name)),
                };
                cur = self.push(op, reads, cur, false)?;
                reads = Some(self.sublayers.len() - 1);
            }
            let (convs, pool) = match last {
                BranchOp::Conv(conv) => (slice::from_ref(conv), None),
                BranchOp::Pool(pool) => (&[][..], Some(pool)),
                BranchOp::Split(convs) if convs.is_empty() => {
                    return Err(Fault::EmptySplit(branch).at(&block.name));
                }
                BranchOp::Split(convs) => (&convs[..], None),
            };
            for op in convs.iter().map(SubOp::Conv).chain(pool.map(SubOp::Pool)) {
                self.push(op, reads, cur, true)?;
            }
        }
        let mut ends = self.sublayers[first..].iter().filter(|s| s.ends_branch);
        let Some(head) = ends.next() else {
            return Err(Fault::NoBranches.at(&block.name));
        };
        let mut out = head.output;
        for end in ends {
            let (dims, found) = ((out.h, out.w), (end.output.h, end.output.w));
            if found != dims {
                return Err(Fault::SpatialMismatch(dims, found).at(end.op.name()));
            }
            out.c += end.output.c;
        }
        Ok(out)
    }

    /// Checks one sub-layer against its input, appends it, and returns its
    /// output shape.
    fn push(
        &mut self,
        op: SubOp<'m>,
        reads: Option<usize>,
        input: Shape,
        ends_branch: bool,
    ) -> Result<Shape, ModelError> {
        let (r, s, stride, padding, c) = match op {
            SubOp::Conv(conv) => {
                let spec = &conv.spec;
                (spec.r, spec.s, spec.stride, spec.padding, spec.m)
            }
            SubOp::Pool(pool) => (pool.k, pool.k, pool.stride, pool.padding, input.c),
        };
        let fault = if r == 0 || s == 0 || c == 0 {
            Some(Fault::ZeroDimension)
        } else if stride == 0 {
            Some(Fault::ZeroStride)
        } else if padding == Padding::Valid && (r > input.h || s > input.w) {
            Some(Fault::WindowTooLarge((r, s), (input.h, input.w)))
        } else {
            op.conv().and_then(|conv| conv_fault(conv, input.c))
        };
        if let Some(fault) = fault {
            return Err(fault.at(op.name()));
        }
        let output = Shape::new(
            conv_out_dim(input.h, r, stride, padding),
            conv_out_dim(input.w, s, stride, padding),
            c,
        );
        self.sublayers.push(Sublayer {
            op,
            reads,
            input,
            output,
            ends_branch,
        });
        Ok(output)
    }
}

impl Layer {
    /// Iterates over every convolution sub-layer within this layer, in
    /// execution order. Needs no validation, so a model's counts and
    /// workload transforms (weight pruning) read it.
    pub fn conv_sublayers(&self) -> impl Iterator<Item = &Conv2d> {
        let (own, branches) = match self {
            Layer::Conv(conv) => (slice::from_ref(conv), &[][..]),
            Layer::Pool(_) => (&[][..], &[][..]),
            Layer::Mixed(block) => (&[][..], &block.branches[..]),
        };
        let ops = branches.iter().flat_map(|b| &b.ops);
        own.iter().chain(ops.flat_map(|op| match op {
            BranchOp::Conv(conv) => slice::from_ref(conv),
            BranchOp::Pool(_) => &[],
            BranchOp::Split(convs) => &convs[..],
        }))
    }

    /// Mutable counterpart of [`Layer::conv_sublayers`].
    pub fn conv_sublayers_mut(&mut self) -> impl Iterator<Item = &mut Conv2d> {
        let (own, branches) = match self {
            Layer::Conv(conv) => (slice::from_mut(conv), &mut [][..]),
            Layer::Pool(_) => (&mut [][..], &mut [][..]),
            Layer::Mixed(block) => (&mut [][..], &mut block.branches[..]),
        };
        let ops = branches.iter_mut().flat_map(|b| &mut b.ops);
        own.iter_mut().chain(ops.flat_map(|op| match op {
            BranchOp::Conv(conv) => slice::from_mut(conv),
            BranchOp::Pool(_) => &mut [],
            BranchOp::Split(convs) => &mut convs[..],
        }))
    }
}

/// The first fault of a convolution's channel chaining, weight count or
/// bias length, given its input's channel count.
fn conv_fault(conv: &Conv2d, channels: usize) -> Option<Fault> {
    let spec = &conv.spec;
    let weights = conv.weights.as_ref().map_or(spec.weight_len(), Vec::len);
    if spec.c != channels {
        Some(Fault::ChannelMismatch(spec.c, channels))
    } else if weights != spec.weight_len() {
        Some(Fault::WeightLength(spec.weight_len(), weights))
    } else if !conv.bias.is_empty() && conv.bias.len() != spec.m {
        Some(Fault::BiasLength(spec.m, conv.bias.len()))
    } else {
        None
    }
}

/// Why [`Model::validate`] rejected a model: the first fault in execution
/// order, and where it is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelError {
    /// The offending layer (a mixed block) or sub-layer, or `"input"` for
    /// the model's input shape.
    pub at: String,
    /// What is wrong there.
    pub fault: Fault,
}

/// What is wrong at [`ModelError::at`]. Pairs read `(expected, found)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Fault {
    /// The model's input shape has a zero dimension.
    EmptyInput(Shape),
    /// The mixed block has no branches.
    NoBranches,
    /// Branch `.0` of the block has no ops.
    EmptyBranch(usize),
    /// Branch `.0` of the block ends in a split of no convolutions.
    EmptySplit(usize),
    /// Branch `.0` of the block has a split before its last op.
    SplitNotLast(usize),
    /// A window side or the filter count is zero.
    ZeroDimension,
    /// The stride is zero.
    ZeroStride,
    /// The filters' `C` is not the input's channel count.
    ChannelMismatch(usize, usize),
    /// The `Valid` window `(R, S)` is larger than its input `(H, W)`.
    WindowTooLarge((usize, usize), (usize, usize)),
    /// The weight count is not `M * R * S * C`.
    WeightLength(usize, usize),
    /// A non-empty bias's length is not `M`.
    BiasLength(usize, usize),
    /// The output `(H, W)` is not that of the block's first output.
    SpatialMismatch((usize, usize), (usize, usize)),
}

impl Fault {
    fn at(self, at: &str) -> ModelError {
        ModelError {
            at: at.to_owned(),
            fault: self,
        }
    }
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.at)?;
        match self.fault {
            Fault::EmptyInput(shape) => write!(f, "shape {shape} has a zero dimension"),
            Fault::NoBranches => write!(f, "mixed block has no branches"),
            Fault::EmptyBranch(b) => write!(f, "branch {b} has no ops"),
            Fault::EmptySplit(b) => write!(f, "branch {b} ends in a split of no convolutions"),
            Fault::SplitNotLast(b) => write!(f, "branch {b} has a split before its last op"),
            Fault::ZeroDimension => write!(f, "a window side or the filter count is zero"),
            Fault::ZeroStride => write!(f, "stride is zero"),
            Fault::ChannelMismatch(want, got) => {
                write!(f, "{got} input channels for a {want}-channel filter")
            }
            Fault::WindowTooLarge(k, dims) => {
                write!(f, "unpadded {k:?} window on a {dims:?} input")
            }
            Fault::WeightLength(want, got) => write!(f, "{got} weights, the spec needs {want}"),
            Fault::BiasLength(want, got) => write!(f, "{got} biases for {want} filters"),
            Fault::SpatialMismatch(want, got) => {
                write!(f, "{got:?} output against the block's {want:?}")
            }
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActQuant, Branch, ConvSpec, PoolKind, WeightQuant};

    fn conv(name: &str, (r, s): (usize, usize), c: usize, m: usize) -> Conv2d {
        let spec = ConvSpec {
            name: name.into(),
            r,
            s,
            c,
            m,
            stride: 1,
            padding: Padding::Same,
            relu: true,
        };
        Conv2d::with_weights(
            spec,
            vec![1; m * r * s * c],
            WeightQuant::default(),
            vec![0; m],
        )
    }

    fn pool(name: &str, k: usize, padding: Padding) -> Pool2d {
        Pool2d {
            name: name.into(),
            kind: PoolKind::Avg,
            k,
            stride: 1,
            padding,
        }
    }

    /// A stem conv, a block of a plain branch and a pool → 1x1 → split
    /// branch, and a global pool: 6x6x2 → 6x6x4 → 6x6x(3 + 2 + 2) → 1x1x7.
    fn model() -> Model {
        Model {
            name: "faults".into(),
            input_shape: Shape::new(6, 6, 2),
            input_quant: ActQuant::default(),
            layers: vec![
                Layer::Conv(conv("stem", (3, 3), 2, 4)),
                Layer::Mixed(MixedBlock {
                    name: "mix".into(),
                    branches: vec![
                        Branch::new(vec![BranchOp::Conv(conv("mix/b0", (1, 1), 4, 3))]),
                        Branch::new(vec![
                            BranchOp::Pool(pool("mix/b1_pool", 3, Padding::Same)),
                            BranchOp::Conv(conv("mix/b1_1x1", (1, 1), 4, 2)),
                            BranchOp::Split(vec![
                                conv("mix/b1_1x3", (1, 3), 2, 2),
                                conv("mix/b1_3x1", (3, 1), 2, 2),
                            ]),
                        ]),
                    ],
                }),
                Layer::Pool(pool("gap", 6, Padding::Valid)),
            ],
        }
    }

    fn block(model: &mut Model) -> &mut MixedBlock {
        let Layer::Mixed(block) = &mut model.layers[1] else {
            unreachable!("layer 1 is the block")
        };
        block
    }

    fn stem(model: &mut Model) -> &mut Conv2d {
        model.layers[0].conv_sublayers_mut().next().unwrap()
    }

    fn fault(mutate: impl FnOnce(&mut Model)) -> ModelError {
        let mut m = model();
        mutate(&mut m);
        m.validate().unwrap_err()
    }

    #[test]
    fn graph_lists_sublayers_in_execution_order() {
        let m = model();
        let graph = m.validate().unwrap();
        assert_eq!(graph.output(), Shape::new(1, 1, 7));
        let names: Vec<&str> = graph.sublayers().iter().map(|s| s.op.name()).collect();
        assert_eq!(
            names,
            [
                "stem",
                "mix/b0",
                "mix/b1_pool",
                "mix/b1_1x1",
                "mix/b1_1x3",
                "mix/b1_3x1",
                "gap"
            ]
        );
        // Both split convolutions read the 1x1; the block's pool and plain
        // branch read the block input.
        let reads: Vec<_> = graph.sublayers().iter().map(|s| s.reads).collect();
        assert_eq!(reads, [None, None, None, Some(2), Some(3), Some(3), None]);
        let ends: Vec<_> = graph.sublayers().iter().map(|s| s.ends_branch).collect();
        assert_eq!(ends, [true, true, false, false, true, true, true]);
        let layers: Vec<_> = graph
            .layers()
            .iter()
            .map(|l| (l.input, l.output, l.branches, l.sublayers.clone()))
            .collect();
        assert_eq!(
            layers,
            [
                (Shape::new(6, 6, 2), Shape::new(6, 6, 4), 1, 0..1),
                (Shape::new(6, 6, 4), Shape::new(6, 6, 7), 2, 1..6),
                (Shape::new(6, 6, 7), Shape::new(1, 1, 7), 1, 6..7),
            ]
        );
        assert_eq!(graph.sublayers_of(&graph.layers()[2])[0].op.name(), "gap");
    }

    #[test]
    fn empty_branch_is_rejected() {
        let e = fault(|m| block(m).branches[1].ops.clear());
        assert_eq!(e, Fault::EmptyBranch(1).at("mix"));
        assert_eq!(e.to_string(), "mix: branch 1 has no ops");
    }

    #[test]
    fn branchless_block_is_rejected() {
        let e = fault(|m| block(m).branches.clear());
        assert_eq!(e, Fault::NoBranches.at("mix"));
    }

    #[test]
    fn empty_split_is_rejected() {
        let e = fault(|m| block(m).branches[1].ops[2] = BranchOp::Split(Vec::new()));
        assert_eq!(e, Fault::EmptySplit(1).at("mix"));
    }

    #[test]
    fn split_before_the_last_op_is_rejected() {
        let e = fault(|m| block(m).branches[1].ops.swap(1, 2));
        assert_eq!(e, Fault::SplitNotLast(1).at("mix"));
    }

    #[test]
    fn channel_mismatch_is_rejected() {
        let e = fault(|m| {
            block(m).branches[0].ops[0] = BranchOp::Conv(conv("mix/b0", (1, 1), 5, 3));
        });
        assert_eq!(e, Fault::ChannelMismatch(5, 4).at("mix/b0"));
        assert_eq!(
            e.to_string(),
            "mix/b0: 4 input channels for a 5-channel filter"
        );
    }

    #[test]
    fn weight_vector_one_short_is_rejected() {
        let e = fault(|m| _ = stem(m).weights.as_mut().unwrap().pop());
        assert_eq!(e, Fault::WeightLength(72, 71).at("stem"));
    }

    #[test]
    fn bias_longer_than_m_is_rejected() {
        let e = fault(|m| stem(m).bias.push(0));
        assert_eq!(e, Fault::BiasLength(4, 5).at("stem"));
    }

    #[test]
    fn valid_window_wider_than_its_input_is_rejected() {
        let e = fault(|m| m.layers[2] = Layer::Pool(pool("gap", 7, Padding::Valid)));
        assert_eq!(e, Fault::WindowTooLarge((7, 7), (6, 6)).at("gap"));
    }

    #[test]
    fn zero_stride_is_rejected() {
        let e = fault(|m| {
            let BranchOp::Pool(p) = &mut block(m).branches[1].ops[0] else {
                unreachable!("branch 1 starts with its pool")
            };
            p.stride = 0;
        });
        assert_eq!(e, Fault::ZeroStride.at("mix/b1_pool"));
    }

    #[test]
    fn zero_filter_count_is_rejected() {
        let e = fault(|m| stem(m).spec.m = 0);
        assert_eq!(e, Fault::ZeroDimension.at("stem"));
    }

    #[test]
    fn zero_input_dimension_is_rejected() {
        let shape = Shape { h: 6, w: 0, c: 2 };
        let e = fault(|m| m.input_shape = shape);
        assert_eq!(e, Fault::EmptyInput(shape).at("input"));
        assert_eq!(e.to_string(), "input: shape 6x0x2 has a zero dimension");
    }

    #[test]
    fn branches_disagreeing_on_spatial_dims_are_rejected() {
        // A stride-2 plain branch gives 3x3; the split branch stays 6x6.
        let e = fault(|m| {
            let b0 = block(m).branches[0].ops.iter_mut().next().unwrap();
            let BranchOp::Conv(c) = b0 else {
                unreachable!("branch 0 is one conv")
            };
            c.spec.stride = 2;
        });
        assert_eq!(e, Fault::SpatialMismatch((3, 3), (6, 6)).at("mix/b1_1x3"));
    }
}
