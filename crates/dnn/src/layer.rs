//! Layer and model definitions: convolution, pooling, Inception mixed
//! blocks, and the [`Model`] container the executors and the Neural Cache
//! mapper consume.

use std::fmt;

use crate::{conv_out_dim, ActQuant, Padding, Shape, WeightQuant};

/// Shape-level description of a convolution sub-layer (no weights).
///
/// Follows the paper's nomenclature: filters have height `R`, width `S`,
/// input channels `C` and output batches `M`; the stride is `U`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvSpec {
    /// Sub-layer name (e.g. `"Conv2d_2b_3x3"` or `"Mixed_5b/b2_3x3_a"`).
    pub name: String,
    /// Filter height `R`.
    pub r: usize,
    /// Filter width `S`.
    pub s: usize,
    /// Input channels `C`.
    pub c: usize,
    /// Output channels (filter batches) `M`.
    pub m: usize,
    /// Stride `U` (same both dimensions, as everywhere in Inception v3).
    pub stride: usize,
    /// Spatial padding policy.
    pub padding: Padding,
    /// Whether a `ReLU` is fused after accumulation (true for every Inception
    /// conv except the final classifier).
    pub relu: bool,
}

impl ConvSpec {
    /// Output shape for a given input shape.
    ///
    /// # Panics
    ///
    /// Panics if the input channel count disagrees with `C` or the window
    /// does not fit.
    #[must_use]
    pub fn out_shape(&self, input: Shape) -> Shape {
        assert_eq!(
            input.c, self.c,
            "{}: input has {} channels, spec expects {}",
            self.name, input.c, self.c
        );
        Shape::new(
            conv_out_dim(input.h, self.r, self.stride, self.padding),
            conv_out_dim(input.w, self.s, self.stride, self.padding),
            self.m,
        )
    }

    /// Number of weights (= filter bytes at 8-bit precision).
    #[must_use]
    pub fn weight_len(&self) -> usize {
        self.m * self.r * self.s * self.c
    }

    /// Multiply-accumulates per output element (`R*S*C`).
    #[must_use]
    pub fn macs_per_output(&self) -> usize {
        self.r * self.s * self.c
    }

    /// Window footprint `R*S` in bytes per channel per bit line.
    #[must_use]
    pub fn window(&self) -> usize {
        self.r * self.s
    }
}

/// A convolution sub-layer: spec, optional weights, quantization parameters
/// and optional per-channel integer bias (folded batch normalization).
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    /// Shape-level description.
    pub spec: ConvSpec,
    /// Weights in `[m][r][s][c]` order; `None` for shape-only models used by
    /// the timing simulator.
    pub weights: Option<Vec<u8>>,
    /// Weight quantization parameters.
    pub w_quant: WeightQuant,
    /// Per-output-channel bias in accumulator units (empty = no bias). The
    /// paper folds batch normalization into per-channel scalars added
    /// in-cache (Section IV-D); we fold them here.
    pub bias: Vec<i64>,
}

impl Conv2d {
    /// Shape-only layer (no weights) for structural/timing use.
    #[must_use]
    pub fn shape_only(spec: ConvSpec) -> Self {
        Conv2d {
            spec,
            weights: None,
            w_quant: WeightQuant::default(),
            bias: Vec::new(),
        }
    }

    /// Layer with dense weights (`M * R * S * C` of them) and an empty or
    /// `M`-long bias; [`Model::validate`] checks both lengths.
    #[must_use]
    pub fn with_weights(
        spec: ConvSpec,
        weights: Vec<u8>,
        w_quant: WeightQuant,
        bias: Vec<i64>,
    ) -> Self {
        Conv2d {
            spec,
            weights: Some(weights),
            w_quant,
            bias,
        }
    }

    /// Weight code at `(m, r, s, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the layer is shape-only or the index is out of bounds.
    #[must_use]
    #[inline]
    pub fn weight(&self, m: usize, r: usize, s: usize, c: usize) -> u8 {
        let spec = &self.spec;
        debug_assert!(m < spec.m && r < spec.r && s < spec.s && c < spec.c);
        let idx = ((m * spec.r + r) * spec.s + s) * spec.c + c;
        self.weights
            .as_ref()
            .expect("shape-only layer has no weights")[idx]
    }

    /// Sum of weight codes of filter `m` — the `W1(m)` zero-point
    /// correction term, precomputed because weights are stationary.
    ///
    /// # Panics
    ///
    /// Panics if the layer is shape-only.
    #[must_use]
    pub fn filter_code_sum(&self, m: usize) -> i64 {
        let spec = &self.spec;
        let w = self
            .weights
            .as_ref()
            .expect("shape-only layer has no weights");
        let per_filter = spec.r * spec.s * spec.c;
        w[m * per_filter..(m + 1) * per_filter]
            .iter()
            .map(|&q| i64::from(q))
            .sum()
    }

    /// Bias of filter `m` (0 when no bias is configured).
    #[must_use]
    pub fn bias_of(&self, m: usize) -> i64 {
        self.bias.get(m).copied().unwrap_or(0)
    }

    /// Smallest and largest weight codes across every filter, or `None` for
    /// a shape-only layer. Seeds the value-range analysis with the actual
    /// weight interval instead of the full `[0, 255]` code space.
    #[must_use]
    pub fn weight_code_bounds(&self) -> Option<(u8, u8)> {
        let w = self.weights.as_ref()?;
        let mut lo = u8::MAX;
        let mut hi = u8::MIN;
        for &q in w {
            lo = lo.min(q);
            hi = hi.max(q);
        }
        Some((lo.min(hi), hi))
    }

    /// Largest per-filter code sum `W1(m)`, or `None` for a shape-only
    /// layer (bounds the zero-point-correction term exactly).
    #[must_use]
    pub fn filter_code_sum_bounds(&self) -> Option<(i64, i64)> {
        self.weights.as_ref()?;
        let sums = (0..self.spec.m).map(|m| self.filter_code_sum(m));
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        for s in sums {
            lo = lo.min(s);
            hi = hi.max(s);
        }
        Some((lo.min(hi), hi.max(lo)))
    }

    /// Smallest and largest per-filter bias, `(0, 0)` when no bias is
    /// configured.
    #[must_use]
    pub fn bias_bounds(&self) -> (i64, i64) {
        let lo = self.bias.iter().copied().min().unwrap_or(0);
        let hi = self.bias.iter().copied().max().unwrap_or(0);
        (lo, hi)
    }
}

/// Pooling flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Sliding-window maximum (Section IV-D max dataflow).
    Max,
    /// Sliding-window average: in-cache sum then divide by the window size.
    Avg,
}

/// A pooling sub-layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Pool2d {
    /// Sub-layer name.
    pub name: String,
    /// Pooling flavor.
    pub kind: PoolKind,
    /// Window side (square windows, as everywhere in Inception v3).
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Spatial padding policy.
    pub padding: Padding,
}

impl Pool2d {
    /// Output shape for a given input shape (channels preserved).
    #[must_use]
    pub fn out_shape(&self, input: Shape) -> Shape {
        Shape::new(
            conv_out_dim(input.h, self.k, self.stride, self.padding),
            conv_out_dim(input.w, self.k, self.stride, self.padding),
            input.c,
        )
    }
}

/// One operation inside an Inception branch.
#[derive(Debug, Clone, PartialEq)]
pub enum BranchOp {
    /// Convolution step.
    Conv(Conv2d),
    /// Pooling step (the avg-pool that precedes pool-projection 1x1s, or
    /// the raw max-pool branch of the reduction blocks).
    Pool(Pool2d),
    /// Terminal fan-out: several convolutions consume the branch's current
    /// tensor and their outputs concatenate (the 1x3/3x1 expansion of
    /// Mixed 7b/7c). Only valid as the last op of a branch.
    Split(Vec<Conv2d>),
}

/// One branch of an Inception mixed block: a chain of steps applied to the
/// block input; branch outputs are concatenated along channels.
#[derive(Debug, Clone, PartialEq)]
pub struct Branch {
    /// The steps, first consuming the block input.
    pub ops: Vec<BranchOp>,
}

impl Branch {
    /// Builds a branch from steps: at least one, and a `Split` only last
    /// ([`Model::validate`] checks both).
    #[must_use]
    pub fn new(ops: Vec<BranchOp>) -> Self {
        Branch { ops }
    }
}

/// An Inception mixed block: parallel branches concatenated along channels.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedBlock {
    /// Block name (e.g. `"Mixed_5b"`).
    pub name: String,
    /// Parallel branches (computed serially by Neural Cache, Section IV).
    pub branches: Vec<Branch>,
}

/// A top-level network layer, matching the granularity of the paper's
/// Table I (one row per `Layer`).
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// Plain convolution (includes the final classifier: "Fully Connected
    /// layers are converted into convolution layers in TensorFlow").
    Conv(Conv2d),
    /// Plain pooling layer.
    Pool(Pool2d),
    /// Inception mixed block.
    Mixed(MixedBlock),
}

impl Layer {
    /// Layer name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            Layer::Conv(c) => &c.spec.name,
            Layer::Pool(p) => &p.name,
            Layer::Mixed(m) => &m.name,
        }
    }
}

/// A whole network: input description plus the layer chain.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// Network name.
    pub name: String,
    /// Input tensor shape (Inception v3: 299x299x3).
    pub input_shape: Shape,
    /// Input quantization parameters.
    pub input_quant: ActQuant,
    /// Layers in execution order.
    pub layers: Vec<Layer>,
}

impl Model {
    /// Total filter bytes across all convolution sub-layers (8-bit codes).
    #[must_use]
    pub fn total_filter_bytes(&self) -> usize {
        self.layers
            .iter()
            .flat_map(Layer::conv_sublayers)
            .map(|c| c.spec.weight_len())
            .sum()
    }

    /// Total number of convolution sub-layers (the paper counts 94 for
    /// Inception v3).
    #[must_use]
    pub fn conv_sublayer_count(&self) -> usize {
        self.layers.iter().flat_map(Layer::conv_sublayers).count()
    }

    /// Whether every convolution sub-layer carries weights (required for
    /// functional execution).
    #[must_use]
    pub fn has_weights(&self) -> bool {
        self.layers
            .iter()
            .flat_map(Layer::conv_sublayers)
            .all(|c| c.weights.is_some())
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let output = self.validate().map(|graph| graph.output().to_string());
        write!(
            f,
            "{}: {} layers ({} conv sub-layers), input {}, output {}",
            self.name,
            self.layers.len(),
            self.conv_sublayer_count(),
            self.input_shape,
            output.unwrap_or_else(|e| format!("malformed ({e})"))
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, r: usize, c: usize, m: usize, stride: usize, padding: Padding) -> ConvSpec {
        ConvSpec {
            name: name.into(),
            r,
            s: r,
            c,
            m,
            stride,
            padding,
            relu: true,
        }
    }

    #[test]
    fn conv_shapes_and_counts() {
        let s = spec("c", 3, 32, 64, 1, Padding::Same);
        let out = s.out_shape(Shape::new(147, 147, 32));
        assert_eq!(out, Shape::new(147, 147, 64));
        assert_eq!(s.weight_len(), 3 * 3 * 32 * 64);
        assert_eq!(s.macs_per_output(), 288);
        assert_eq!(s.window(), 9);
    }

    #[test]
    fn conv_weight_indexing() {
        let s = spec("c", 2, 3, 2, 1, Padding::Valid);
        let weights: Vec<u8> = (0..s.weight_len() as u32)
            .map(|i| (i % 251) as u8)
            .collect();
        let c = Conv2d::with_weights(s, weights.clone(), WeightQuant::default(), vec![]);
        assert_eq!(c.weight(0, 0, 0, 0), weights[0]);
        assert_eq!(c.weight(1, 1, 1, 2), *weights.last().unwrap());
        let sum0: i64 = weights[..12].iter().map(|&q| i64::from(q)).sum();
        assert_eq!(c.filter_code_sum(0), sum0);
        assert_eq!(c.bias_of(0), 0);
    }

    #[test]
    fn mixed_block_concatenates_channels() {
        let b1 = Branch::new(vec![BranchOp::Conv(Conv2d::shape_only(spec(
            "b1",
            1,
            192,
            64,
            1,
            Padding::Same,
        )))]);
        let b2 = Branch::new(vec![
            BranchOp::Conv(Conv2d::shape_only(spec(
                "b2a",
                1,
                192,
                48,
                1,
                Padding::Same,
            ))),
            BranchOp::Conv(Conv2d::shape_only(spec("b2b", 5, 48, 64, 1, Padding::Same))),
        ]);
        let model = Model {
            name: "block".into(),
            input_shape: Shape::new(35, 35, 192),
            input_quant: ActQuant::default(),
            layers: vec![Layer::Mixed(MixedBlock {
                name: "Mixed_test".into(),
                branches: vec![b1, b2],
            })],
        };
        let graph = model.validate().unwrap();
        let [layer] = graph.layers() else {
            panic!("one layer")
        };
        assert_eq!(layer.output, Shape::new(35, 35, 128));
        assert_eq!(layer.branches, 2);
        // b1 and b2a read the block input; b2b reads b2a; b1 and b2b end
        // their branches.
        let subs = graph.sublayers_of(layer);
        let reads: Vec<_> = subs.iter().map(|s| s.reads).collect();
        assert_eq!(reads, [None, None, Some(1)]);
        let ends: Vec<_> = subs.iter().map(|s| s.ends_branch).collect();
        assert_eq!(ends, [true, false, true]);
        assert_eq!(subs[2].input, Shape::new(35, 35, 48));
    }

    #[test]
    fn model_shape_chain() {
        let model = Model {
            name: "tiny".into(),
            input_shape: Shape::new(8, 8, 4),
            input_quant: ActQuant::default(),
            layers: vec![
                Layer::Conv(Conv2d::shape_only(spec("c1", 3, 4, 8, 1, Padding::Same))),
                Layer::Pool(Pool2d {
                    name: "p1".into(),
                    kind: PoolKind::Max,
                    k: 2,
                    stride: 2,
                    padding: Padding::Valid,
                }),
                Layer::Conv(Conv2d::shape_only(spec("c2", 3, 8, 16, 1, Padding::Valid))),
            ],
        };
        let graph = model.validate().unwrap();
        assert_eq!(graph.output(), Shape::new(2, 2, 16));
        let inputs: Vec<Shape> = graph.layers().iter().map(|l| l.input).collect();
        assert_eq!(
            inputs,
            [
                Shape::new(8, 8, 4),
                Shape::new(8, 8, 8),
                Shape::new(4, 4, 8),
            ]
        );
        assert_eq!(graph.sublayers().len(), 3);
        assert_eq!(model.conv_sublayer_count(), 2);
        assert!(!model.has_weights());
        assert_eq!(model.total_filter_bytes(), 3 * 3 * 4 * 8 + 3 * 3 * 8 * 16);
    }
}
