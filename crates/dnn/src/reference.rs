//! The golden model: a plain-Rust integer executor for quantized inference,
//! and the layer walk every executor shares.
//!
//! The paper verifies its cycle-accurate simulator "by running data traces
//! on it and matching the results with traces obtained from instrumenting
//! the TensorFlow model" (Section V). We have no TensorFlow; this executor
//! plays that role: it implements the *exact* integer
//! arithmetic of [`crate::quant`], and the in-cache functional executor must
//! reproduce its outputs bit-for-bit.
//!
//! The CPU-side policy of Section IV-D is written once, in
//! [`run_layer_on`]: it walks one layer (a conv, a pool, or a mixed block's
//! serial branches), derives every requantizer from the measured ranges
//! (per conv, then block-wide for the branch outputs), records them, and
//! concatenates the branches. The arithmetic is a [`Backend`]'s: [`Golden`]
//! runs this module's integer loops, and the in-cache executor
//! (`neural_cache::functional`) runs `nc-sram` micro-ops.

use std::convert::Infallible;

use crate::quant::{
    acc_add, acc_mul, branch_requantizer, conv_requant_plan, shared_out_quant, CodeRequant,
};
use crate::{
    pad_before, AccTensor, ActQuant, Branch, BranchOp, Conv2d, Layer, MixedBlock, Model, Pool2d,
    PoolKind, QTensor, Requantizer, Shape,
};

/// Requantization decisions recorded for one convolution sub-layer.
///
/// The Neural Cache functional executor recomputes the same accumulator
/// min/max in-cache and must arrive at identical constants; integration
/// tests compare these records.
#[derive(Debug, Clone, PartialEq)]
pub struct SublayerRecord {
    /// Sub-layer name.
    pub name: String,
    /// Measured accumulator minimum (after fused `ReLU`, when present).
    pub acc_min: i64,
    /// Measured accumulator maximum.
    pub acc_max: i64,
    /// Requantization pipeline applied.
    pub requant: Requantizer,
    /// Activation parameters of the produced tensor.
    pub out_quant: ActQuant,
}

/// Execution record of one top-level layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRecord {
    /// Layer name.
    pub name: String,
    /// Records of the convolution sub-layers executed inside this layer.
    pub sublayers: Vec<SublayerRecord>,
    /// The layer's output tensor.
    pub output: QTensor,
}

/// Full inference result: final output plus per-layer records.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceResult {
    /// Final output tensor (Inception v3: 1x1x1001 logits codes).
    pub output: QTensor,
    /// Per-layer execution records, in order.
    pub layers: Vec<LayerRecord>,
}

impl InferenceResult {
    /// Index of the maximum output code along channels of the (1x1xC)
    /// output — the predicted class.
    ///
    /// # Panics
    ///
    /// Panics if the output is not 1x1 spatial.
    #[must_use]
    pub fn argmax(&self) -> usize {
        let s = self.output.shape();
        assert_eq!((s.h, s.w), (1, 1), "argmax expects a 1x1 spatial output");
        (0..s.c)
            .max_by_key(|&c| self.output.get(0, 0, c))
            .expect("non-empty output")
    }
}

/// The arithmetic of one executor. [`run_layer_on`] decides what runs and
/// with which requantization constants; the backend computes the tensors.
///
/// No method has a default: a backend that inherited the golden arithmetic
/// would still match the golden model bit for bit, and no test could tell.
pub trait Backend {
    /// Why a step failed.
    type Error;

    /// The accumulators of `conv` on `input`, with the fused `ReLU` applied
    /// when the layer has one, and their `(min, max)`. The range is part of
    /// the result because the in-cache executor measures it with its
    /// min/max trees, which cost cycles.
    ///
    /// # Errors
    ///
    /// Fails when the backend cannot run the convolution.
    fn accumulate(
        &mut self,
        conv: &Conv2d,
        input: &QTensor,
    ) -> Result<(AccTensor, (i64, i64)), Self::Error>;

    /// Requantizes accumulators with `requant` into codes of `out_quant`.
    ///
    /// # Errors
    ///
    /// Fails when the backend cannot run the requantization.
    fn requantize(
        &mut self,
        acc: &AccTensor,
        requant: Requantizer,
        out_quant: ActQuant,
    ) -> Result<QTensor, Self::Error>;

    /// Runs a pooling layer; quantization parameters pass through.
    ///
    /// # Errors
    ///
    /// Fails when the backend cannot run the pooling.
    fn pool(&mut self, pool: &Pool2d, input: &QTensor) -> Result<QTensor, Self::Error>;

    /// Maps codes into another affine domain with `map`, giving codes of
    /// `out_quant`.
    ///
    /// # Errors
    ///
    /// Fails when the backend cannot run the mapping.
    fn code_requant(
        &mut self,
        codes: &QTensor,
        map: CodeRequant,
        out_quant: ActQuant,
    ) -> Result<QTensor, Self::Error>;
}

/// The golden model's arithmetic: the integer loops of [`conv_accumulate`]
/// and [`run_pool`], and the [`crate::quant`] pipelines applied per value.
#[derive(Debug, Clone, Copy)]
pub struct Golden;

impl Backend for Golden {
    type Error = Infallible;

    fn accumulate(
        &mut self,
        conv: &Conv2d,
        input: &QTensor,
    ) -> Result<(AccTensor, (i64, i64)), Infallible> {
        let mut acc = conv_accumulate(conv, input);
        if conv.spec.relu {
            acc.relu();
        }
        let range = acc.min_max();
        Ok((acc, range))
    }

    fn requantize(
        &mut self,
        acc: &AccTensor,
        requant: Requantizer,
        out_quant: ActQuant,
    ) -> Result<QTensor, Infallible> {
        let codes = acc.data().iter().map(|&v| requant.apply(v)).collect();
        Ok(QTensor::from_vec(acc.shape(), out_quant, codes))
    }

    fn pool(&mut self, pool: &Pool2d, input: &QTensor) -> Result<QTensor, Infallible> {
        Ok(run_pool(pool, input))
    }

    fn code_requant(
        &mut self,
        codes: &QTensor,
        map: CodeRequant,
        out_quant: ActQuant,
    ) -> Result<QTensor, Infallible> {
        let mapped = codes.data().iter().map(|&q| map.apply(q)).collect();
        Ok(QTensor::from_vec(codes.shape(), out_quant, mapped))
    }
}

/// Runs the whole model on `input`, recording per-layer requantization
/// decisions.
///
/// # Panics
///
/// Panics at entry, with the [`crate::ModelError`] text, if the model does
/// not validate; and if the input shape mismatches the model or any
/// convolution sub-layer lacks weights.
#[must_use]
pub fn run_model(model: &Model, input: &QTensor) -> InferenceResult {
    let graph = model.validate().unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        input.shape(),
        model.input_shape,
        "input shape does not match model"
    );
    let mut cur = input.clone();
    let mut layers = Vec::with_capacity(model.layers.len());
    for layer in graph.layers() {
        let Ok(record) = run_layer_on(&mut Golden, layer.layer, &cur);
        cur = record.output.clone();
        layers.push(record);
    }
    InferenceResult {
        output: cur,
        layers,
    }
}

/// Runs one top-level layer on the golden model.
///
/// # Panics
///
/// Panics at entry, with the [`crate::ModelError`] text, if the layer does
/// not validate on `input`'s shape (the checks [`Model::validate`] runs on
/// each layer); and if a convolution sub-layer lacks weights.
#[must_use]
pub fn run_layer(layer: &Layer, input: &QTensor) -> LayerRecord {
    if let Err(e) = layer.validate(input.shape()) {
        panic!("{e}");
    }
    let Ok(record) = run_layer_on(&mut Golden, layer, input);
    record
}

/// Runs one top-level layer on `backend`, with the requantization policy
/// of Section IV-D:
///
/// - a conv requantizes with the range of its own accumulators;
/// - a mixed block runs its branches serially; a conv inside a branch
///   requantizes like a standalone one, and the branch outputs (the last
///   conv's accumulators, the last pool's codes) share one block-wide real
///   range, the min/max "of the entire cache" taken once per layer, before
///   they concatenate along channels.
///
/// The record holds one [`SublayerRecord`] per conv, in execution order; a
/// branch-final conv's record carries the shared-range requantizer it was
/// actually requantized with.
///
/// # Errors
///
/// Returns the first error of `backend`, and runs nothing after it.
pub fn run_layer_on<B: Backend>(
    backend: &mut B,
    layer: &Layer,
    input: &QTensor,
) -> Result<LayerRecord, B::Error> {
    let mut sublayers = Vec::new();
    let output = match layer {
        Layer::Conv(conv) => {
            let (out, rec) = conv_on(backend, conv, input)?;
            sublayers.push(rec);
            out
        }
        Layer::Pool(pool) => backend.pool(pool, input)?,
        Layer::Mixed(block) => mixed_on(backend, block, input, &mut sublayers)?,
    };
    Ok(LayerRecord {
        name: layer.name().to_owned(),
        sublayers,
        output,
    })
}

/// Computes the zero-point-corrected integer accumulators of a convolution
/// (the quantity Neural Cache materializes per bit line before reduction).
///
/// # Panics
///
/// Panics if the layer is shape-only.
#[must_use]
pub fn conv_accumulate(conv: &Conv2d, input: &QTensor) -> AccTensor {
    let spec = &conv.spec;
    let in_shape = input.shape();
    let out_shape = spec.out_shape(in_shape);
    let zp_a = i64::from(input.params().zero_point);
    let zp_w = i64::from(conv.w_quant.zero_point);
    let n = spec.macs_per_output() as i64;
    let pad_y = pad_before(in_shape.h, spec.r, spec.stride, spec.padding) as isize;
    let pad_x = pad_before(in_shape.w, spec.s, spec.stride, spec.padding) as isize;

    let w1: Vec<i64> = (0..spec.m).map(|m| conv.filter_code_sum(m)).collect();
    let mut acc = AccTensor::zeros(out_shape);
    let mut window = vec![0u8; spec.r * spec.s * spec.c];

    for ey in 0..out_shape.h {
        for ex in 0..out_shape.w {
            // Gather the (padded) input window once; padding holds zp_a so
            // its zero-point-corrected contribution is exactly zero.
            let oy = (ey * spec.stride) as isize - pad_y;
            let ox = (ex * spec.stride) as isize - pad_x;
            let mut idx = 0;
            let mut s2 = 0i64;
            for r in 0..spec.r {
                for s in 0..spec.s {
                    for c in 0..spec.c {
                        let q = input.get_padded(oy + r as isize, ox + s as isize, c);
                        window[idx] = q;
                        s2 = acc_add(s2, i64::from(q));
                        idx += 1;
                    }
                }
            }
            let weights = conv
                .weights
                .as_ref()
                .expect("functional conv needs weights");
            let per_filter = spec.r * spec.s * spec.c;
            for m in 0..spec.m {
                let wslice = &weights[m * per_filter..(m + 1) * per_filter];
                let mut s1 = 0i64;
                for (wq, aq) in wslice.iter().zip(window.iter()) {
                    s1 = acc_add(s1, i64::from(*wq) * i64::from(*aq));
                }
                let value = acc_add(
                    acc_add(acc_add(s1, -acc_mul(zp_w, s2)), -acc_mul(zp_a, w1[m])),
                    acc_add(acc_mul(acc_mul(n, zp_w), zp_a), conv.bias_of(m)),
                );
                acc.set(ey, ex, m, value);
            }
        }
    }
    acc
}

/// Runs one standalone convolution sub-layer on the golden model:
/// accumulate, fused `ReLU`, dynamic ranging, requantize.
///
/// # Panics
///
/// Panics if the layer is shape-only.
#[must_use]
pub fn run_conv(conv: &Conv2d, input: &QTensor) -> (QTensor, SublayerRecord) {
    let Ok(result) = conv_on(&mut Golden, conv, input);
    result
}

/// Runs a pooling layer (max or average) on quantized codes; quantization
/// parameters pass through unchanged.
#[must_use]
pub fn run_pool(pool: &Pool2d, input: &QTensor) -> QTensor {
    let in_shape = input.shape();
    let out_shape = pool.out_shape(in_shape);
    let pad_y = pad_before(in_shape.h, pool.k, pool.stride, pool.padding) as isize;
    let pad_x = pad_before(in_shape.w, pool.k, pool.stride, pool.padding) as isize;
    QTensor::from_fn(out_shape, input.params(), |ey, ex, c| {
        let oy = (ey * pool.stride) as isize - pad_y;
        let ox = (ex * pool.stride) as isize - pad_x;
        match pool.kind {
            PoolKind::Max => {
                let mut best = 0u8;
                for r in 0..pool.k {
                    for s in 0..pool.k {
                        let (y, x) = (oy + r as isize, ox + s as isize);
                        if y >= 0
                            && x >= 0
                            && (y as usize) < in_shape.h
                            && (x as usize) < in_shape.w
                        {
                            best = best.max(input.get(y as usize, x as usize, c));
                        }
                    }
                }
                best
            }
            PoolKind::Avg => {
                // Average over *valid* cells only (TensorFlow semantics);
                // in-cache this is the lane-wise division with a per-lane
                // divisor.
                let mut sum = 0u64;
                let mut count = 0u64;
                for r in 0..pool.k {
                    for s in 0..pool.k {
                        let (y, x) = (oy + r as isize, ox + s as isize);
                        if y >= 0
                            && x >= 0
                            && (y as usize) < in_shape.h
                            && (x as usize) < in_shape.w
                        {
                            sum += u64::from(input.get(y as usize, x as usize, c));
                            count += 1;
                        }
                    }
                }
                (sum / count.max(1)) as u8
            }
        }
    })
}

/// Accumulates `conv` on `backend` and records the requantization a
/// standalone conv derives from the measured range. Returns the
/// accumulators, their real scale (`s_w * s_a`) and the record.
fn accumulate_on<B: Backend>(
    backend: &mut B,
    conv: &Conv2d,
    input: &QTensor,
) -> Result<(AccTensor, f64, SublayerRecord), B::Error> {
    let (acc, (acc_min, acc_max)) = backend.accumulate(conv, input)?;
    let scale = conv.w_quant.scale * input.params().scale;
    let (requant, out_quant) = conv_requant_plan(acc_min, acc_max, scale);
    let record = SublayerRecord {
        name: conv.spec.name.clone(),
        acc_min,
        acc_max,
        requant,
        out_quant,
    };
    Ok((acc, scale, record))
}

/// Accumulates and requantizes one conv with its own range.
fn conv_on<B: Backend>(
    backend: &mut B,
    conv: &Conv2d,
    input: &QTensor,
) -> Result<(QTensor, SublayerRecord), B::Error> {
    let (acc, _, record) = accumulate_on(backend, conv, input)?;
    let out = backend.requantize(&acc, record.requant, record.out_quant)?;
    Ok((out, record))
}

/// A branch's output awaiting the block-wide range: a conv-final branch's
/// accumulators with their real scale and the index of their record in the
/// layer's records, or a pool-final branch's codes.
enum Pending {
    Acc {
        acc: AccTensor,
        scale: f64,
        record: usize,
    },
    Codes(QTensor),
}

fn mixed_on<B: Backend>(
    backend: &mut B,
    block: &MixedBlock,
    input: &QTensor,
    records: &mut Vec<SublayerRecord>,
) -> Result<QTensor, B::Error> {
    let mut pending = Vec::with_capacity(block.branches.len());
    for branch in &block.branches {
        branch_on(backend, branch, input, records, &mut pending)?;
    }

    // Block-wide real range (in hardware: per-array min/max trees plus a
    // bus/ring reduction; the CPU then derives the scalars).
    let mut r_min = f64::INFINITY;
    let mut r_max = f64::NEG_INFINITY;
    for p in &pending {
        let (lo, hi) = match p {
            Pending::Acc { scale, record, .. } => {
                let rec = &records[*record];
                (rec.acc_min as f64 * scale, rec.acc_max as f64 * scale)
            }
            Pending::Codes(t) => {
                let lo = t.data().iter().copied().fold(u8::MAX, u8::min);
                let hi = t.data().iter().copied().fold(u8::MIN, u8::max);
                (t.params().dequantize(lo), t.params().dequantize(hi))
            }
        };
        r_min = r_min.min(lo);
        r_max = r_max.max(hi);
    }
    let out_quant = shared_out_quant(r_min, r_max);

    // Requantize every branch output into the shared domain and
    // concatenate.
    let mut parts = Vec::with_capacity(pending.len());
    for p in pending {
        parts.push(match p {
            Pending::Acc { acc, scale, record } => {
                let requant = branch_requantizer(r_min, r_max, scale);
                records[record].requant = requant;
                records[record].out_quant = out_quant;
                backend.requantize(&acc, requant, out_quant)?
            }
            Pending::Codes(t) => {
                let map = CodeRequant::between(t.params(), out_quant);
                backend.code_requant(&t, map, out_quant)?
            }
        });
    }
    Ok(concat_channels(&parts, out_quant))
}

/// Runs one branch on the block input. Every op but the last feeds the
/// next; the last op's output (each conv's, for a terminal split) waits in
/// `pending` for the block-wide range.
fn branch_on<B: Backend>(
    backend: &mut B,
    branch: &Branch,
    input: &QTensor,
    records: &mut Vec<SublayerRecord>,
    pending: &mut Vec<Pending>,
) -> Result<(), B::Error> {
    let mut cur = input.clone();
    let last = branch.ops.len() - 1;
    for (i, op) in branch.ops.iter().enumerate() {
        match op {
            BranchOp::Conv(c) if i < last => {
                let (out, rec) = conv_on(backend, c, &cur)?;
                records.push(rec);
                cur = out;
            }
            BranchOp::Pool(p) if i < last => cur = backend.pool(p, &cur)?,
            BranchOp::Pool(p) => pending.push(Pending::Codes(backend.pool(p, &cur)?)),
            BranchOp::Conv(c) => pend(backend, c, &cur, records, pending)?,
            BranchOp::Split(convs) => {
                for c in convs {
                    pend(backend, c, &cur, records, pending)?;
                }
            }
        }
    }
    Ok(())
}

/// Accumulates a branch-final conv. Its record holds the standalone plan
/// until [`mixed_on`] overwrites it with the shared-range one.
fn pend<B: Backend>(
    backend: &mut B,
    conv: &Conv2d,
    input: &QTensor,
    records: &mut Vec<SublayerRecord>,
    pending: &mut Vec<Pending>,
) -> Result<(), B::Error> {
    let (acc, scale, rec) = accumulate_on(backend, conv, input)?;
    pending.push(Pending::Acc {
        acc,
        scale,
        record: records.len(),
    });
    records.push(rec);
    Ok(())
}

fn concat_channels(parts: &[QTensor], params: ActQuant) -> QTensor {
    let (h, w) = (parts[0].shape().h, parts[0].shape().w);
    let total_c: usize = parts.iter().map(|p| p.shape().c).sum();
    QTensor::from_fn(Shape::new(h, w, total_c), params, |y, x, c| {
        let mut offset = 0;
        for p in parts {
            let pc = p.shape().c;
            if c < offset + pc {
                return p.get(y, x, c - offset);
            }
            offset += pc;
        }
        unreachable!("channel {c} out of range");
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConvSpec, Padding, WeightQuant};

    fn identity_quant() -> ActQuant {
        ActQuant {
            scale: 1.0,
            zero_point: 0,
        }
    }

    /// 1x1 conv with identity-ish quantization for hand-checkable numbers.
    fn tiny_conv(c: usize, m: usize, weights: Vec<u8>, relu: bool) -> Conv2d {
        Conv2d::with_weights(
            ConvSpec {
                name: "tiny".into(),
                r: 1,
                s: 1,
                c,
                m,
                stride: 1,
                padding: Padding::Valid,
                relu,
            },
            weights,
            WeightQuant {
                scale: 1.0,
                zero_point: 0,
            },
            vec![],
        )
    }

    #[test]
    fn accumulate_matches_hand_computation() {
        // input 1x1x3 = [2, 3, 5]; weights for 2 filters: [1,2,3], [10,0,1]
        let input = QTensor::from_vec(Shape::new(1, 1, 3), identity_quant(), vec![2, 3, 5]);
        let conv = tiny_conv(3, 2, vec![1, 2, 3, 10, 0, 1], false);
        let acc = conv_accumulate(&conv, &input);
        assert_eq!(acc.get(0, 0, 0), 2 + 6 + 15);
        assert_eq!(acc.get(0, 0, 1), 20 + 5);
    }

    #[test]
    fn zero_points_cancel_for_zero_real_inputs() {
        // With zp_a = 100, code 100 means real zero; any filter must then
        // produce accumulator zero.
        let params = ActQuant {
            scale: 0.5,
            zero_point: 100,
        };
        let input = QTensor::from_vec(Shape::new(1, 1, 2), params, vec![100, 100]);
        let mut conv = tiny_conv(2, 1, vec![7, 200], false);
        conv.w_quant = WeightQuant {
            scale: 0.25,
            zero_point: 50,
        };
        let acc = conv_accumulate(&conv, &input);
        assert_eq!(acc.get(0, 0, 0), 0);
    }

    #[test]
    fn padding_contributes_exactly_zero() {
        let params = ActQuant {
            scale: 1.0,
            zero_point: 9,
        };
        // 1x1 input, 3x3 SAME conv: 8 of 9 taps are padding.
        let input = QTensor::from_vec(Shape::new(1, 1, 1), params, vec![19]);
        let conv = Conv2d::with_weights(
            ConvSpec {
                name: "pad".into(),
                r: 3,
                s: 3,
                c: 1,
                m: 1,
                stride: 1,
                padding: Padding::Same,
                relu: false,
            },
            vec![5; 9],
            WeightQuant {
                scale: 1.0,
                zero_point: 2,
            },
            vec![],
        );
        let acc = conv_accumulate(&conv, &input);
        // Only the center tap matters: (5-2)*(19-9) = 30.
        assert_eq!(acc.get(0, 0, 0), 30);
    }

    #[test]
    fn relu_and_requant_clamp_negative_accs() {
        let input = QTensor::from_vec(Shape::new(1, 2, 1), identity_quant(), vec![0, 10]);
        // weight code 0 with zp 5 => real weight -5: acc = -5*q.
        let mut conv = tiny_conv(1, 1, vec![0], true);
        conv.w_quant = WeightQuant {
            scale: 1.0,
            zero_point: 5,
        };
        let (out, rec) = run_conv(&conv, &input);
        assert_eq!(rec.acc_min, 0, "ReLU clamps before ranging");
        assert_eq!(rec.acc_max, 0, "all accs negative -> all zero");
        assert_eq!(out.get(0, 0, 0), 0);
        assert_eq!(out.get(0, 1, 0), 0);
    }

    #[test]
    fn max_pool_matches_scalar() {
        let input = QTensor::from_vec(Shape::new(2, 2, 1), identity_quant(), vec![3, 9, 4, 7]);
        let pool = Pool2d {
            name: "p".into(),
            kind: PoolKind::Max,
            k: 2,
            stride: 2,
            padding: Padding::Valid,
        };
        let out = run_pool(&pool, &input);
        assert_eq!(out.shape(), Shape::new(1, 1, 1));
        assert_eq!(out.get(0, 0, 0), 9);
    }

    #[test]
    fn avg_pool_excludes_padding() {
        let input = QTensor::from_vec(Shape::new(2, 2, 1), identity_quant(), vec![4, 8, 12, 16]);
        let pool = Pool2d {
            name: "p".into(),
            kind: PoolKind::Avg,
            k: 3,
            stride: 1,
            padding: Padding::Same,
        };
        let out = run_pool(&pool, &input);
        // Center of a 2x2 with 3x3 SAME: all positions see all 4 values
        // (padded cells excluded): floor(40/4) = 10.
        assert_eq!(out.get(0, 0, 0), 10);
    }

    #[test]
    fn requantized_output_spans_code_range() {
        let input = QTensor::from_vec(Shape::new(1, 4, 1), identity_quant(), vec![0, 50, 100, 200]);
        let conv = tiny_conv(1, 1, vec![3], false);
        let (out, rec) = run_conv(&conv, &input);
        assert_eq!(rec.acc_min, 0);
        assert_eq!(rec.acc_max, 600);
        assert_eq!(out.get(0, 0, 0), 0, "min maps to code 0");
        assert_eq!(out.get(0, 3, 0), 255, "max maps to code 255");
        let mid = out.get(0, 2, 0);
        assert!((125..=130).contains(&mid), "mid ~ 127, got {mid}");
    }

    #[test]
    fn mixed_block_concatenates_with_shared_range() {
        // Two 1x1 branches with very different magnitudes; the shared range
        // must be dominated by the large branch.
        let input = QTensor::from_vec(Shape::new(1, 1, 2), identity_quant(), vec![10, 20]);
        let b_small = Branch::new(vec![BranchOp::Conv(tiny_conv(2, 1, vec![1, 0], true))]);
        let b_large = Branch::new(vec![BranchOp::Conv(tiny_conv(2, 1, vec![100, 100], true))]);
        let block = Layer::Mixed(MixedBlock {
            name: "m".into(),
            branches: vec![b_small, b_large],
        });
        let rec = run_layer(&block, &input);
        assert_eq!(rec.output.shape(), Shape::new(1, 1, 2));
        let small = rec.output.get(0, 0, 0);
        let large = rec.output.get(0, 0, 1);
        assert_eq!(large, 255, "dominant branch hits the top code");
        // Branch values: 10 vs 3000 -> small lands near 10*255/3000.
        assert!(small <= 2, "small branch compressed, got {small}");
        assert_eq!(rec.sublayers.len(), 2);
        // Both sub-layers are named "tiny"; each record still carries the
        // shared domain its own branch was requantized into.
        for sub in &rec.sublayers {
            assert_eq!(sub.out_quant, rec.output.params());
        }
    }

    /// A block with an empty branch is rejected at entry with the
    /// `ModelError` text, in release builds too: the walk never reaches
    /// the branch, whose `ops.len() - 1` would wrap there and concatenate
    /// 10 of the block's 14 channels.
    #[test]
    fn run_layer_rejects_an_empty_branch_at_entry() {
        let mut model = crate::workload::mini_inception(1);
        let input = crate::workload::random_input(model.input_shape, model.input_quant, 1);
        let Layer::Mixed(block) = &mut model.layers[0] else {
            unreachable!("mini_a is a mixed block")
        };
        block.branches[1].ops.clear();
        let err = model.validate().expect_err("an empty branch");
        assert_eq!(err.to_string(), "mini_a: branch 1 has no ops");
        let panic = std::panic::catch_unwind(|| run_layer(&model.layers[0], &input))
            .expect_err("run_layer validates its layer");
        assert_eq!(panic.downcast_ref::<String>(), Some(&err.to_string()));
    }

    #[test]
    fn argmax_picks_largest_channel() {
        let out = QTensor::from_vec(Shape::new(1, 1, 4), identity_quant(), vec![3, 200, 7, 9]);
        let res = InferenceResult {
            output: out,
            layers: vec![],
        };
        assert_eq!(res.argmax(), 1);
    }
}
