//! The golden model: a plain-Rust integer executor for quantized inference.
//!
//! The paper verifies its cycle-accurate simulator "by running data traces
//! on it and matching the results with traces obtained from instrumenting
//! the TensorFlow model" (Section V). We have no TensorFlow; this executor
//! plays that role: it implements the *exact* integer
//! arithmetic of [`crate::quant`], and the in-cache functional executor must
//! reproduce its outputs bit-for-bit.

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

/// Runs the whole model on `input`, recording per-layer requantization
/// decisions.
///
/// # Panics
///
/// Panics if the input shape mismatches the model or any convolution
/// sub-layer lacks weights.
#[must_use]
pub fn run_model(model: &Model, input: &QTensor) -> InferenceResult {
    assert_eq!(
        input.shape(),
        model.input_shape,
        "input shape does not match model"
    );
    let mut cur = input.clone();
    let mut layers = Vec::with_capacity(model.layers.len());
    for layer in &model.layers {
        let record = run_layer(layer, &cur);
        cur = record.output.clone();
        layers.push(record);
    }
    InferenceResult {
        output: cur,
        layers,
    }
}

/// Runs one top-level layer.
#[must_use]
pub fn run_layer(layer: &Layer, input: &QTensor) -> LayerRecord {
    match layer {
        Layer::Conv(conv) => {
            let (out, rec) = run_conv(conv, input);
            LayerRecord {
                name: conv.spec.name.clone(),
                sublayers: vec![rec],
                output: out,
            }
        }
        Layer::Pool(pool) => LayerRecord {
            name: pool.name.clone(),
            sublayers: Vec::new(),
            output: run_pool(pool, input),
        },
        Layer::Mixed(block) => run_mixed(block, input),
    }
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

/// Runs one standalone convolution sub-layer: accumulate, fused `ReLU`,
/// dynamic ranging, requantize.
#[must_use]
pub fn run_conv(conv: &Conv2d, input: &QTensor) -> (QTensor, SublayerRecord) {
    let mut acc = conv_accumulate(conv, input);
    if conv.spec.relu {
        acc.relu();
    }
    let (acc_min, acc_max) = acc.min_max();
    let acc_scale = conv.w_quant.scale * input.params().scale;
    let (requant, out_quant) = conv_requant_plan(acc_min, acc_max, acc_scale);
    let out = requantize_acc(&acc, requant, out_quant);
    (
        out,
        SublayerRecord {
            name: conv.spec.name.clone(),
            acc_min,
            acc_max,
            requant,
            out_quant,
        },
    )
}

fn requantize_acc(acc: &AccTensor, requant: Requantizer, out_quant: ActQuant) -> QTensor {
    let s = acc.shape();
    QTensor::from_fn(s, out_quant, |y, x, c| requant.apply(acc.get(y, x, c)))
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

/// Runs an Inception mixed block: branches execute serially; intermediate
/// tensors requantize with their own dynamic range; the branch outputs
/// share the block-wide real range and concatenate along channels
/// (Section IV-D: min/max "of the entire cache" once per layer).
#[must_use]
pub fn run_mixed(block: &MixedBlock, input: &QTensor) -> LayerRecord {
    let mut sublayers = Vec::new();
    let mut pending = Vec::with_capacity(block.branches.len());

    for branch in &block.branches {
        let (ps, mut recs) = run_branch(branch, input);
        sublayers.append(&mut recs);
        pending.extend(ps);
    }

    // Block-wide real output range.
    let mut r_min = f64::INFINITY;
    let mut r_max = f64::NEG_INFINITY;
    for p in &pending {
        match p {
            Pending::Acc(acc, scale, _) => {
                let (lo, hi) = acc.min_max();
                r_min = r_min.min(lo as f64 * scale);
                r_max = r_max.max(hi as f64 * scale);
            }
            Pending::Codes(t) => {
                let (mut lo, mut hi) = (u8::MAX, u8::MIN);
                for &q in t.data() {
                    lo = lo.min(q);
                    hi = hi.max(q);
                }
                r_min = r_min.min(t.params().dequantize(lo));
                r_max = r_max.max(t.params().dequantize(hi));
            }
        }
    }
    let out_quant = shared_out_quant(r_min, r_max);

    // Requantize every branch into the shared domain and concatenate.
    let mut parts: Vec<QTensor> = Vec::with_capacity(pending.len());
    for p in pending {
        match p {
            Pending::Acc(acc, scale, name) => {
                let requant = branch_requantizer(r_min, r_max, scale);
                let (acc_min, acc_max) = acc.min_max();
                parts.push(requantize_acc(&acc, requant, out_quant));
                // Update the record of this final sub-layer with the shared
                // requant actually applied.
                if let Some(rec) = sublayers.iter_mut().rev().find(|r| r.name == name) {
                    rec.requant = requant;
                    rec.out_quant = out_quant;
                    rec.acc_min = acc_min;
                    rec.acc_max = acc_max;
                }
            }
            Pending::Codes(t) => {
                let map = CodeRequant::between(t.params(), out_quant);
                let mut re = t.clone();
                for (i, &q) in t.data().iter().enumerate() {
                    let (y, x, c) = unflatten(t.shape(), i);
                    re.set(y, x, c, map.apply(q));
                }
                re.set_params(out_quant);
                parts.push(re);
            }
        }
    }

    let concat = concat_channels(&parts, out_quant);
    LayerRecord {
        name: block.name.clone(),
        sublayers,
        output: concat,
    }
}

fn run_branch(branch: &Branch, input: &QTensor) -> (Vec<Pending>, Vec<SublayerRecord>) {
    let mut records = Vec::new();
    let mut cur = input.clone();
    let last = branch.ops.len() - 1;
    for (i, op) in branch.ops.iter().enumerate() {
        match op {
            BranchOp::Pool(p) => {
                let out = run_pool(p, &cur);
                if i == last {
                    return (vec![Pending::Codes(out)], records);
                }
                cur = out;
            }
            BranchOp::Conv(c) => {
                if i == last {
                    let (p, rec) = pend_conv(c, &cur);
                    records.push(rec);
                    return (vec![p], records);
                }
                let (out, rec) = run_conv(c, &cur);
                records.push(rec);
                cur = out;
            }
            BranchOp::Split(convs) => {
                // Terminal fan-out: every split conv consumes `cur` and
                // defers requantization to the block range.
                let mut pendings = Vec::with_capacity(convs.len());
                for c in convs {
                    let (p, rec) = pend_conv(c, &cur);
                    records.push(rec);
                    pendings.push(p);
                }
                return (pendings, records);
            }
        }
    }
    unreachable!("branch has at least one op");
}

/// Runs a conv whose requantization is deferred to the block-shared range.
fn pend_conv(c: &Conv2d, input: &QTensor) -> (Pending, SublayerRecord) {
    let mut acc = conv_accumulate(c, input);
    if c.spec.relu {
        acc.relu();
    }
    let scale = c.w_quant.scale * input.params().scale;
    let (acc_min, acc_max) = acc.min_max();
    // Placeholder record; run_mixed overwrites requant/out_quant with the
    // shared-range version once the block range is known.
    let (requant, out_quant) = conv_requant_plan(acc_min, acc_max, scale);
    let rec = SublayerRecord {
        name: c.spec.name.clone(),
        acc_min,
        acc_max,
        requant,
        out_quant,
    };
    (Pending::Acc(acc, scale, c.spec.name.clone()), rec)
}

/// A branch's final output awaiting the block-wide shared range: either raw
/// accumulators (conv-final branch, with their real scale and name) or
/// already-coded values (pool-final branch).
enum Pending {
    Acc(AccTensor, f64, String),
    Codes(QTensor),
}

fn unflatten(shape: Shape, idx: usize) -> (usize, usize, usize) {
    let c = idx % shape.c;
    let x = (idx / shape.c) % shape.w;
    let y = idx / (shape.c * shape.w);
    (y, x, c)
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
        let block = MixedBlock {
            name: "m".into(),
            branches: vec![b_small, b_large],
        };
        let rec = run_mixed(&block, &input);
        assert_eq!(rec.output.shape(), Shape::new(1, 1, 2));
        let small = rec.output.get(0, 0, 0);
        let large = rec.output.get(0, 0, 1);
        assert_eq!(large, 255, "dominant branch hits the top code");
        // Branch values: 10 vs 3000 -> small lands near 10*255/3000.
        assert!(small <= 2, "small branch compressed, got {small}");
        assert_eq!(rec.sublayers.len(), 2);
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
