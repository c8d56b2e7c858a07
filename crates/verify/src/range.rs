//! Value-range abstract interpretation over the conv schedule (V021–V023,
//! V025–V027).
//!
//! The pass runs an interval × known-bits domain over every convolution
//! sub-layer, seeded from the quantization parameters of `nc-dnn::quant`:
//!
//! - the **interval** half tracks the signed zero-point-corrected
//!   accumulator `ACC = Σ (w - zp_w)(q - zp_a) + bias` before and after the
//!   fused `ReLU` — the value assembled into the 40-bit two's-complement
//!   region, ranged by the min/max trees, and requantized;
//! - the **known-bits** half tracks unsigned magnitude bit-lengths of the
//!   raw-code running sums the bit-serial hardware materializes: the
//!   per-lane `S1` partial (products of `eff_window` taps), the `S1`/`S2`
//!   reduction-tree running sums, and the live multiplicand (weight code)
//!   width.
//!
//! Ranges propagate across layers by a model-level dataflow pass: the layer
//! chain (including mixed-block branches) is a DAG evaluated in execution
//! order, so the dataflow fixpoint is reached in one forward sweep — there
//! are no back edges to iterate. The cross-layer transfer function uses the
//! one fact the runtime-derived requantization guarantees statically:
//! output codes span `[0, 255]`, and a fused `ReLU` (or an all-non-negative
//! mixed block) pins the derived zero point to 0, so the next layer's
//! centered input interval is `[0, 255]` instead of `[-255, 255]`.
//!
//! The static intervals deliberately **over-approximate** the executed
//! ranges (the executors derive requantization from *measured* min/max);
//! [`reconcile_executed_ranges`] closes the loop by proving every executed
//! per-sublayer min/max lies inside its certified interval (V021 on
//! escape). [`check_widths`] certifies the proven running sums and weight
//! codes against an operand [`BitBudget`]; `check_model` passes it the
//! shipped Figure 10 widths.

use nc_dnn::graph::SubOp;
use nc_dnn::reference::SublayerRecord;
use nc_dnn::{Conv2d, Layer, Model};
use neural_cache::cost::DATA_BITS;
use neural_cache::mapping::{bits_for_unsigned, conv_lane_geometry, BitBudget};

use crate::diag::{Diagnostic, ErrorCode};

/// Width of the two's-complement accumulator assembly region (5 bytes; the
/// executor's `AssembleLayout::t` and `C0` width).
pub const ACC_BITS: u32 = 40;

/// The dynamic-ranging bias exponent: min/max trees load accumulators with
/// a `2^38` offset so two's-complement order matches unsigned order, which
/// is only sound for values in `[-2^38, 2^38)`.
pub const RANGING_OFFSET_BITS: u32 = 38;

/// Width of the requantization pipeline's multiply operand: the executor
/// slices `D = ACC - acc_min` to 32 bits before the scalar multiply, so a
/// certified range wider than `2^32` codes would clip.
pub const REQUANT_OPERAND_BITS: u32 = 32;

/// Width of the dedicated per-lane `S2` running-sum region (2 bytes,
/// Figure 10a).
pub const S2_LANE_BITS: u32 = 16;

/// A closed signed interval `[lo, hi]` of accumulator values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Smallest value the abstraction admits.
    pub lo: i64,
    /// Largest value the abstraction admits.
    pub hi: i64,
}

impl Interval {
    /// Builds `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn new(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "inverted interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// The single-value interval.
    #[must_use]
    pub fn point(v: i64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// Whether `v` lies inside the interval.
    #[must_use]
    pub fn contains(&self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Number of distinct values minus one (`hi - lo`), exact even for
    /// intervals spanning most of `i64`.
    #[must_use]
    pub fn width(&self) -> u128 {
        (i128::from(self.hi) - i128::from(self.lo)) as u128
    }

    /// The interval after a fused `ReLU` clamp.
    #[must_use]
    pub fn relu(&self) -> Interval {
        Interval {
            lo: self.lo.max(0),
            hi: self.hi.max(0),
        }
    }

    /// Whether the abstraction admits exactly one value.
    #[must_use]
    pub fn is_degenerate(&self) -> bool {
        self.lo == self.hi
    }

    /// Smallest two's-complement width holding every value of the interval.
    #[must_use]
    pub fn signed_bits(&self) -> u32 {
        let neg = if self.lo < 0 {
            // -2^(b-1) <= lo  <=>  b >= bit-length of -(lo + 1) plus the
            // sign bit (no 1-minimum clamp: -1 genuinely fits one bit).
            (64 - (!(self.lo as u64)).leading_zeros()) + 1
        } else {
            1
        };
        let pos = if self.hi > 0 {
            bits_for_unsigned(self.hi as u64) + 1
        } else {
            1
        };
        neg.max(pos)
    }
}

/// Proven value ranges of one convolution sub-layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvRanges {
    /// Sub-layer name (matches the executed [`SublayerRecord`]).
    pub name: String,
    /// Accumulator interval at 40-bit assembly time, before the fused
    /// `ReLU`.
    pub acc_raw: Interval,
    /// Accumulator interval after the fused `ReLU` — the values the min/max
    /// trees range and the requantizer maps; executed `acc_min`/`acc_max`
    /// must lie inside it.
    pub acc: Interval,
    /// Largest per-lane `S1` partial sum: any `lane_taps` raw-code products
    /// accumulated into the partial region (the bound holds for any
    /// grouping of taps into lanes, channel-major in-cache lanes included).
    pub partial_max: u64,
    /// Largest `S1` reduction-tree running sum (`max_m W1(m) * 255` with
    /// weights, `N * 255^2` shape-only).
    pub s1_max: u64,
    /// Largest `S2` reduction-tree running sum (`N * 255`).
    pub s2_max: u64,
    /// Taps accumulated per lane partial (the mapping's `eff_window`).
    pub lane_taps: usize,
    /// Live multiplicand width: bit-length of the largest weight code.
    pub weight_bits: u32,
    /// Whether the bounds were seeded from actual weights (`false` means
    /// the shape-only full-code-space fallback).
    pub exact_weights: bool,
}

/// Proven ranges of every convolution sub-layer of a model, in
/// [`nc_dnn::ModelGraph::sublayers`] order — positionally aligned with the
/// executed [`SublayerRecord`] streams of both execution engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelRanges {
    /// Model name.
    pub model: String,
    /// Per-sublayer ranges in execution-record order.
    pub convs: Vec<ConvRanges>,
}

impl ModelRanges {
    /// Ranges of the sub-layer called `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&ConvRanges> {
        self.convs.iter().find(|c| c.name == name)
    }
}

/// Abstract activation state flowing between layers: the centered code
/// interval `q - zp` of the tensor. `lo >= 0` iff the zero point is
/// statically known to be 0 (the tensor's real values are non-negative).
#[derive(Debug, Clone, Copy)]
struct ActState {
    centered: Interval,
}

impl ActState {
    /// The state of a requantized tensor: its codes span `[0, 255]`, and
    /// its zero point is provably 0 when its real values are non-negative
    /// (a fused `ReLU` pins `acc_min >= 0`), unknown otherwise.
    fn requantized(non_negative: bool) -> Self {
        let lo = if non_negative { 0 } else { -255 };
        ActState {
            centered: Interval::new(lo, 255),
        }
    }

    fn is_non_negative(&self) -> bool {
        self.centered.lo >= 0
    }
}

/// Saturates an `i128` bound into `i64` (bounds this far out already fail
/// the 40-bit checks, so saturation never hides a hazard).
fn sat(v: i128) -> i64 {
    v.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64
}

/// Runs the value-range abstract interpretation over a whole model, one
/// forward sweep over its validated graph: each sub-layer's input state is
/// the output state of the sub-layer it reads, or of its layer's input.
///
/// Works on shape-only models: sub-layers without weights fall back to the
/// full `[0, 255]` weight code space (marked by
/// [`ConvRanges::exact_weights`] = `false`).
///
/// # Panics
///
/// Panics at entry, with the [`nc_dnn::ModelError`] text, if the model
/// does not validate.
#[must_use]
pub fn model_ranges(model: &Model) -> ModelRanges {
    let graph = model.validate().unwrap_or_else(|e| panic!("{e}"));
    let subs = graph.sublayers();
    let (lo, hi) = model.input_quant.centered_bounds();
    let mut state = ActState {
        centered: Interval::new(lo, hi),
    };
    let mut convs = Vec::with_capacity(subs.len());
    // The output state of every sub-layer, indexed like `subs`.
    let mut states: Vec<ActState> = Vec::with_capacity(subs.len());
    for layer in graph.layers() {
        for sub in graph.sublayers_of(layer) {
            let input = sub.reads.map_or(state, |i| states[i]);
            states.push(match sub.op {
                SubOp::Conv(conv) => {
                    convs.push(conv_ranges(conv, input.centered));
                    ActState::requantized(conv.spec.relu)
                }
                // Pooling preserves codes and quantization parameters.
                SubOp::Pool(_) => input,
            });
        }
        state = if let Layer::Mixed(_) = layer.layer {
            // shared_out_quant derives the block zero point from the
            // block-wide real minimum: non-negative on every branch pins
            // it to 0.
            let mut ends = layer.sublayers.clone().filter(|&i| subs[i].ends_branch);
            ActState::requantized(ends.all(|i| states[i].is_non_negative()))
        } else {
            // A plain conv or pool layer is its one sub-layer.
            states[layer.sublayers.start]
        };
    }
    ModelRanges {
        model: model.name.clone(),
        convs,
    }
}

/// Abstract transfer function of one convolution sub-layer: seeds the
/// domain from the layer's quantization parameters and weight metadata and
/// mirrors the executor's op sequence (tap products, per-lane partial,
/// `S1`/`S2` reduce trees, 40-bit assembly, fused `ReLU`).
///
/// `a` is the centered input interval `q - zp_a`; it always contains 0
/// (padding taps hold the zero-point code, contributing exactly zero), so
/// per-tap product intervals contain 0 and the bounds cover padded windows.
#[must_use]
pub fn conv_ranges(conv: &Conv2d, a: Interval) -> ConvRanges {
    debug_assert!(
        a.contains(0),
        "{}: padding must be representable",
        conv.spec.name
    );
    let spec = &conv.spec;
    let zp_w = i64::from(conv.w_quant.zero_point);
    let n = spec.macs_per_output();
    let geom = conv_lane_geometry(spec);

    let code_bounds = conv.weight_code_bounds();
    let exact_weights = code_bounds.is_some();
    let (wq_lo, wq_hi) = code_bounds.unwrap_or((0, 255));

    // Interval half: the signed accumulator.
    let (a_lo, a_hi) = (i128::from(a.lo), i128::from(a.hi));
    let (raw_lo, raw_hi) = if let Some(weights) = conv.weights.as_ref() {
        // Tap-exact: every weight code is known, so each tap contributes
        // (w - zp_w) * [a_lo, a_hi]; sum per filter, take the filter hull.
        let per_filter = spec.r * spec.s * spec.c;
        let mut lo = i128::MAX;
        let mut hi = i128::MIN;
        for m in 0..spec.m {
            let mut flo = i128::from(conv.bias_of(m));
            let mut fhi = flo;
            for &q in &weights[m * per_filter..(m + 1) * per_filter] {
                let wc = i128::from(i64::from(q) - zp_w);
                let (t_lo, t_hi) = ((wc * a_lo).min(wc * a_hi), (wc * a_lo).max(wc * a_hi));
                flo += t_lo;
                fhi += t_hi;
            }
            lo = lo.min(flo);
            hi = hi.max(fhi);
        }
        (lo, hi)
    } else {
        // Shape-only fallback: N taps each in the product hull of the
        // centered weight and activation intervals.
        let wc = [
            i128::from(i64::from(wq_lo) - zp_w),
            i128::from(i64::from(wq_hi) - zp_w),
        ];
        let products = [wc[0] * a_lo, wc[0] * a_hi, wc[1] * a_lo, wc[1] * a_hi];
        let t_lo = products[0]
            .min(products[1])
            .min(products[2])
            .min(products[3]);
        let t_hi = products[0]
            .max(products[1])
            .max(products[2])
            .max(products[3]);
        let (bias_lo, bias_hi) = conv.bias_bounds();
        let taps = i128::try_from(n).unwrap_or(i128::MAX);
        (
            taps * t_lo + i128::from(bias_lo),
            taps * t_hi + i128::from(bias_hi),
        )
    };
    let acc_raw = Interval::new(sat(raw_lo), sat(raw_hi));
    let acc = if spec.relu { acc_raw.relu() } else { acc_raw };

    // Known-bits half: unsigned raw-code running sums. Activation codes
    // span [0, 255] (requantized tensors attain both ends), weight codes
    // span the measured [wq_lo, wq_hi].
    let partial_max = geom.eff_window as u64 * u64::from(wq_hi) * 255;
    let s1_max = match conv.filter_code_sum_bounds() {
        Some((_, sum_hi)) => sum_hi.max(0) as u64 * 255,
        None => n as u64 * 255 * 255,
    };
    let s2_max = n as u64 * 255;
    let weight_bits = if exact_weights {
        bits_for_unsigned(u64::from(wq_hi))
    } else {
        DATA_BITS as u32
    };

    ConvRanges {
        name: spec.name.clone(),
        acc_raw,
        acc,
        partial_max,
        s1_max,
        s2_max,
        lane_taps: geom.eff_window,
        weight_bits,
        exact_weights,
    }
}

/// Budget-independent pipeline checks of one sub-layer's proven ranges:
/// requantization clipping (V022), ranging sign-extension (V023), and
/// degenerate ranges (V025).
#[must_use]
pub fn check_pipeline(label: &str, r: &ConvRanges) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if r.acc.width() >= 1u128 << REQUANT_OPERAND_BITS {
        out.push(Diagnostic::new(
            ErrorCode::RequantClippingRange,
            label,
            format!(
                "certified accumulator range [{}, {}] spans {} values; the requant multiply \
                 operand holds {REQUANT_OPERAND_BITS} bits",
                r.acc.lo,
                r.acc.hi,
                r.acc.width() + 1
            ),
        ));
    }
    let offset_bound = 1i64 << RANGING_OFFSET_BITS;
    if r.acc.lo < -offset_bound || r.acc.hi >= offset_bound {
        out.push(Diagnostic::new(
            ErrorCode::SignExtensionMismatch,
            label,
            format!(
                "certified interval [{}, {}] cannot be biased by the 2^{RANGING_OFFSET_BITS} \
                 ranging offset without breaking unsigned min/max order",
                r.acc.lo, r.acc.hi
            ),
        ));
    }
    if r.acc.is_degenerate() {
        out.push(Diagnostic::new(
            ErrorCode::DegenerateRange,
            label,
            format!(
                "certified range is the single value {}: the sub-layer computes a constant",
                r.acc.lo
            ),
        ));
    }
    out
}

/// Soundness of an operand bit budget against proven bounds: accumulator /
/// partial overflow (V021), live-bit truncation (V026), and reduce-tree
/// width deficit (V027). Clean means every proven running sum and weight
/// code fits its `budget` region without wrapping or truncating.
#[must_use]
pub fn check_widths(label: &str, r: &ConvRanges, budget: &BitBudget) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if bits_for_unsigned(r.partial_max) > budget.partial_bits {
        out.push(Diagnostic::new(
            ErrorCode::AccumulatorOverflow,
            label,
            format!(
                "lane partial sum can reach {} ({} bits); the partial region holds {} bits \
                 and would silently wrap",
                r.partial_max,
                bits_for_unsigned(r.partial_max),
                budget.partial_bits
            ),
        ));
    }
    if r.acc_raw.signed_bits() > ACC_BITS {
        out.push(Diagnostic::new(
            ErrorCode::AccumulatorOverflow,
            label,
            format!(
                "assembled accumulator interval [{}, {}] needs {} bits; the two's-complement \
                 assembly region holds {ACC_BITS}",
                r.acc_raw.lo,
                r.acc_raw.hi,
                r.acc_raw.signed_bits()
            ),
        ));
    }
    if budget.mult_bits < r.weight_bits {
        out.push(Diagnostic::new(
            ErrorCode::UnsoundTruncation,
            label,
            format!(
                "live-bit truncation to {} bits drops set weight bits (largest weight code \
                 needs {} bits): products would corrupt",
                budget.mult_bits, r.weight_bits
            ),
        ));
    }
    let reduce_need = bits_for_unsigned(r.s1_max.max(r.s2_max));
    if reduce_need > budget.reduce_bits {
        out.push(Diagnostic::new(
            ErrorCode::ReduceWidthDeficit,
            label,
            format!(
                "reduce-tree running sums can reach {} ({} bits); the reduction segments hold \
                 {} bits",
                r.s1_max.max(r.s2_max),
                reduce_need,
                budget.reduce_bits
            ),
        ));
    }
    let s2_lane_max = r.lane_taps as u64 * 255;
    if bits_for_unsigned(s2_lane_max) > S2_LANE_BITS {
        out.push(Diagnostic::new(
            ErrorCode::ReduceWidthDeficit,
            label,
            format!(
                "per-lane S2 window sum can reach {s2_lane_max}; the dedicated S2 region holds \
                 {S2_LANE_BITS} bits"
            ),
        ));
    }
    out
}

/// The executed leg of the certification: every per-sublayer `acc_min` /
/// `acc_max` an execution engine measured must lie inside the certified
/// static interval (V021 on escape). Records reconcile positionally — both
/// engines emit them in the execution order [`model_ranges`] certifies in.
#[must_use]
pub fn reconcile_executed_ranges(
    label: &str,
    ranges: &ModelRanges,
    executed: &[SublayerRecord],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if executed.len() != ranges.convs.len() {
        out.push(Diagnostic::new(
            ErrorCode::AccumulatorOverflow,
            label,
            format!(
                "executed {} sub-layer records; the range analysis certified {}",
                executed.len(),
                ranges.convs.len()
            ),
        ));
        return out;
    }
    for (r, rec) in ranges.convs.iter().zip(executed) {
        let ctx = format!("{}/{label}", rec.name);
        if rec.name != r.name {
            out.push(Diagnostic::new(
                ErrorCode::AccumulatorOverflow,
                &ctx,
                format!(
                    "executed record order diverges from certified order ({})",
                    r.name
                ),
            ));
            continue;
        }
        if !r.acc.contains(rec.acc_min) || !r.acc.contains(rec.acc_max) {
            out.push(Diagnostic::new(
                ErrorCode::AccumulatorOverflow,
                &ctx,
                format!(
                    "executed accumulator range [{}, {}] escapes the certified interval [{}, {}]",
                    rec.acc_min, rec.acc_max, r.acc.lo, r.acc.hi
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_dnn::reference::run_model;
    use nc_dnn::workload::{pruned_inception, random_input, relu_sparse_mini, tiny_cnn};
    use nc_dnn::{ActQuant, ConvSpec, Padding, WeightQuant};

    fn conv(weights: Vec<u8>, c: usize, m: usize, relu: bool) -> Conv2d {
        Conv2d::with_weights(
            ConvSpec {
                name: "t".into(),
                r: 1,
                s: 1,
                c,
                m,
                stride: 1,
                padding: Padding::Valid,
                relu,
            },
            weights,
            WeightQuant::default(),
            vec![],
        )
    }

    #[test]
    fn interval_bits_and_width() {
        assert_eq!(Interval::new(0, 0).signed_bits(), 1);
        assert_eq!(Interval::new(-1, 0).signed_bits(), 1);
        assert_eq!(Interval::new(0, 1).signed_bits(), 2);
        assert_eq!(Interval::new(-2, 1).signed_bits(), 2);
        assert_eq!(Interval::new(-3, 1).signed_bits(), 3);
        assert_eq!(Interval::new(0, 127).signed_bits(), 8);
        assert_eq!(Interval::new(-128, 127).signed_bits(), 8);
        assert_eq!(Interval::new(-129, 0).signed_bits(), 9);
        assert_eq!(Interval::new(i64::MIN, i64::MAX).signed_bits(), 64);
        assert_eq!(
            Interval::new(i64::MIN, i64::MAX).width(),
            u128::from(u64::MAX)
        );
        assert_eq!(Interval::new(-4, 3).relu(), Interval::new(0, 3));
        assert_eq!(Interval::new(-4, -2).relu(), Interval::point(0));
    }

    #[test]
    fn conv_transfer_is_tap_exact_with_weights() {
        // Weights [3, 0] with zp_w = 0, input centered [0, 255]:
        // filter acc in [0, 3*255] exactly.
        let c = conv(vec![3, 0], 2, 1, false);
        let r = conv_ranges(&c, Interval::new(0, 255));
        assert_eq!(r.acc_raw, Interval::new(0, 765));
        assert!(r.exact_weights);
        assert_eq!(r.weight_bits, 2);
        assert_eq!(r.s2_max, 2 * 255);
        assert_eq!(r.s1_max, 3 * 255);
    }

    #[test]
    fn relu_clamps_the_certified_interval() {
        let mut c = conv(vec![0, 0], 2, 1, true);
        c.w_quant = WeightQuant {
            scale: 1.0,
            zero_point: 5,
        };
        // Centered weights are -5 each: raw acc in [-10*255, 0].
        let r = conv_ranges(&c, Interval::new(0, 255));
        assert_eq!(r.acc_raw, Interval::new(-2550, 0));
        assert_eq!(r.acc, Interval::point(0), "ReLU pins the whole range");
        assert!(check_pipeline("t", &r)
            .iter()
            .any(|d| d.code == ErrorCode::DegenerateRange));
    }

    #[test]
    fn executed_ranges_stay_inside_static_bounds_on_reference_runs() {
        for (model, seed) in [(tiny_cnn(42), 7u64), (relu_sparse_mini(7), 9)] {
            let ranges = model_ranges(&model);
            let input = random_input(model.input_shape, model.input_quant, seed);
            let result = run_model(&model, &input);
            let executed: Vec<SublayerRecord> = result
                .layers
                .iter()
                .flat_map(|l| l.sublayers.clone())
                .collect();
            let diags = reconcile_executed_ranges("reference", &ranges, &executed);
            assert!(diags.is_empty(), "{model:?}: {diags:?}", model = model.name);
        }
    }

    #[test]
    fn default_widths_certify_clean_on_shipped_models() {
        for model in [tiny_cnn(1), relu_sparse_mini(3), pruned_inception(2018)] {
            let ranges = model_ranges(&model);
            assert_eq!(ranges.convs.len(), model.conv_sublayer_count());
            for r in &ranges.convs {
                let budget = BitBudget::default_for(&r.name);
                let diags = check_widths(&r.name, r, &budget);
                assert!(diags.is_empty(), "{}: {diags:?}", r.name);
                assert!(check_pipeline(&r.name, r).is_empty(), "{}", r.name);
            }
        }
    }

    #[test]
    fn undersized_budgets_fire_the_width_codes() {
        let c = conv(vec![255; 8], 8, 1, false);
        let r = conv_ranges(&c, Interval::new(-128, 127));
        let starved = BitBudget {
            name: "t".into(),
            mult_bits: 4,
            partial_bits: 6,
            reduce_bits: 8,
        };
        let codes: Vec<ErrorCode> = check_widths("t", &r, &starved)
            .into_iter()
            .map(|d| d.code)
            .collect();
        assert!(codes.contains(&ErrorCode::AccumulatorOverflow));
        assert!(codes.contains(&ErrorCode::UnsoundTruncation));
        assert!(codes.contains(&ErrorCode::ReduceWidthDeficit));
    }

    #[test]
    fn huge_shape_only_layers_fire_pipeline_codes() {
        // A shape-only conv with an absurd tap count overflows the 40-bit
        // assembly region, the ranging offset, and the requant operand.
        let spec = ConvSpec {
            name: "huge".into(),
            r: 64,
            s: 64,
            c: 4096,
            m: 1,
            stride: 1,
            padding: Padding::Valid,
            relu: false,
        };
        let r = conv_ranges(&Conv2d::shape_only(spec), Interval::new(-255, 255));
        let pipeline: Vec<ErrorCode> = check_pipeline("huge", &r)
            .into_iter()
            .map(|d| d.code)
            .collect();
        assert!(pipeline.contains(&ErrorCode::RequantClippingRange));
        assert!(pipeline.contains(&ErrorCode::SignExtensionMismatch));
        let widths: Vec<ErrorCode> = check_widths("huge", &r, &BitBudget::default_for("huge"))
            .into_iter()
            .map(|d| d.code)
            .collect();
        assert!(widths.contains(&ErrorCode::AccumulatorOverflow));
        assert!(widths.contains(&ErrorCode::ReduceWidthDeficit));
    }

    #[test]
    fn reconciliation_flags_escapes_and_order_drift() {
        let model = tiny_cnn(3);
        let ranges = model_ranges(&model);
        let input = random_input(model.input_shape, model.input_quant, 1);
        let mut executed: Vec<SublayerRecord> = run_model(&model, &input)
            .layers
            .iter()
            .flat_map(|l| l.sublayers.clone())
            .collect();
        executed[0].acc_max = i64::MAX / 2; // escape the certified interval
        let diags = reconcile_executed_ranges("seq", &ranges, &executed);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, ErrorCode::AccumulatorOverflow);
        assert!(diags[0].message.contains("escapes"));

        let truncated = &executed[..1];
        let diags = reconcile_executed_ranges("seq", &ranges, truncated);
        assert_eq!(diags.len(), 1, "record-count drift is one diagnostic");
    }

    #[test]
    fn input_quant_seeds_the_first_layer() {
        let q = ActQuant {
            scale: 1.0,
            zero_point: 128,
        };
        let mut model = tiny_cnn(2);
        model.input_quant = q;
        let ranges = model_ranges(&model);
        // First conv's interval must reflect the centered [-128, 127] seed,
        // i.e. be narrower than the unknown-zero-point worst case.
        let wide = conv_ranges(
            model.layers[0].conv_sublayers().next().unwrap(),
            Interval::new(-255, 255),
        );
        assert!(ranges.convs[0].acc_raw.hi <= wide.acc_raw.hi);
        assert!(ranges.convs[0].acc_raw.lo >= wide.acc_raw.lo);
    }
}
