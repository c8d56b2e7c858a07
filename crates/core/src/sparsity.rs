//! Sparsity analysis and the round-skipping execution mode — the paper's
//! stated future work (Section VII: "Utilizing sparsity in DNN models for
//! Neural Cache is a promising direction").
//!
//! Bit-serial multiplication iterates over *multiplier bits*: each zero bit
//! of the multiplier still costs a tag load plus `n` predicated add cycles,
//! because lanes are SIMD — a round can only be elided if **every** lane
//! agrees. Weights are stationary, so with the filters as the multiplier
//! the control FSM knows every all-lanes-zero bit-slice row at filter-load
//! time and can skip those rounds for free; [`SparsityMode::SkipZeroRows`]
//! turns that on across the SRAM ops, the functional executor, and the
//! timing simulator (see `nc_sram::ComputeArray::mul_skip_zero_rows`).
//!
//! This module measures, for a weight distribution, the rounds actually
//! removable in Neural Cache (all-lanes-zero rows) on the **executor's
//! lane map** ([`crate::mapping::LaneMap`]), so the analytical skip
//! fraction agrees exactly with the executed
//! [`nc_sram::CycleStats::skipped_rounds`] counters.
//!
//! Activations are not stationary, so the one dynamic mode,
//! [`SparsityMode::SkipBoth`], pays a wired-NOR detect per round; its
//! input-side opportunity is measured per input by [`activation_profile`],
//! inside the golden model's run of the shared layer walk
//! ([`nc_dnn::reference::run_layer_on`]), and its static multiplicand
//! truncation by [`conv_live_mult_bits`].

use std::convert::Infallible;

use nc_dnn::graph::Sublayer;
use nc_dnn::quant::CodeRequant;
use nc_dnn::reference::{self, Backend, Golden};
use nc_dnn::{AccTensor, ActQuant, Conv2d, Model, Pool2d, QTensor, Requantizer};

use crate::cost::DATA_BITS;
use crate::mapping::{gather_window, LaneMap, LayerPlan, UnitPlan};

/// Which multiplier-bit rounds the executors elide.
///
/// The knob lives on [`crate::SystemConfig`]; every mode produces
/// **bit-identical outputs** (an elided round is a functional no-op by
/// construction), only cycle counts change. The weight-side mode skips for
/// free (the FSM learns all-zero filter bit-slices at load time); the
/// input-side mode pays a 1-cycle tag-latch wired-NOR zero-detect on every
/// scheduled round, because activations are not stationary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SparsityMode {
    /// Execute every multiplier-bit round (the paper's baseline machine).
    #[default]
    Dense,
    /// Elide rounds whose weight bit-slice row is zero on every lane of the
    /// array (Section VII future work; BitWave-style bit-level skipping).
    /// The stationary filters serve as the multiplier.
    SkipZeroRows,
    /// Elide rounds whose **input** bit-slice row is zero on every lane,
    /// detected at run time by the tag-latch wired-NOR (1 cycle per
    /// scheduled round), and truncate executed rounds to the highest live
    /// weight bit-slice (known at filter-load time). The streamed input
    /// byte serves as the multiplier; ReLU-sparse activations make most
    /// rounds elidable, dense ones make the detect pure overhead.
    /// Truncation is free and exact, and on full-width weights it leaves
    /// the input-skip schedule unchanged.
    SkipBoth,
}

impl SparsityMode {
    /// Whether this mode pays the per-round dynamic zero-detect (the input
    /// side of the skip machinery).
    #[must_use]
    pub fn dynamic_detect(&self) -> bool {
        matches!(self, SparsityMode::SkipBoth)
    }
}

/// Round-skip opportunity of one convolution sub-layer on its real lane
/// packing, counted per output window (the same filter layout repeats for
/// every window, so the fraction equals the executed one exactly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipProfile {
    /// Multiplier-bit rounds elidable per output window.
    pub skippable_rounds: u64,
    /// Multiplier-bit rounds scheduled per output window.
    pub total_rounds: u64,
}

impl SkipProfile {
    /// Fraction of scheduled rounds that are elidable.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.total_rounds == 0 {
            0.0
        } else {
            self.skippable_rounds as f64 / self.total_rounds as f64
        }
    }
}

/// The `(m-block, array, tap)` OR masks of a convolution's filter bytes on
/// the executor's lane map, in execution order: bit `j` of a mask is set
/// exactly when round `(tap, j)` has a live 1 bit on some lane of that
/// array.
fn filter_or_masks(conv: &Conv2d) -> Vec<u8> {
    let spec = &conv.spec;
    let weights = conv
        .weights
        .as_deref()
        .expect("weight-skip analysis needs weights");
    let map = LaneMap::new(spec);
    let geom = map.geometry();
    let per_filter = spec.macs_per_output();
    let filter = |f: usize| &weights[f * per_filter..(f + 1) * per_filter];
    let groups = geom.groups_per_array(spec.m);
    let mut masks = Vec::new();
    for first in (0..spec.m).step_by(groups) {
        let block = first..spec.m.min(first + groups);
        for a in 0..geom.arrays_per_filter {
            for t in 0..geom.eff_window {
                masks.push(
                    block
                        .clone()
                        .fold(0, |or, f| or | map.or_mask(filter(f), a, t)),
                );
            }
        }
    }
    masks
}

/// Measures the SIMD skip profile of one convolution on the exact lane
/// packing the mapper/executor realize: filter bytes are placed by the
/// executor's [`LaneMap`], grouped `groups_per_array` at a time, and a round
/// `(m-block, array, tap, bit)` is elidable only when that bit is zero on
/// **every** live lane of the array.
///
/// # Panics
///
/// Panics if the sub-layer is shape-only.
#[must_use]
pub fn conv_skip_profile(conv: &Conv2d) -> SkipProfile {
    let masks = filter_or_masks(conv);
    // DATA_BITS = 8 = u8::BITS: every zero bit of a mask is one elidable
    // round.
    SkipProfile {
        skippable_rounds: masks.iter().map(|m| u64::from(m.count_zeros())).sum(),
        total_rounds: (masks.len() * DATA_BITS) as u64,
    }
}

/// Sparsity statistics of one convolution sub-layer's weights.
#[derive(Debug, Clone, PartialEq)]
pub struct SparsityStats {
    /// Output windows (`E_h * E_w`): every window re-executes the same
    /// round schedule, so model-level fractions weight by this count.
    pub positions: usize,
    /// Round-skip profile on the mapper's actual lane packing.
    pub profile: SkipProfile,
}

/// Sparsity report over a whole model.
#[derive(Debug, Clone, PartialEq)]
pub struct SparsityReport {
    /// Per-sub-layer statistics.
    pub sublayers: Vec<SparsityStats>,
}

impl SparsityReport {
    /// Mean SIMD-feasible skip fraction, weighted by executed rounds
    /// (per-window rounds times output windows). Every window re-runs the
    /// same round schedule, so this equals the functional executor's
    /// `skipped_rounds / mul_rounds` **exactly**, on any model.
    #[must_use]
    pub fn simd_skip(&self) -> f64 {
        let total: u64 = self
            .sublayers
            .iter()
            .map(|s| s.positions as u64 * s.profile.total_rounds)
            .sum();
        if total == 0 {
            return 0.0;
        }
        self.sublayers
            .iter()
            .map(|s| s.positions as u64 * s.profile.skippable_rounds)
            .sum::<u64>() as f64
            / total as f64
    }
}

/// Analyzes the weight sparsity of every convolution sub-layer of the
/// model's validated graph, in execution order; each sub-layer's output
/// shape gives its output-window count (the executed-round weighting).
///
/// # Panics
///
/// Panics at entry, with the [`nc_dnn::ModelError`] text, if the model
/// does not validate, and if it is shape-only (no weights to analyze).
#[must_use]
pub fn analyze(model: &Model) -> SparsityReport {
    let graph = model.validate().unwrap_or_else(|e| panic!("{e}"));
    assert!(model.has_weights(), "sparsity analysis needs weights");
    let stats = |sub: &Sublayer<'_>| {
        sub.op.conv().map(|conv| SparsityStats {
            positions: sub.output.h * sub.output.w,
            // SIMD: the real lane packing, exactly as executed.
            profile: conv_skip_profile(conv),
        })
    };
    SparsityReport {
        sublayers: graph.sublayers().iter().filter_map(stats).collect(),
    }
}

/// Rounds-weighted mean of the **live multiplicand width** the control FSM
/// schedules per executed round under [`SparsityMode::SkipBoth`]: for each
/// `(m-block, array, tap)` multiply, the highest live weight bit-slice
/// across the array's lanes (`8 - leading_zeros` of the OR mask), averaged
/// over every multiply of the sub-layer on its real lane packing. The
/// timing model prices executed rounds at `live + 2` cycles instead of
/// `DATA_BITS + 2`.
///
/// # Panics
///
/// Panics if the sub-layer is shape-only.
#[must_use]
pub fn conv_live_mult_bits(conv: &Conv2d) -> f64 {
    let masks = filter_or_masks(conv);
    if masks.is_empty() {
        DATA_BITS as f64
    } else {
        let live: u64 = masks.iter().map(|m| u64::from(8 - m.leading_zeros())).sum();
        live as f64 / masks.len() as f64
    }
}

/// Measured input-activation round-skip opportunity of one convolution
/// sub-layer on one **actual input tensor**, counted over the full
/// execution (every output window, m-block, array and tap — unlike the
/// per-window [`SkipProfile`], activations differ per window, so there is
/// no repeating schedule to factor out).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivationStats {
    /// Sub-layer name.
    pub name: String,
    /// Input-bit rounds the wired-NOR detect elides across the whole
    /// sub-layer execution.
    pub skippable_rounds: u64,
    /// Multiplier-bit rounds scheduled across the whole sub-layer
    /// execution.
    pub total_rounds: u64,
}

impl ActivationStats {
    /// Fraction of scheduled rounds the detect elides.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.total_rounds == 0 {
            0.0
        } else {
            self.skippable_rounds as f64 / self.total_rounds as f64
        }
    }
}

/// Per-input activation-sparsity measurement over a whole model: the
/// dynamic analogue of [`SparsityReport`]. Where PR 3's weight analysis
/// runs once at plan time, this must be re-measured per input — the FSM
/// cannot precompute activation zeros, and neither can the analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivationProfile {
    /// Per-conv-sub-layer statistics, in execution order.
    pub sublayers: Vec<ActivationStats>,
}

impl ActivationProfile {
    /// Total elidable input-bit rounds over the model execution.
    #[must_use]
    pub fn skippable_rounds(&self) -> u64 {
        self.sublayers.iter().map(|s| s.skippable_rounds).sum()
    }

    /// Total scheduled multiplier-bit rounds over the model execution.
    #[must_use]
    pub fn total_rounds(&self) -> u64 {
        self.sublayers.iter().map(|s| s.total_rounds).sum()
    }

    /// Model-level input-skip fraction; equals the functional executor's
    /// `input_rounds_skipped / mul_rounds` **exactly** under
    /// [`SparsityMode::SkipBoth`] on the same input (both walk the
    /// identical lane packing).
    #[must_use]
    pub fn input_skip(&self) -> f64 {
        let total = self.total_rounds();
        if total == 0 {
            0.0
        } else {
            self.skippable_rounds() as f64 / total as f64
        }
    }

    /// Measured skip fraction of one named sub-layer (`None` when the
    /// profile has no such sub-layer).
    #[must_use]
    pub fn skip_of(&self, name: &str) -> Option<f64> {
        self.sublayers
            .iter()
            .find(|s| s.name == name)
            .map(ActivationStats::fraction)
    }

    /// Writes the measured per-sub-layer skip fractions into a set of
    /// plans (matched by sub-layer name), so the timing simulator can price
    /// the dynamic skip for this specific input. Plans whose mode is not
    /// dynamic ignore the fractions.
    pub fn apply_to_plans(&self, plans: &mut [LayerPlan]) {
        for plan in plans {
            for unit in &mut plan.units {
                if let UnitPlan::Conv(c) = unit {
                    if let Some(f) = self.skip_of(&c.name) {
                        c.input_skip_fraction = f;
                    }
                }
            }
        }
    }
}

/// Measures the dynamic input-bit skip opportunity of every convolution
/// sub-layer of `model` on one actual `input`, walking the executor's lane
/// map ([`LaneMap`] over the executor's window gathering) on each conv's
/// actual input tensor. The model runs once, on the golden model through
/// the layer walk the functional executor shares, which it matches bit
/// for bit — so the profile predicts the executed
/// [`nc_sram::CycleStats::input_rounds_skipped`] counters **exactly**.
///
/// # Panics
///
/// Panics at entry, with the [`nc_dnn::ModelError`] text, if the model
/// does not validate; and if the model is shape-only or the input shape
/// mismatches.
#[must_use]
pub fn activation_profile(model: &Model, input: &QTensor) -> ActivationProfile {
    let graph = model.validate().unwrap_or_else(|e| panic!("{e}"));
    assert!(model.has_weights(), "activation profiling needs weights");
    assert_eq!(input.shape(), model.input_shape, "input shape mismatch");
    let mut profiler = Profiler(Vec::new());
    let mut cur = input.clone();
    for layer in graph.layers() {
        let Ok(record) = reference::run_layer_on(&mut profiler, layer.layer, &cur);
        cur = record.output;
    }
    ActivationProfile {
        sublayers: profiler.0,
    }
}

/// The golden model's arithmetic, profiling each conv's input first.
struct Profiler(Vec<ActivationStats>);

impl Backend for Profiler {
    type Error = Infallible;

    fn accumulate(
        &mut self,
        conv: &Conv2d,
        input: &QTensor,
    ) -> Result<(AccTensor, (i64, i64)), Infallible> {
        self.0.push(profile_conv(conv, input));
        Golden.accumulate(conv, input)
    }

    fn requantize(
        &mut self,
        acc: &AccTensor,
        requant: Requantizer,
        out_quant: ActQuant,
    ) -> Result<QTensor, Infallible> {
        Golden.requantize(acc, requant, out_quant)
    }

    fn pool(&mut self, pool: &Pool2d, input: &QTensor) -> Result<QTensor, Infallible> {
        Golden.pool(pool, input)
    }

    fn code_requant(
        &mut self,
        codes: &QTensor,
        map: CodeRequant,
        out_quant: ActQuant,
    ) -> Result<QTensor, Infallible> {
        Golden.code_requant(codes, map, out_quant)
    }
}

/// One sub-layer's input-bit skip measurement: for every output window,
/// gather the padded window exactly as the executor does
/// ([`gather_window`]), OR each tap's bytes over every lane of each array
/// on the executor's lane map ([`LaneMap::or_mask`]), and count the zero
/// bits of the mask — each is one round the wired-NOR elides. M-blocks
/// replicate the same input lanes, so their rounds multiply the count.
fn profile_conv(conv: &Conv2d, input: &QTensor) -> ActivationStats {
    let spec = &conv.spec;
    let out_shape = spec.out_shape(input.shape());
    let map = LaneMap::new(spec);
    let geom = map.geometry();
    let m_blocks = spec.m.div_ceil(geom.groups_per_array(spec.m)) as u64;

    let mut skippable = 0u64;
    let mut total = 0u64;
    let mut window = vec![0u8; spec.macs_per_output()];
    for ey in 0..out_shape.h {
        for ex in 0..out_shape.w {
            gather_window(input, spec, ey, ex, &mut window);
            for a in 0..geom.arrays_per_filter {
                for t in 0..geom.eff_window {
                    total += DATA_BITS as u64;
                    skippable += u64::from(map.or_mask(&window, a, t).count_zeros());
                }
            }
        }
    }
    ActivationStats {
        name: spec.name.clone(),
        skippable_rounds: skippable * m_blocks,
        total_rounds: total * m_blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_dnn::workload::{prune_conv, random_conv, single_conv_model, tiny_cnn};
    use nc_dnn::{Padding, Shape, WeightQuant};

    #[test]
    fn dense_random_weights_offer_no_simd_skips() {
        let report = analyze(&tiny_cnn(1));
        // Uniform random codes: essentially zero SIMD skip (an all-zero
        // bit-slice across a whole array's live lanes is vanishingly
        // unlikely).
        assert!(report.simd_skip() < 0.05);
    }

    #[test]
    fn pruned_weights_enable_simd_skips() {
        // A filter whose codes only use the low 4 bits: the top 4 bit
        // rounds are skippable even under SIMD.
        let mut conv = random_conv("pruned", (3, 3), 8, 2, 1, Padding::Same, true, 5);
        if let Some(w) = conv.weights.as_mut() {
            for q in w.iter_mut() {
                *q &= 0x0F;
            }
        }
        conv.w_quant = WeightQuant {
            scale: 0.01,
            zero_point: 0,
        };
        let model = single_conv_model(conv, Shape::new(4, 4, 8));
        let report = analyze(&model);
        assert!(
            report.simd_skip() >= 0.5,
            "top nibble rounds skippable, got {}",
            report.simd_skip()
        );
    }

    #[test]
    fn skip_profile_matches_flat_chunks_for_single_filter_arrays() {
        // One 2-filter group over 8x9=72-lane... geometry sanity: the
        // profile's denominator is the executed round count.
        let conv = random_conv("p", (3, 3), 8, 2, 1, Padding::Same, true, 7);
        let profile = conv_skip_profile(&conv);
        let geom = crate::mapping::conv_lane_geometry(&conv.spec);
        // m = 2 filters fit one array: one m-block, eff_window taps, 8 bits.
        assert_eq!(
            profile.total_rounds,
            (geom.eff_window * DATA_BITS) as u64,
            "both filters share one array's rounds"
        );
    }

    #[test]
    fn pruned_conv_profile_reports_three_quarters_skip() {
        // keep_bits = 2: bit rounds 2..8 are always elidable.
        let conv = prune_conv(
            random_conv("pc", (3, 3), 8, 4, 1, Padding::Same, true, 11),
            2,
            0.0,
            13,
        );
        let profile = conv_skip_profile(&conv);
        assert!(
            (profile.fraction() - 0.75).abs() < 1e-9,
            "got {}",
            profile.fraction()
        );
    }

    #[test]
    fn activation_profile_tracks_input_density() {
        use nc_dnn::workload::{relu_sparse_conv_model, relu_sparse_input};
        let model = relu_sparse_conv_model(5);
        // Mostly-zero, low-magnitude activations: most input-bit rounds
        // are elidable (the top 8 - keep_bits rounds always are).
        let sparse_in = relu_sparse_input(model.input_shape, 0.7, 2, 9);
        let profile = activation_profile(&model, &sparse_in);
        assert_eq!(profile.sublayers.len(), 1);
        assert!(
            profile.input_skip() >= 0.75,
            "keep_bits = 2 elides at least the top six rounds, got {}",
            profile.input_skip()
        );
        assert!(profile.skippable_rounds() <= profile.total_rounds());
        assert_eq!(
            profile.skip_of("relu_conv"),
            Some(profile.input_skip()),
            "single-conv model: layer skip is the model skip"
        );
        assert!(profile.skip_of("nope").is_none());

        // Full-width dense activations: essentially nothing skips (an
        // all-zero bit-slice over a whole array of lanes is vanishingly
        // unlikely), which is what makes the detect pure overhead there.
        let dense_in = relu_sparse_input(model.input_shape, 0.0, 8, 9);
        let dense_profile = activation_profile(&model, &dense_in);
        assert!(dense_profile.input_skip() < 0.1);
        assert!(dense_profile.input_skip() < profile.input_skip());
    }

    #[test]
    fn activation_profile_applies_to_dynamic_plans() {
        use nc_dnn::workload::{relu_sparse_conv_model, relu_sparse_input};
        use nc_geometry::CacheGeometry;
        let model = relu_sparse_conv_model(3);
        let input = relu_sparse_input(model.input_shape, 0.6, 3, 4);
        let profile = activation_profile(&model, &input);
        let geometry = CacheGeometry::xeon_e5_2697_v3();
        let mut plans = crate::mapping::plan_model_with(&model, &geometry, SparsityMode::SkipBoth);
        // Plan time cannot know activations: fraction starts at 0.
        for plan in &plans {
            for unit in &plan.units {
                if let UnitPlan::Conv(c) = unit {
                    assert!(c.dynamic_detect);
                    assert_eq!(c.input_skip_fraction, 0.0);
                    assert_eq!(c.live_mult_bits, DATA_BITS as f64, "full-width weights");
                }
            }
        }
        profile.apply_to_plans(&mut plans);
        let mut seen = false;
        for plan in &plans {
            for unit in &plan.units {
                if let UnitPlan::Conv(c) = unit {
                    assert!((c.input_skip_fraction - profile.input_skip()).abs() < 1e-15);
                    seen = true;
                }
            }
        }
        assert!(seen);
    }

    #[test]
    fn live_mult_bits_measures_weight_truncation() {
        // keep_bits = 2: every weight code < 4, so the OR mask of any tap
        // has no bit above 1 -> live <= 2.
        let pruned = prune_conv(
            random_conv("lb", (3, 3), 8, 4, 1, Padding::Same, true, 11),
            2,
            0.0,
            13,
        );
        let live = conv_live_mult_bits(&pruned);
        assert!(live <= 2.0 + 1e-12, "got {live}");
        assert!(live > 0.0);
        // Dense random weights: some lane in every ~72-lane OR has the top
        // bit set.
        let dense = random_conv("ld", (3, 3), 8, 4, 1, Padding::Same, true, 11);
        assert!((conv_live_mult_bits(&dense) - 8.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "needs weights")]
    fn activation_profile_rejects_shape_only_models() {
        let model = nc_dnn::inception::inception_v3();
        let input = nc_dnn::workload::random_input(model.input_shape, model.input_quant, 1);
        let _ = activation_profile(&model, &input);
    }

    #[test]
    fn dynamic_modes_report_detection() {
        assert!(!SparsityMode::Dense.dynamic_detect());
        assert!(!SparsityMode::SkipZeroRows.dynamic_detect());
        assert!(SparsityMode::SkipBoth.dynamic_detect());
    }

    #[test]
    #[should_panic(expected = "needs weights")]
    fn shape_only_models_are_rejected() {
        let _ = analyze(&nc_dnn::inception::inception_v3());
    }
}
