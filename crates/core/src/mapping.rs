//! The data-layout planner (Section IV-A/IV-B): filter packing and
//! splitting, channel round-up, array allocation, and the serial-round
//! schedule of every layer.
//!
//! The planner answers, for each convolution or pooling sub-layer: how many
//! bit lines one filter occupies, how many filters fit in one 8KB array,
//! how many filter instances the whole cache computes in parallel, and how
//! many serial rounds the sub-layer therefore needs. The paper's worked
//! example (`Conv2D_2b`: ~32K parallel convolutions, 43 serial rounds, 99.7%
//! utilization) is reproduced by tests.

use nc_dnn::graph::SubOp;
use nc_dnn::{pad_before, Conv2d, ConvSpec, Model, Pool2d, PoolKind, QTensor, Shape};
use nc_geometry::CacheGeometry;
use nc_sram::{COLS, ROWS};

use crate::cost::{DATA_BITS, PARTIAL_BITS, REDUCE_BITS};
use crate::sparsity::SparsityMode;

/// Filter-window bytes above which filters are split across bit lines
/// (Section IV-A: "filters are split across bitlines when their size
/// exceeds 9 bytes").
pub const SPLIT_THRESHOLD: usize = 9;

/// Channels packed per bit line for 1x1 filters (Section IV-A: "we can
/// instead put 16 bytes of the filter").
pub const PACK_FACTOR: usize = 16;

/// Largest input-window bytes buffered per bit line; larger windows (the
/// global 8x8 average pool) stream in chunks.
pub const MAX_INPUT_BYTES_PER_LANE: usize = 16;

/// The Section IV-A lane layout of one convolution sub-layer: how filter
/// bytes are packed/split onto bit lines and how filters group within one
/// 8KB array. This is the **single source of truth** shared by the planner,
/// the functional executor, and the sparsity analysis — skip fractions are
/// computed on exactly the packing the executor realizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneGeometry {
    /// Channels packed per bit line (1 unless a 1x1 layer).
    pub packing: usize,
    /// Filter split factor (1 unless `R*S > 9`).
    pub split: usize,
    /// Filter bytes per bit line after packing/splitting (`R'*S'`).
    pub eff_window: usize,
    /// Effective channels before power-of-two round-up (`C'`).
    pub eff_channels: usize,
    /// Bit lines per filter: effective channels rounded to a power of two.
    pub lanes_per_filter: usize,
    /// Lanes one filter occupies within a single array.
    pub group_span: usize,
    /// Arrays one filter spans (1 or 2 in Inception v3).
    pub arrays_per_filter: usize,
    /// Filter instances per 8KB array (0 when a filter spans arrays).
    pub filters_per_array: usize,
}

impl LaneGeometry {
    /// Filter groups of one output window co-resident in one array during a
    /// MAC pass, given the sub-layer's `m` output channels: the executor
    /// packs at most this many filters side by side (an m-block), and
    /// filters spanning arrays run alone. When one m-block holds all `m`,
    /// the lanes left over carry further windows
    /// ([`LaneGeometry::windows_per_array`]).
    #[must_use]
    pub fn groups_per_array(&self, m: usize) -> usize {
        if self.arrays_per_filter == 1 {
            (COLS / self.lanes_per_filter).min(m).max(1)
        } else {
            1
        }
    }

    /// Output windows one array runs side by side, given the sub-layer's
    /// `m` output channels. When one m-block holds all `m` filters and a
    /// filter fits one array, the array's `filters_per_array` filter
    /// instances cover ⌊`filters_per_array` / `m`⌋ windows, each against
    /// its own input lanes (Section IV-B: the rest of an array holds
    /// instances for other output pixels); otherwise one.
    #[must_use]
    pub fn windows_per_array(&self, m: usize) -> usize {
        (self.filters_per_array / m.max(1)).max(1)
    }
}

/// Computes the lane layout of a convolution spec (packing for 1x1 layers,
/// splitting for windows above [`SPLIT_THRESHOLD`], power-of-two channel
/// round-up, array spanning).
#[must_use]
pub fn conv_lane_geometry(spec: &ConvSpec) -> LaneGeometry {
    let window = spec.window();
    let c = spec.c;
    let (packing, split) = if window == 1 {
        (PACK_FACTOR.min(c), 1)
    } else if window > SPLIT_THRESHOLD {
        (1, window.div_ceil(SPLIT_THRESHOLD))
    } else {
        (1, 1)
    };
    let eff_window = if packing > 1 {
        packing
    } else {
        window.div_ceil(split)
    };
    let eff_channels = if packing > 1 {
        c.div_ceil(packing)
    } else {
        c * split
    };
    let lanes_per_filter = eff_channels.next_power_of_two();
    let (arrays_per_filter, filters_per_array) = if lanes_per_filter <= COLS {
        (1, COLS / lanes_per_filter)
    } else {
        (lanes_per_filter.div_ceil(COLS), 0)
    };
    LaneGeometry {
        packing,
        split,
        eff_window,
        eff_channels,
        lanes_per_filter,
        group_span: lanes_per_filter.min(COLS),
        arrays_per_filter,
        filters_per_array,
    }
}

/// The Section IV-A byte placement of one convolution: for every array of
/// a filter, tap and lane, the index into the `(r, s, c)`-ordered window
/// whose byte that lane streams at that tap, or `None` for a zero-padded
/// slot. Packing puts `packing` consecutive channels on one lane, one per
/// tap; splitting spreads one channel's window over `split` lanes of
/// `eff_window` taps; lanes past `eff_channels` stay empty.
///
/// Filter `m`'s weights and a gathered input window ([`gather_window`])
/// are both `(r, s, c)`-ordered, so this one map places filter and input
/// bytes alike: the functional executor builds its operand planes from it,
/// and the sparsity analyses walk it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneMap {
    geom: LaneGeometry,
    /// Window index of lane `l` of array `a` at tap `t`, at
    /// `(a * eff_window + t) * group_span + l`.
    index: Vec<Option<usize>>,
}

impl LaneMap {
    /// The lane map of `spec` under [`conv_lane_geometry`].
    #[must_use]
    pub fn new(spec: &ConvSpec) -> Self {
        let geom = conv_lane_geometry(spec);
        let (taps, span) = (geom.eff_window, geom.group_span);
        let mut index = vec![None; geom.arrays_per_filter * taps * span];
        for lane in 0..geom.eff_channels {
            let (a, l) = (lane / span, lane % span);
            for t in 0..taps {
                index[(a * taps + t) * span + l] = if geom.packing > 1 {
                    let c = lane * geom.packing + t;
                    (c < spec.c).then_some(c)
                } else {
                    let (c, piece) = (lane / geom.split, lane % geom.split);
                    let pos = piece * taps + t;
                    (pos < spec.window()).then_some(pos * spec.c + c)
                };
            }
        }
        LaneMap { geom, index }
    }

    /// The lane geometry the map realizes.
    #[must_use]
    pub fn geometry(&self) -> &LaneGeometry {
        &self.geom
    }

    /// Window indices of array `a`'s `group_span` lanes at tap `t`.
    #[must_use]
    pub fn lanes(&self, a: usize, t: usize) -> &[Option<usize>] {
        let span = self.geom.group_span;
        let start = (a * self.geom.eff_window + t) * span;
        &self.index[start..start + span]
    }

    /// OR of `window`'s bytes over array `a`'s lanes at tap `t`: bit `j`
    /// is clear exactly when bit round `(t, j)` is zero on every lane.
    #[must_use]
    pub fn or_mask(&self, window: &[u8], a: usize, t: usize) -> u8 {
        self.lanes(a, t)
            .iter()
            .fold(0, |or, k| or | k.map_or(0, |k| window[k]))
    }
}

/// Gathers the padded input window of output `(ey, ex)` in the
/// `(r, s, c)` order of the filters and of the reference executor
/// (padding bytes hold the zero-point code). `out` holds `R*S*C` bytes.
pub fn gather_window(input: &QTensor, spec: &ConvSpec, ey: usize, ex: usize, out: &mut [u8]) {
    let in_shape = input.shape();
    let pad_y = pad_before(in_shape.h, spec.r, spec.stride, spec.padding) as isize;
    let pad_x = pad_before(in_shape.w, spec.s, spec.stride, spec.padding) as isize;
    let oy = (ey * spec.stride) as isize - pad_y;
    let ox = (ex * spec.stride) as isize - pad_x;
    let mut idx = 0;
    for r in 0..spec.r {
        for s in 0..spec.s {
            for c in 0..spec.c {
                out[idx] = input.get_padded(oy + r as isize, ox + s as isize, c);
                idx += 1;
            }
        }
    }
}

/// Word-line budget of one lane under the Figure 10 layout, extended with
/// the zero-point-correction running sum (`S2`) this reproduction carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowBudget {
    /// Stationary filter rows (`R'*S' * 8`).
    pub filter: usize,
    /// Streamed input rows.
    pub input: usize,
    /// Partial-sum rows (3 bytes, Figure 10a).
    pub partial: usize,
    /// Scratch-pad rows (2 bytes, Figure 10a).
    pub scratch: usize,
    /// Zero-point-correction sum rows (2 bytes: the `S2` sum of
    /// [`crate::layout::MacReduceLayout`]).
    pub s2: usize,
    /// Output rows (4 bytes, Figure 10a).
    pub output: usize,
    /// Dedicated all-zero row + comparison dump row.
    pub control: usize,
}

impl RowBudget {
    /// Total rows claimed.
    #[must_use]
    pub fn total(&self) -> usize {
        self.filter
            + self.input
            + self.partial
            + self.scratch
            + self.s2
            + self.output
            + self.control
    }

    /// Whether the layout fits the 256 word lines.
    #[must_use]
    pub fn fits(&self) -> bool {
        self.total() <= ROWS
    }
}

/// Mapping decisions and schedule of one convolution sub-layer.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvMapping {
    /// Sub-layer name.
    pub name: String,
    /// Input tensor shape.
    pub in_shape: Shape,
    /// Output tensor shape.
    pub out_shape: Shape,
    /// Original filter window `R*S` in bytes.
    pub window: usize,
    /// Stride `U`.
    pub stride: usize,
    /// Lane layout of the sub-layer ([`conv_lane_geometry`] of its spec).
    pub lanes: LaneGeometry,
    /// Filter instances the whole cache computes per round.
    pub parallel_instances: usize,
    /// Serial rounds (`ceil(total_convs / parallel_instances)`).
    pub rounds: usize,
    /// Total convolutions (`E_h * E_w * M`).
    pub total_convs: usize,
    /// In-array reduction steps (`log2(min(lanes_per_filter, 256))`).
    pub reduce_steps: u32,
    /// Reduction steps that cross array boundaries.
    pub cross_array_steps: u32,
    /// Fraction of each input window that must be freshly streamed per
    /// round (stride reuse, Section IV-A).
    pub fresh_input_fraction: f64,
    /// Fraction of multiplier-bit rounds elided under
    /// [`SparsityMode::SkipZeroRows`], computed from the sub-layer's real
    /// weights on this mapping's lane packing (0 when planning densely or
    /// without weights). Each array skips its own all-lanes-zero rounds,
    /// as the executors do, so this is the rounds-weighted mean over
    /// arrays.
    pub simd_skip_fraction: f64,
    /// Whether this plan executes under the dynamic sparsity mode
    /// ([`SparsityMode::SkipBoth`]): the input byte is the multiplier,
    /// every scheduled round pays the 1-cycle wired-NOR zero-detect, and
    /// the MAC phase shrinks by `input_skip_fraction` (which the planner
    /// cannot know — see below).
    pub dynamic_detect: bool,
    /// Fraction of multiplier-bit rounds the dynamic input-bit detect
    /// elides. Activations are not stationary, so this is **0 at plan
    /// time**; [`crate::sparsity::ActivationProfile::apply_to_plans`]
    /// fills it with the value measured on an actual input.
    pub input_skip_fraction: f64,
    /// Mean live multiplicand width of executed rounds under
    /// [`SparsityMode::SkipBoth`] (static weight truncation;
    /// [`crate::sparsity::conv_live_mult_bits`] on this packing).
    /// `DATA_BITS` when weights are full-width, absent, or the mode is not
    /// `SkipBoth`.
    pub live_mult_bits: f64,
    /// Word-line budget of one lane.
    pub rows: RowBudget,
}

impl ConvMapping {
    /// Compute-array utilization during convolution rounds (the paper
    /// reports 99.7% for `Conv2D_2b`).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.total_convs as f64 / (self.rounds as f64 * self.parallel_instances as f64)
    }

    /// Fraction of an active array's bit lines holding live operands
    /// (power-of-two round-up and partial filter packing leave the rest
    /// idle); scales bit-line switching energy.
    #[must_use]
    pub fn lane_occupancy(&self) -> f64 {
        let g = &self.lanes;
        let busy = if g.arrays_per_filter == 1 {
            g.filters_per_array * g.eff_channels
        } else {
            g.eff_channels.div_ceil(g.arrays_per_filter)
        };
        (busy as f64 / nc_sram::COLS as f64).min(1.0)
    }

    /// Arrays active per round across the cache.
    #[must_use]
    pub fn active_arrays(&self) -> usize {
        let g = &self.lanes;
        if g.arrays_per_filter == 1 {
            self.parallel_instances.div_ceil(g.filters_per_array)
        } else {
            self.parallel_instances * g.arrays_per_filter
        }
    }
}

/// Mapping of a pooling sub-layer: window elements live along the bit line,
/// one output element per lane (Section IV-D: pooling maps like
/// convolution, without filters).
#[derive(Debug, Clone, PartialEq)]
pub struct PoolMapping {
    /// Sub-layer name.
    pub name: String,
    /// Pooling flavor.
    pub kind: PoolKind,
    /// Input tensor shape.
    pub in_shape: Shape,
    /// Output tensor shape.
    pub out_shape: Shape,
    /// Window elements per output (`k*k`).
    pub window: usize,
    /// Stride.
    pub stride: usize,
    /// Serial rounds.
    pub rounds: usize,
    /// Outputs per round across the cache (one per compute lane).
    pub parallel_outputs: usize,
    /// Total outputs (`E_h * E_w * C`).
    pub total_outputs: usize,
    /// Fresh-input fraction per round.
    pub fresh_input_fraction: f64,
}

/// One schedulable unit: a convolution or pooling sub-layer.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitPlan {
    /// Convolution sub-layer mapping.
    Conv(ConvMapping),
    /// Pooling sub-layer mapping.
    Pool(PoolMapping),
}

/// Schedule of one top-level layer: its sub-layer units, executed serially
/// (branches within a layer are serial, Section IV).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPlan {
    /// Layer name (Table I row).
    pub name: String,
    /// Sub-layer units in execution order.
    pub units: Vec<UnitPlan>,
    /// Filter bytes loaded from DRAM for this layer (all sub-layers).
    pub filter_bytes: usize,
    /// Layer output bytes (the tensor passed to the next layer).
    pub output_bytes: usize,
}

/// Plans a whole model against a cache geometry.
///
/// # Panics
///
/// Panics at entry, with the [`nc_dnn::ModelError`] text, if the model
/// does not validate, and if a sub-layer's row budget overflows the array
/// (which cannot happen for 8-bit layers within the supported shapes).
#[must_use]
pub fn plan_model(model: &Model, geometry: &CacheGeometry) -> Vec<LayerPlan> {
    plan_model_with(model, geometry, SparsityMode::Dense)
}

/// Plans a whole model under an explicit [`SparsityMode`], one
/// [`LayerPlan`] per layer of its validated graph: under
/// [`SparsityMode::SkipZeroRows`], every weighted convolution mapping
/// carries the skip fraction measured on its actual lane packing.
///
/// # Panics
///
/// Panics at entry, with the [`nc_dnn::ModelError`] text, if the model
/// does not validate, and if a sub-layer's row budget overflows the array.
#[must_use]
pub fn plan_model_with(
    model: &Model,
    geometry: &CacheGeometry,
    mode: SparsityMode,
) -> Vec<LayerPlan> {
    let graph = model.validate().unwrap_or_else(|e| panic!("{e}"));
    graph
        .layers()
        .iter()
        .map(|layer| {
            let units = graph
                .sublayers_of(layer)
                .iter()
                .map(|sub| match sub.op {
                    SubOp::Conv(conv) => {
                        UnitPlan::Conv(plan_conv_unit(conv, sub.input, sub.output, geometry, mode))
                    }
                    SubOp::Pool(pool) => {
                        UnitPlan::Pool(plan_pool_unit(pool, sub.input, sub.output, geometry))
                    }
                })
                .collect();
            let filter_bytes = layer.layer.conv_sublayers().map(|c| c.spec.weight_len());
            LayerPlan {
                name: layer.layer.name().to_owned(),
                units,
                filter_bytes: filter_bytes.sum(),
                output_bytes: layer.output.bytes(),
            }
        })
        .collect()
}

fn plan_conv_unit(
    conv: &Conv2d,
    in_shape: Shape,
    out_shape: Shape,
    geometry: &CacheGeometry,
    mode: SparsityMode,
) -> ConvMapping {
    let spec = &conv.spec;
    let (name, m, stride) = (&spec.name, spec.m, spec.stride);
    let window = spec.window();
    let geom = conv_lane_geometry(spec);

    let compute_arrays = geometry.compute_arrays();
    let parallel_instances = if geom.arrays_per_filter == 1 {
        compute_arrays * geom.filters_per_array
    } else {
        (compute_arrays / geom.arrays_per_filter).max(1)
    };

    let total_convs = out_shape.h * out_shape.w * m;
    let rounds = total_convs.div_ceil(parallel_instances).max(1);

    let reduce_steps = geom.group_span.trailing_zeros();
    let cross_array_steps = geom.arrays_per_filter.trailing_zeros();

    // Packed 1x1 layers have no input reuse and stream one input byte at a
    // time (Section IV-A), so their lanes buffer a single byte.
    let input_lane_bytes = if geom.packing > 1 {
        1
    } else {
        geom.eff_window.min(MAX_INPUT_BYTES_PER_LANE)
    };
    let rows = RowBudget {
        filter: geom.eff_window * DATA_BITS,
        input: input_lane_bytes * DATA_BITS,
        partial: PARTIAL_BITS,
        scratch: 2 * DATA_BITS,
        s2: 2 * DATA_BITS,
        output: REDUCE_BITS,
        control: 2,
    };
    assert!(
        rows.fits(),
        "{name}: row budget {} exceeds {} word lines",
        rows.total(),
        ROWS
    );

    // Weight-sparsity round elision, measured on this exact lane packing.
    let simd_skip_fraction = match mode {
        SparsityMode::SkipZeroRows if conv.weights.is_some() => {
            crate::sparsity::conv_skip_profile(conv).fraction()
        }
        SparsityMode::Dense | SparsityMode::SkipZeroRows | SparsityMode::SkipBoth => 0.0,
    };
    // Dynamic input-bit elision: the skip fraction itself is per-input
    // (filled by ActivationProfile::apply_to_plans); the weight-side
    // truncation width of SkipBoth is static and measured here.
    let dynamic_detect = mode.dynamic_detect();
    let live_mult_bits = match mode {
        SparsityMode::SkipBoth if conv.weights.is_some() => {
            crate::sparsity::conv_live_mult_bits(conv)
        }
        SparsityMode::Dense | SparsityMode::SkipZeroRows | SparsityMode::SkipBoth => {
            DATA_BITS as f64
        }
    };

    ConvMapping {
        name: name.clone(),
        in_shape,
        out_shape,
        window,
        stride,
        lanes: geom,
        parallel_instances,
        rounds,
        total_convs,
        reduce_steps,
        cross_array_steps,
        fresh_input_fraction: fresh_fraction(spec.r, stride),
        simd_skip_fraction,
        dynamic_detect,
        input_skip_fraction: 0.0,
        live_mult_bits,
        rows,
    }
}

fn plan_pool_unit(
    pool: &Pool2d,
    in_shape: Shape,
    out_shape: Shape,
    geometry: &CacheGeometry,
) -> PoolMapping {
    let total_outputs = out_shape.len();
    let parallel_outputs = geometry.compute_lanes();
    PoolMapping {
        name: pool.name.clone(),
        kind: pool.kind,
        in_shape,
        out_shape,
        window: pool.k * pool.k,
        stride: pool.stride,
        rounds: total_outputs.div_ceil(parallel_outputs).max(1),
        parallel_outputs,
        total_outputs,
        fresh_input_fraction: fresh_fraction(pool.k, pool.stride),
    }
}

/// Fraction of the window that must be freshly streamed when the window
/// slides by `stride` (Section IV-A: a 3x3 stride-1 window reuses 6 of 9
/// bytes).
fn fresh_fraction(window_rows: usize, stride: usize) -> f64 {
    if stride >= window_rows {
        1.0
    } else {
        stride as f64 / window_rows as f64
    }
}

/// Per-sublayer operand bit allocation: the widths the bit-serial schedule
/// spends cycles on. [`BitBudget::default_for`] is the fixed Figure 10
/// provisioning every plan ships and executes (8-bit multiplicand, 24-bit
/// lane partial, 32-bit reduction segments); `nc-verify` certifies a
/// model's proven value ranges against it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitBudget {
    /// Sub-layer name this budget applies to.
    pub name: String,
    /// Live multiplicand (weight) width in bits.
    pub mult_bits: u32,
    /// Per-lane partial-sum width in bits.
    pub partial_bits: u32,
    /// Reduction-tree running-sum width in bits (shared by `S1`/`S2`).
    pub reduce_bits: u32,
}

impl BitBudget {
    /// The fixed Figure 10 allocation every plan ships.
    #[must_use]
    pub fn default_for(name: impl Into<String>) -> Self {
        BitBudget {
            name: name.into(),
            mult_bits: DATA_BITS as u32,
            partial_bits: PARTIAL_BITS as u32,
            reduce_bits: REDUCE_BITS as u32,
        }
    }
}

/// Minimum bits representing `v` as an unsigned value (1 for `v == 0`).
#[must_use]
pub fn bits_for_unsigned(v: u64) -> u32 {
    (64 - v.leading_zeros()).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_dnn::inception::inception_v3;

    fn xeon() -> CacheGeometry {
        CacheGeometry::xeon_e5_2697_v3()
    }

    fn find_conv<'p>(plans: &'p [LayerPlan], name: &str) -> &'p ConvMapping {
        plans
            .iter()
            .flat_map(|p| &p.units)
            .find_map(|u| match u {
                UnitPlan::Conv(c) if c.name == name => Some(c),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no conv unit named {name}"))
    }

    #[test]
    fn bits_for_unsigned_edges() {
        assert_eq!(bits_for_unsigned(0), 1);
        assert_eq!(bits_for_unsigned(1), 1);
        assert_eq!(bits_for_unsigned(2), 2);
        assert_eq!(bits_for_unsigned(255), 8);
        assert_eq!(bits_for_unsigned(256), 9);
        assert_eq!(bits_for_unsigned(u64::MAX), 64);
    }

    #[test]
    fn paper_worked_example_conv2d_2b() {
        // Section VI-A: Conv2D_2b computes ~1.4M convolutions, ~32K in
        // parallel, 43 serial rounds, 99.7% utilization.
        let plans = plan_model(&inception_v3(), &xeon());
        let c = find_conv(&plans, "Conv2d_2b_3x3");
        assert_eq!(c.total_convs, 1_382_976);
        assert_eq!(c.lanes.lanes_per_filter, 32);
        assert_eq!(c.lanes.filters_per_array, 8);
        assert_eq!(c.parallel_instances, 32_256, "~32K parallel convolutions");
        assert_eq!(c.rounds, 43, "43 convolutions in series");
        assert!((c.utilization() - 0.997).abs() < 0.001, "99.7% utilization");
        assert_eq!(c.reduce_steps, 5);
        assert_eq!(c.cross_array_steps, 0);
    }

    #[test]
    fn one_by_one_filters_pack_sixteen_channels() {
        let plans = plan_model(&inception_v3(), &xeon());
        // Mixed_7c b0: 1x1 over 2048 channels.
        let c = find_conv(&plans, "Mixed_7c/b0_1x1");
        assert_eq!(c.lanes.packing, 16);
        assert_eq!(c.lanes.eff_window, 16);
        assert_eq!(c.lanes.lanes_per_filter, 128, "2048/16 channels per filter");
        assert_eq!(
            c.lanes.arrays_per_filter, 1,
            "packing keeps every filter within one array"
        );
    }

    #[test]
    fn five_by_five_filters_split() {
        let plans = plan_model(&inception_v3(), &xeon());
        let c = find_conv(&plans, "Mixed_5b/b1_5x5");
        assert_eq!(c.window, 25);
        assert_eq!(c.lanes.split, 3, "25 bytes split into <=9-byte pieces");
        assert_eq!(c.lanes.eff_window, 9);
        assert_eq!(c.lanes.lanes_per_filter, (48 * 3usize).next_power_of_two());
    }

    #[test]
    fn channels_span_at_most_two_arrays() {
        // Section IV-A: the mapping guarantees all channels fit within two
        // arrays that share sense amps.
        let plans = plan_model(&inception_v3(), &xeon());
        for plan in &plans {
            for unit in &plan.units {
                if let UnitPlan::Conv(c) = unit {
                    assert!(
                        c.lanes.arrays_per_filter <= 2,
                        "{}: filter spans {} arrays",
                        c.name,
                        c.lanes.arrays_per_filter
                    );
                }
            }
        }
    }

    #[test]
    fn row_budgets_fit_everywhere() {
        let plans = plan_model(&inception_v3(), &xeon());
        for plan in &plans {
            for unit in &plan.units {
                if let UnitPlan::Conv(c) = unit {
                    assert!(c.rows.fits(), "{}: {} rows", c.name, c.rows.total());
                }
            }
        }
    }

    #[test]
    fn utilization_is_high_across_the_network() {
        let plans = plan_model(&inception_v3(), &xeon());
        for plan in &plans {
            for unit in &plan.units {
                if let UnitPlan::Conv(c) = unit {
                    let u = c.utilization();
                    assert!(u > 0.0 && u <= 1.0, "{}: utilization {u}", c.name);
                }
            }
        }
    }

    #[test]
    fn more_slices_fewer_rounds() {
        let model = inception_v3();
        let p35 = plan_model(&model, &CacheGeometry::with_capacity_mb(35));
        let p60 = plan_model(&model, &CacheGeometry::with_capacity_mb(60));
        let rounds = |plans: &[LayerPlan]| -> usize {
            plans
                .iter()
                .flat_map(|p| &p.units)
                .map(|u| match u {
                    UnitPlan::Conv(c) => c.rounds,
                    UnitPlan::Pool(p) => p.rounds,
                })
                .sum()
        };
        assert!(rounds(&p60) < rounds(&p35));
    }

    #[test]
    fn lane_geometry_reproduces_the_worked_examples() {
        // Conv2D_2b: 3x3 over 32 channels, no packing or splitting.
        let g = conv_lane_geometry(&nc_dnn::ConvSpec {
            name: "conv2d_2b".into(),
            r: 3,
            s: 3,
            c: 32,
            m: 64,
            stride: 1,
            padding: nc_dnn::Padding::Same,
            relu: true,
        });
        assert_eq!((g.packing, g.split, g.eff_window), (1, 1, 9));
        assert_eq!(g.lanes_per_filter, 32);
        assert_eq!((g.arrays_per_filter, g.filters_per_array), (1, 8));
        assert_eq!(g.groups_per_array(64), 8);
        assert_eq!(g.groups_per_array(3), 3, "few filters limit the groups");
        assert_eq!(g.windows_per_array(64), 1, "eight m-blocks run alone");
        assert_eq!(g.windows_per_array(8), 1, "one m-block fills the array");
        assert_eq!(g.windows_per_array(3), 2, "three filters leave room");

        // A 2048-channel 1x1 packs 16 channels per lane into one array.
        let g = conv_lane_geometry(&nc_dnn::ConvSpec {
            name: "b0_1x1".into(),
            r: 1,
            s: 1,
            c: 2048,
            m: 192,
            stride: 1,
            padding: nc_dnn::Padding::Same,
            relu: true,
        });
        assert_eq!((g.packing, g.eff_window, g.lanes_per_filter), (16, 16, 128));
        assert_eq!(g.groups_per_array(192), 2);
        assert_eq!(g.windows_per_array(192), 1);
        assert_eq!(g.windows_per_array(1), 2);

        // 300 channels of a 3x3 span two arrays.
        let g = conv_lane_geometry(&nc_dnn::ConvSpec {
            name: "wide".into(),
            r: 3,
            s: 3,
            c: 300,
            m: 2,
            stride: 1,
            padding: nc_dnn::Padding::Valid,
            relu: true,
        });
        assert_eq!(g.lanes_per_filter, 512);
        assert_eq!(g.arrays_per_filter, 2);
        assert_eq!(g.group_span, 256);
        assert_eq!(g.groups_per_array(2), 1, "spanning filters run alone");
        assert_eq!(g.windows_per_array(1), 1, "and hold one window");
    }

    #[test]
    fn lane_map_places_packed_and_split_windows() {
        let spec = |r, s, c| nc_dnn::ConvSpec {
            name: "map".into(),
            r,
            s,
            c,
            m: 1,
            stride: 1,
            padding: nc_dnn::Padding::Same,
            relu: true,
        };
        // 1x1 over 40 channels: lane l streams channels 16l..16l+16, one
        // per tap, and the last lane runs out after channel 39.
        let map = LaneMap::new(&spec(1, 1, 40));
        assert_eq!(map.lanes(0, 3)[..4], [Some(3), Some(19), Some(35), None]);
        assert_eq!(map.lanes(0, 8)[2], None);
        // 5x5 over 3 channels: channel c's 25 window bytes split over lanes
        // 3c..3c+3 of 9 taps each, at window index position * C + c.
        let map = LaneMap::new(&spec(5, 5, 3));
        assert_eq!(map.lanes(0, 0)[..4], [Some(0), Some(27), Some(54), Some(1)]);
        assert_eq!(map.lanes(0, 6)[2], Some(24 * 3));
        assert_eq!(map.lanes(0, 7)[2], None, "the window has 25 positions");
        assert!(map.lanes(0, 0)[9..].iter().all(Option::is_none));
        let window: Vec<u8> = (0..75).collect();
        let tap0 = [0u8, 27, 54, 1, 28, 55, 2, 29, 56];
        assert_eq!(
            map.or_mask(&window, 0, 0),
            tap0.into_iter().fold(0, |m, k| m | k)
        );
    }

    #[test]
    fn dense_plans_carry_no_skip_fraction() {
        let plans = plan_model(&inception_v3(), &xeon());
        for plan in &plans {
            for unit in &plan.units {
                if let UnitPlan::Conv(c) = unit {
                    assert_eq!(c.simd_skip_fraction, 0.0, "{}", c.name);
                }
            }
        }
    }

    #[test]
    fn sparse_plans_measure_skip_on_the_real_packing() {
        use nc_dnn::workload::pruned_inception;
        let model = pruned_inception(3);
        let plans = plan_model_with(&model, &xeon(), SparsityMode::SkipZeroRows);
        for plan in &plans {
            for unit in &plan.units {
                if let UnitPlan::Conv(c) = unit {
                    // keep_bits = 2: at least the top 6 bit rounds skip.
                    assert!(
                        c.simd_skip_fraction >= 0.75,
                        "{}: {}",
                        c.name,
                        c.simd_skip_fraction
                    );
                    assert!(c.simd_skip_fraction <= 1.0);
                }
            }
        }
        // Shape-only models plan fine in skip mode (no weights, no skips).
        let shape_only = plan_model_with(&inception_v3(), &xeon(), SparsityMode::SkipZeroRows);
        for plan in &shape_only {
            for unit in &plan.units {
                if let UnitPlan::Conv(c) = unit {
                    assert_eq!(c.simd_skip_fraction, 0.0);
                }
            }
        }
    }

    #[test]
    fn layer_plan_bookkeeping() {
        let plans = plan_model(&inception_v3(), &xeon());
        let total_filter: usize = plans.iter().map(|p| p.filter_bytes).sum();
        assert_eq!(total_filter, inception_v3().total_filter_bytes());
        // Mixed_5b: 7 convs + 1 avg pool = 8 units.
        let m5b = plans.iter().find(|p| p.name == "Mixed_5b").unwrap();
        assert_eq!(m5b.units.len(), 8);
        assert_eq!(m5b.output_bytes, 35 * 35 * 256);
    }
}
