//! The deterministic timing simulator: per-layer, phase-resolved inference
//! time (the paper's "cycle-accurate simulator based on the deterministic
//! computation model", Section V).
//!
//! Every layer's time decomposes into the Figure 14 phases: filter loading
//! from DRAM, input streaming over the intra-slice buses, MACs, channel
//! reduction, quantization, pooling, and output transfer to the reserved
//! way. Phases do not overlap, matching the paper's breakdown accounting.

use std::fmt;
use std::fmt::Write as _;

use nc_dnn::{Model, PoolKind};
use nc_geometry::SimTime;

use crate::config::SystemConfig;
use crate::mapping::{plan_model_with, ConvMapping, LayerPlan, PoolMapping, UnitPlan};

/// Execution phases of Figure 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Loading filter weights (and per-channel constants) from DRAM and
    /// broadcasting them into the compute arrays.
    FilterLoad,
    /// Streaming input elements from the reserved way into the arrays.
    InputStream,
    /// Bit-serial multiply-accumulate cycles.
    Mac,
    /// Channel reduction (in-array and cross-array tree steps).
    Reduce,
    /// Dynamic ranging and requantization of outputs.
    Quantize,
    /// Max/average pooling compute.
    Pool,
    /// Transferring outputs to the reserved way.
    OutputTransfer,
}

impl Phase {
    /// All phases in display order.
    pub const ALL: [Phase; 7] = [
        Phase::FilterLoad,
        Phase::InputStream,
        Phase::Mac,
        Phase::Reduce,
        Phase::Quantize,
        Phase::Pool,
        Phase::OutputTransfer,
    ];

    /// Short label used in reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Phase::FilterLoad => "filter-load",
            Phase::InputStream => "input-stream",
            Phase::Mac => "mac",
            Phase::Reduce => "reduce",
            Phase::Quantize => "quantize",
            Phase::Pool => "pool",
            Phase::OutputTransfer => "output-xfer",
        }
    }
}

/// Time per phase.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseBreakdown {
    times: [SimTime; 7],
}

impl PhaseBreakdown {
    /// Zeroed breakdown.
    #[must_use]
    pub fn new() -> Self {
        PhaseBreakdown::default()
    }

    /// Time of one phase.
    #[must_use]
    pub fn get(&self, phase: Phase) -> SimTime {
        self.times[Self::index(phase)]
    }

    /// Adds time to a phase.
    pub fn add(&mut self, phase: Phase, time: SimTime) {
        self.times[Self::index(phase)] += time;
    }

    /// Sum over phases.
    #[must_use]
    pub fn total(&self) -> SimTime {
        self.times.iter().copied().sum()
    }

    /// Fraction of the total spent in `phase` (0 when the total is zero).
    #[must_use]
    pub fn fraction(&self, phase: Phase) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.get(phase).as_secs_f64() / total
        }
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &PhaseBreakdown) {
        for (i, t) in other.times.iter().enumerate() {
            self.times[i] += *t;
        }
    }

    fn index(phase: Phase) -> usize {
        Phase::ALL
            .iter()
            .position(|p| *p == phase)
            .expect("phase in ALL")
    }
}

/// Timing result of one top-level layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTiming {
    /// Layer name (Table I row).
    pub name: String,
    /// Phase-resolved times.
    pub phases: PhaseBreakdown,
    /// Serial rounds summed over sub-layer units.
    pub rounds: usize,
    /// Per-array compute cycles (serial view, summed over units).
    pub compute_cycles: u64,
    /// MAC cycles elided by round skipping (0 under dense execution);
    /// already excluded from `compute_cycles`. Under the dynamic mode this
    /// is the **net** saving (dense minus detect-charged sparse MAC
    /// cycles), saturated at 0 when the detect overhead exceeds the
    /// savings.
    pub mac_saved_cycles: u64,
    /// Tag-latch wired-NOR zero-detect cycles the dynamic sparsity mode
    /// charges (one per scheduled multiplier-bit round; 0 under `Dense` and
    /// `SkipZeroRows`). Included in `mac_cycles`/`compute_cycles`.
    pub mac_detect_cycles: u64,
    /// MAC cycles of the layer (what the phase breakdown charges).
    pub mac_cycles: u64,
    /// Average fraction of compute arrays active during compute phases.
    pub active_fraction: f64,
    /// Bytes streamed over the interconnect (inputs + outputs).
    pub streamed_bytes: usize,
    /// Bytes loaded from DRAM (filters; plus inputs for the first layer).
    pub dram_bytes: usize,
}

impl LayerTiming {
    /// Total layer latency.
    #[must_use]
    pub fn total(&self) -> SimTime {
        self.phases.total()
    }
}

/// Timing result of one full inference (batch size 1).
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceReport {
    /// Model name.
    pub model: String,
    /// Cost-model name used.
    pub cost_model: &'static str,
    /// Number of LLC slices of the geometry.
    pub slices: usize,
    /// Per-layer timings in execution order.
    pub layers: Vec<LayerTiming>,
}

impl InferenceReport {
    /// End-to-end inference latency.
    #[must_use]
    pub fn total(&self) -> SimTime {
        self.layers.iter().map(LayerTiming::total).sum()
    }

    /// Phase breakdown aggregated over all layers (Figure 14).
    #[must_use]
    pub fn breakdown(&self) -> PhaseBreakdown {
        let mut agg = PhaseBreakdown::new();
        for layer in &self.layers {
            agg.merge(&layer.phases);
        }
        agg
    }

    /// Latency of one named layer.
    #[must_use]
    pub fn layer(&self, name: &str) -> Option<&LayerTiming> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// Renders the report as CSV (`layer,phase...,total_ms`), one row per
    /// layer plus a totals row — convenient for external plotting of
    /// Figures 13/14.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("layer");
        for phase in Phase::ALL {
            out.push(',');
            out.push_str(phase.label());
        }
        out.push_str(",total_ms\n");
        let mut write_row = |name: &str, phases: &PhaseBreakdown| {
            out.push_str(name);
            for phase in Phase::ALL {
                let _ = write!(out, ",{:.6}", phases.get(phase).as_millis_f64());
            }
            let _ = writeln!(out, ",{:.6}", phases.total().as_millis_f64());
        };
        for layer in &self.layers {
            write_row(&layer.name, &layer.phases);
        }
        write_row("TOTAL", &self.breakdown());
        out
    }
}

impl fmt::Display for InferenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} on {} slices ({} cost model): {}",
            self.model,
            self.slices,
            self.cost_model,
            self.total()
        )?;
        for layer in &self.layers {
            writeln!(f, "  {:<18} {}", layer.name, layer.total())?;
        }
        let b = self.breakdown();
        for phase in Phase::ALL {
            writeln!(
                f,
                "  [{:>12}] {:>10}  ({:.1}%)",
                phase.label(),
                b.get(phase).to_string(),
                100.0 * b.fraction(phase)
            )?;
        }
        Ok(())
    }
}

/// Computes the timing of one inference (batch size 1) of `model`, one
/// layer after another in layer order on the calling thread.
///
/// Under the dynamic sparsity modes this prices the detect overhead but no
/// skips (activation densities are per-input and unknown here); use
/// [`time_inference_with_profile`] to price a measured input.
///
/// # Panics
///
/// Panics at entry, with the [`nc_dnn::ModelError`] text, if the model
/// does not validate ([`plan_model_with`] plans it first).
#[must_use]
pub fn time_inference(config: &SystemConfig, model: &Model) -> InferenceReport {
    let plans = plan_model_with(model, &config.geometry, config.sparsity);
    time_plans(config, model, &plans)
}

/// [`time_inference`] with the MAC phase priced for one **measured input**:
/// the [`crate::sparsity::ActivationProfile`]'s per-sub-layer input-bit
/// skip fractions are written into the plans before timing, so under
/// [`crate::SparsityMode::SkipBoth`] the report reflects that input's
/// activation sparsity (detect overhead charged per round).
/// Under the static modes the profile changes nothing.
#[must_use]
pub fn time_inference_with_profile(
    config: &SystemConfig,
    model: &Model,
    profile: &crate::sparsity::ActivationProfile,
) -> InferenceReport {
    let mut plans = plan_model_with(model, &config.geometry, config.sparsity);
    profile.apply_to_plans(&mut plans);
    time_plans(config, model, &plans)
}

fn time_plans(config: &SystemConfig, model: &Model, plans: &[LayerPlan]) -> InferenceReport {
    let layers = plans
        .iter()
        .enumerate()
        .map(|(i, plan)| time_layer(config, plan, i == 0))
        .collect();
    InferenceReport {
        model: model.name.clone(),
        cost_model: config.cost.model().name(),
        slices: config.geometry.slices,
        layers,
    }
}

/// Computes the timing of one layer. `first_layer` inputs stream from DRAM
/// through the TMUs instead of the reserved way (Section IV-C).
#[must_use]
pub fn time_layer(config: &SystemConfig, plan: &LayerPlan, first_layer: bool) -> LayerTiming {
    let cost = config.cost.model();
    let freq = config.timings.compute_freq_hz;
    let slices = config.geometry.slices.max(1);
    let mut phases = PhaseBreakdown::new();
    let mut rounds_total = 0usize;
    let mut compute_cycles = 0u64;
    let mut mac_saved_cycles = 0u64;
    let mut mac_detect_cycles = 0u64;
    let mut mac_cycles = 0u64;
    let mut active_weighted = 0.0f64;
    let mut streamed_bytes = 0usize;
    let mut dram_bytes = 0usize;

    // --- Filter loading: DRAM-bound stream, broadcast over ring and buses.
    if plan.filter_bytes > 0 {
        let t = config
            .dram
            .stream_time(plan.filter_bytes)
            .max(config.interconnect.ring_broadcast_time(plan.filter_bytes));
        phases.add(Phase::FilterLoad, t);
        dram_bytes += plan.filter_bytes;
    }

    for unit in &plan.units {
        match unit {
            UnitPlan::Conv(c) => {
                let cycles = conv_cycles(cost, c);
                let (cycles_mac, cycles_saved, cycles_red, cycles_quant) =
                    (cycles.mac, cycles.saved, cycles.reduce, cycles.quant);
                mac_saved_cycles += cycles_saved;
                mac_detect_cycles += cycles.detect;
                mac_cycles += cycles_mac;
                phases.add(Phase::Mac, SimTime::from_cycles(cycles_mac, freq));
                phases.add(Phase::Reduce, SimTime::from_cycles(cycles_red, freq));
                phases.add(Phase::Quantize, SimTime::from_cycles(cycles_quant, freq));

                let unit_cycles = cycles_mac + cycles_red + cycles_quant;
                compute_cycles += unit_cycles;
                active_weighted += unit_cycles as f64 * c.utilization() * c.lane_occupancy();
                rounds_total += c.rounds;

                // Input streaming (Section IV-C): each active way of a
                // slice receives its own pixel's window, one full
                // 256-bit-wide row set per streamed filter byte; ways with
                // the same pixel position share one broadcast, and the
                // per-bank latch (already in the bus model) halves delivery
                // time. Stride reuse reduces the fresh rows per round.
                let arrays_per_slice = c.active_arrays().div_ceil(slices);
                let ways_active = arrays_per_slice
                    .div_ceil(config.geometry.arrays_per_way())
                    .clamp(1, config.geometry.compute_ways());
                let row_bytes = nc_sram::COLS / 8;
                let bytes_per_round = ways_active as f64
                    * (c.lanes.eff_window * crate::cost::DATA_BITS * row_bytes) as f64
                    * c.fresh_input_fraction
                    * INPUT_DELIVERY_SERIALIZATION;
                let in_bytes = (c.rounds as f64 * bytes_per_round).ceil() as usize;
                let mut t_in = config.interconnect.slice_stream_time(in_bytes);
                if first_layer {
                    t_in = t_in.max(config.dram.stream_time(c.in_shape.bytes()));
                    dram_bytes += c.in_shape.bytes();
                }
                phases.add(Phase::InputStream, t_in);
                streamed_bytes += in_bytes * slices;

                // Output transfer: the 4-byte accumulator of every
                // convolution moves to the reserved way (Figure 10's output
                // segments) with set-walk granularity, slices in parallel.
                let out_bytes = c.total_convs * 4 * OUTPUT_SET_WALK_FACTOR;
                phases.add(
                    Phase::OutputTransfer,
                    config.interconnect.slice_transfer_time(out_bytes / slices),
                );
                streamed_bytes += out_bytes;
            }
            UnitPlan::Pool(p) => {
                let cycles = pool_cycles(cost, p);
                phases.add(Phase::Pool, SimTime::from_cycles(cycles, freq));
                compute_cycles += cycles;
                let util = p.total_outputs as f64 / (p.rounds as f64 * p.parallel_outputs as f64);
                active_weighted += cycles as f64 * util;
                rounds_total += p.rounds;

                // Pool inputs stream like convolutions without filters:
                // window rows into every active way.
                let row_bytes = nc_sram::COLS / 8;
                let window_lane_bytes = p.window.min(crate::mapping::MAX_INPUT_BYTES_PER_LANE);
                let bytes_per_round = (config.geometry.compute_ways()
                    * window_lane_bytes
                    * crate::cost::DATA_BITS
                    * row_bytes) as f64
                    * p.fresh_input_fraction
                    * INPUT_DELIVERY_SERIALIZATION;
                let in_bytes = (p.rounds as f64 * bytes_per_round).ceil() as usize;
                let mut t_in = config.interconnect.slice_stream_time(in_bytes);
                if first_layer {
                    t_in = t_in.max(config.dram.stream_time(p.in_shape.bytes()));
                    dram_bytes += p.in_shape.bytes();
                }
                phases.add(Phase::InputStream, t_in);
                streamed_bytes += in_bytes * slices;

                let out_bytes = p.total_outputs;
                phases.add(
                    Phase::OutputTransfer,
                    config.interconnect.slice_transfer_time(out_bytes / slices),
                );
                streamed_bytes += out_bytes;
            }
        }
    }

    let active_fraction = if compute_cycles == 0 {
        0.0
    } else {
        active_weighted / compute_cycles as f64
    };
    LayerTiming {
        name: plan.name.clone(),
        phases,
        rounds: rounds_total,
        compute_cycles,
        mac_saved_cycles,
        mac_detect_cycles,
        mac_cycles,
        active_fraction,
        streamed_bytes,
        dram_bytes,
    }
}

/// Cycle costs of one convolution unit.
struct ConvCycles {
    /// MAC cycles — what the phase breakdown charges.
    mac: u64,
    /// Dense-minus-charged MAC cycles elided by round skipping (net of the
    /// detect overhead under the dynamic mode; saturated at 0).
    saved: u64,
    /// Wired-NOR zero-detect cycles charged (dynamic mode only).
    detect: u64,
    /// Reduction cycles.
    reduce: u64,
    /// Ranging/requantization cycles.
    quant: u64,
}

/// Cycles of one convolution unit. Under `SkipZeroRows` the MAC phase
/// shrinks by the mapping's measured skip fraction: banks advance through
/// their own round schedules between reduction barriers, and filters of
/// one sub-layer are pruned uniformly, so the rounds-weighted mean skip
/// fraction over arrays applies.
///
/// Under the dynamic mode (`SkipBoth`) the MAC phase is priced by
/// [`CostModelRef::mac_cycles_dynamic`]: every scheduled round pays the
/// 1-cycle wired-NOR detect, the mapping's (profile-measured)
/// `input_skip_fraction` of rounds is elided, and executed rounds run only
/// `live_mult_bits` adds.
fn conv_cycles(cost: &dyn CostModelRef, c: &ConvMapping) -> ConvCycles {
    let rounds = c.rounds as u64;
    let serial_macs = rounds * c.lanes.eff_window as u64;
    let mac_dense = serial_macs * cost.mac_cycles();
    let (mac, detect) = if c.dynamic_detect {
        let mac = (serial_macs as f64
            * cost.mac_cycles_dynamic(c.input_skip_fraction, c.live_mult_bits))
        .round() as u64;
        let detect = serial_macs * crate::cost::DATA_BITS as u64 * cost.detect_cycle();
        (mac, detect)
    } else {
        let mac =
            (serial_macs as f64 * cost.mac_cycles_sparse(c.simd_skip_fraction)).round() as u64;
        (mac, 0)
    };
    let saved = mac_dense.saturating_sub(mac);
    let reduce = rounds
        * (cost.reduction_setup_cycles()
            + u64::from(c.reduce_steps) * cost.reduction_step_cycles()
            + u64::from(c.cross_array_steps) * cost.cross_array_step_cycles());
    let quant = rounds * cost.requant_cycles()
        + cost.minmax_tree_cycles(nc_sram::COLS)
        + CROSS_SLICE_MINMAX_CYCLES;
    ConvCycles {
        mac,
        saved,
        detect,
        reduce,
        quant,
    }
}

/// Pooling cycles of one pooling unit.
fn pool_cycles(cost: &dyn CostModelRef, p: &PoolMapping) -> u64 {
    let rounds = p.rounds as u64;
    let per_output = match p.kind {
        PoolKind::Max => (p.window as u64 - 1) * cost.max_cycles(),
        PoolKind::Avg => (p.window as u64 - 1) * cost.avg_add_cycles() + cost.avg_div_cycles(),
    };
    rounds * per_output
}

/// Fixed cost of reducing per-array min/max values to one value across
/// banks, ways and slices (bus transfers + ring hops; Section IV-D notes
/// this happens once per layer and its penalty is small).
const CROSS_SLICE_MINMAX_CYCLES: u64 = 2000;

/// Serialization factor on input delivery beyond raw bus bandwidth:
/// set-address walking, bank write-port conflicts and row-write pacing
/// observed by the paper's fill micro-benchmark (which we cannot run;
/// calibrated so input streaming lands at its Figure 14 share, ~15%).
const INPUT_DELIVERY_SERIALIZATION: f64 = 4.0;

/// Set-walk granularity of output stores to the reserved way (outputs move
/// as row fragments, not packed bytes); calibrated against Figure 14's ~4%
/// output-transfer share.
const OUTPUT_SET_WALK_FACTOR: usize = 4;

use crate::cost::CostModel as CostModelRef;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use nc_dnn::inception::inception_v3;

    fn report() -> InferenceReport {
        time_inference(&SystemConfig::xeon_e5_2697_v3(), &inception_v3())
    }

    #[test]
    fn total_latency_in_paper_ballpark() {
        // Paper Table IV: 4.72 ms at 35 MB, batch 1.
        let total = report().total().as_millis_f64();
        assert!(
            (3.0..7.0).contains(&total),
            "expected ~4.7 ms, got {total:.2} ms"
        );
    }

    #[test]
    fn filter_loading_dominates_like_figure14() {
        let r = report();
        let b = r.breakdown();
        let filter = b.fraction(Phase::FilterLoad);
        assert!(
            (0.30..0.60).contains(&filter),
            "filter share {filter:.2} vs paper 0.46"
        );
        assert!(b.fraction(Phase::Mac) > b.fraction(Phase::Reduce));
        assert!(b.fraction(Phase::Pool) < 0.02, "pooling ~0.04% in paper");
        let sum: f64 = Phase::ALL.iter().map(|p| b.fraction(*p)).sum();
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to 1");
    }

    #[test]
    fn conv2d_2b_latency_matches_worked_example() {
        // Section VI-A: convolution compute of Conv2D_2b = 43 rounds *
        // 2784 cycles = 119,712 cycles = 0.0479 ms at 2.5 GHz.
        let r = report();
        let layer = r.layer("Conv2d_2b_3x3").unwrap();
        let conv_compute = layer.phases.get(Phase::Mac) + layer.phases.get(Phase::Reduce);
        let ms = conv_compute.as_millis_f64();
        assert!((ms - 0.0479).abs() < 0.001, "got {ms:.4} ms");
    }

    #[test]
    fn layer_times_sum_to_total() {
        let r = report();
        let sum: SimTime = r.layers.iter().map(LayerTiming::total).sum();
        assert!((sum.as_secs_f64() - r.total().as_secs_f64()).abs() < 1e-12);
    }

    #[test]
    fn more_cache_is_faster() {
        let model = inception_v3();
        let t35 = time_inference(&SystemConfig::with_capacity_mb(35), &model).total();
        let t45 = time_inference(&SystemConfig::with_capacity_mb(45), &model).total();
        let t60 = time_inference(&SystemConfig::with_capacity_mb(60), &model).total();
        assert!(t45 < t35, "45 MB beats 35 MB");
        assert!(t60 < t45, "60 MB beats 45 MB");
        // Filter loading does not improve with capacity (Section VI-D).
        let f35 = time_inference(&SystemConfig::with_capacity_mb(35), &model)
            .breakdown()
            .get(Phase::FilterLoad);
        let f60 = time_inference(&SystemConfig::with_capacity_mb(60), &model)
            .breakdown()
            .get(Phase::FilterLoad);
        assert!((f35.as_secs_f64() - f60.as_secs_f64()).abs() < 1e-12);
    }

    #[test]
    fn derived_cost_model_also_lands_near_paper() {
        let mut config = SystemConfig::xeon_e5_2697_v3();
        config.cost = crate::cost::CostModelKind::Derived;
        let total = time_inference(&config, &inception_v3())
            .total()
            .as_millis_f64();
        assert!(
            (2.5..7.0).contains(&total),
            "derived model total {total:.2} ms"
        );
    }

    #[test]
    fn skip_zero_rows_shrinks_mac_phase_on_pruned_models() {
        use crate::sparsity::SparsityMode;
        use nc_dnn::workload::pruned_inception;
        let model = pruned_inception(7);
        let dense = time_inference(&SystemConfig::xeon_e5_2697_v3(), &model);
        let sparse = time_inference(
            &SystemConfig::with_sparsity(SparsityMode::SkipZeroRows),
            &model,
        );
        let mac_dense = dense.breakdown().get(Phase::Mac).as_secs_f64();
        let mac_sparse = sparse.breakdown().get(Phase::Mac).as_secs_f64();
        assert!(
            mac_dense / mac_sparse >= 1.3,
            "pruned model must elide >= 1.3x MAC cycles, got {:.2}x",
            mac_dense / mac_sparse
        );
        // Savings are reported per layer and only the MAC phase changes.
        assert!(sparse.layers.iter().any(|l| l.mac_saved_cycles > 0));
        assert!(dense.layers.iter().all(|l| l.mac_saved_cycles == 0));
        // The MAC phase charges each layer's `mac_cycles` at the compute
        // clock.
        let freq = SystemConfig::xeon_e5_2697_v3().timings.compute_freq_hz;
        for l in dense.layers.iter().chain(&sparse.layers) {
            let phase_cycles = (l.phases.get(Phase::Mac).as_secs_f64() * freq).round() as u64;
            assert_eq!(phase_cycles, l.mac_cycles, "{}", l.name);
        }
        for (d, s) in dense.layers.iter().zip(&sparse.layers) {
            for phase in Phase::ALL {
                if phase != Phase::Mac {
                    assert_eq!(d.phases.get(phase), s.phases.get(phase), "{phase:?}");
                }
            }
        }
        assert!(sparse.total() < dense.total());
    }

    #[test]
    fn dynamic_skip_prices_measured_activations_and_detect_overhead() {
        use crate::sparsity::{activation_profile, SparsityMode};
        use nc_dnn::workload::{relu_sparse_conv_model, relu_sparse_input};
        let model = relu_sparse_conv_model(7);
        let dense = time_inference(&SystemConfig::xeon_e5_2697_v3(), &model);
        let dense_mac: u64 = dense.layers.iter().map(|l| l.mac_cycles).sum();
        for l in &dense.layers {
            assert_eq!(l.mac_detect_cycles, 0, "static modes charge no detect");
        }

        let config = SystemConfig::with_sparsity(SparsityMode::SkipBoth);
        // Without a profile the planner knows no skips, and full-width
        // random weights leave nothing to truncate: the dynamic mode is
        // pure detect overhead over dense.
        let unprofiled = time_inference(&config, &model);
        let unprofiled_mac: u64 = unprofiled.layers.iter().map(|l| l.mac_cycles).sum();
        let detect: u64 = unprofiled.layers.iter().map(|l| l.mac_detect_cycles).sum();
        assert!(detect > 0);
        assert_eq!(
            unprofiled_mac,
            dense_mac + detect,
            "no measured skips: dynamic = dense + detect overhead"
        );

        // A measured ReLU-sparse input yields a *net* MAC speedup after
        // the detect charge.
        let sparse_in = relu_sparse_input(model.input_shape, 0.7, 2, 3);
        let profile = activation_profile(&model, &sparse_in);
        let profiled = time_inference_with_profile(&config, &model, &profile);
        let profiled_mac: u64 = profiled.layers.iter().map(|l| l.mac_cycles).sum();
        assert!(
            (dense_mac as f64) / (profiled_mac as f64) > 1.3,
            "ReLU-sparse input must net a MAC speedup: dense {dense_mac} vs {profiled_mac}"
        );
        // A dense-activation input shows the break-even's other side: the
        // detect overhead makes the dynamic mode *slower* than dense.
        let dense_in = relu_sparse_input(model.input_shape, 0.0, 8, 3);
        let dense_prof = activation_profile(&model, &dense_in);
        let overhead = time_inference_with_profile(&config, &model, &dense_prof);
        let overhead_mac: u64 = overhead.layers.iter().map(|l| l.mac_cycles).sum();
        assert!(
            overhead_mac > dense_mac,
            "dense activations make detection pure overhead"
        );
        // Non-MAC phases are untouched by the dynamic mode.
        for (d, s) in dense.layers.iter().zip(&profiled.layers) {
            for phase in Phase::ALL {
                if phase != Phase::Mac {
                    assert_eq!(d.phases.get(phase), s.phases.get(phase), "{phase:?}");
                }
            }
        }
    }

    #[test]
    fn skip_mode_is_a_no_op_for_dense_random_weights() {
        use crate::sparsity::SparsityMode;
        use nc_dnn::workload::mini_inception;
        let model = mini_inception(7);
        let dense = time_inference(&SystemConfig::xeon_e5_2697_v3(), &model);
        let sparse = time_inference(
            &SystemConfig::with_sparsity(SparsityMode::SkipZeroRows),
            &model,
        );
        // Random dense codes offer (almost) no all-lanes-zero rows.
        let ratio = dense.breakdown().get(Phase::Mac).as_secs_f64()
            / sparse.breakdown().get(Phase::Mac).as_secs_f64();
        assert!(ratio < 1.05, "dense weights should barely skip: {ratio:.3}");
    }

    #[test]
    fn display_report_mentions_phases() {
        let text = report().to_string();
        assert!(text.contains("filter-load"));
        assert!(text.contains("Mixed_7c"));
    }

    #[test]
    fn csv_export_has_all_rows_and_totals() {
        let csv = report().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 20 + 1, "header + 20 layers + totals");
        assert!(lines[0].starts_with("layer,filter-load,"));
        assert!(lines.last().unwrap().starts_with("TOTAL,"));
        // Every row has 9 comma-separated fields.
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), 9, "bad row: {line}");
        }
    }
}
