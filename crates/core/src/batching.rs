//! Batched inference (Section IV-E): filter weights stay stationary across
//! a batch, amortizing the dominant filter-loading phase; over-sized layer
//! outputs overflow the reserved way and round-trip through DRAM.
//!
//! [`BatchCostModel`] is the plan-once costing substrate: it plans the
//! model a single time, folds the per-layer timings into the Section IV-E
//! (filter, per-image) split, and can then price any batch size in O(layers)
//! without re-planning — [`time_batch`], [`throughput_sweep`] and the
//! `nc-serve` discrete-event simulator all cost batches through it.

use nc_geometry::{DramModel, SimTime};

use crate::config::SystemConfig;
use crate::mapping::{plan_model_with, LayerPlan};
use crate::timing::{time_layer, Phase};

/// Fraction of the double-buffered dump traffic that actually drains in the
/// background: the reserved I/O way is a single-ported staging buffer, so
/// while the next image's inputs stream through it the background DRAM dump
/// can claim at most every other access slot (half-duplex sharing). At 0.5
/// the batch-256 Inception v3 peak lands at ~725 inf/s — between the
/// fully-serialized ~588 and the fully-overlapped ~945, on the optimistic
/// side of the paper's 604 (which models no overlap at all).
pub const DUMP_OVERLAP_EFFICIENCY: f64 = 0.5;

/// One socket's Section IV-E time split: (one-time filter loading,
/// per-image streaming + compute), timed layer by layer in layer order.
/// Shared by both [`BatchCostModel`] constructors.
fn socket_times(config: &SystemConfig, plans: &[LayerPlan]) -> (SimTime, SimTime) {
    let mut filter_time = SimTime::ZERO;
    let mut per_image_time = SimTime::ZERO;
    for (i, plan) in plans.iter().enumerate() {
        let layer = time_layer(config, plan, i == 0);
        let f = layer.phases.get(Phase::FilterLoad);
        filter_time += f;
        per_image_time += layer.total() - f;
    }
    (filter_time, per_image_time)
}

/// Timing result of a batch of inferences.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Batch size `N`.
    pub batch: usize,
    /// Latency of the whole batch on one socket.
    pub latency: SimTime,
    /// One-time filter loading across all layers.
    pub filter_time: SimTime,
    /// Per-image streaming + compute time.
    pub per_image_time: SimTime,
    /// Raw per-batch DRAM dump traffic time (reserved-way overflow), before
    /// double-buffering overlap.
    pub dump_time: SimTime,
    /// Dump time hidden behind later images' compute by double buffering
    /// through the reserved I/O way; the latency only pays
    /// `dump_time - dump_overlap_saved`.
    pub dump_overlap_saved: SimTime,
    /// Inferences per second across `sockets` sockets (Neural Cache scales
    /// linearly with the host CPU count, Section VI-B).
    pub throughput_ips: f64,
    /// Layer names whose batched outputs overflow the reserved way.
    pub dumped_layers: Vec<String>,
}

impl BatchReport {
    /// Dump time the batch actually stalls on (`dump_time` minus the
    /// double-buffered overlap).
    #[must_use]
    pub fn dump_stall(&self) -> SimTime {
        self.dump_time - self.dump_overlap_saved
    }
}

/// Plan-once batch costing: the Section IV-E (filter, per-image) split and
/// the reserved-way overflow profile of one `(config, model)` pair, priced
/// against any batch size in O(layers) — no re-planning per query.
///
/// # Examples
///
/// ```
/// use neural_cache::{BatchCostModel, SystemConfig};
/// use nc_dnn::inception::inception_v3;
///
/// let cost = BatchCostModel::new(&SystemConfig::xeon_e5_2697_v3(), &inception_v3());
/// let r16 = cost.report(16);
/// assert_eq!(r16.batch, 16);
/// assert!(cost.report(64).throughput_ips >= r16.throughput_ips * 0.9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatchCostModel {
    filter_time: SimTime,
    per_image_time: SimTime,
    /// How much *slower* a fully-dense-activation image is than the
    /// profile-measured `per_image_time` under a dynamic sparsity mode
    /// (zero for static modes and unprofiled models): the activation
    /// sparsity of each image decides where in
    /// `[per_image_time, per_image_time + image_time_spread]` its marginal
    /// cost lands.
    image_time_spread: SimTime,
    io_capacity: usize,
    dram: DramModel,
    sockets: usize,
    /// `(layer name, single-image output bytes)` per plan layer.
    layer_outputs: Vec<(String, usize)>,
}

impl BatchCostModel {
    /// Plans `model` once under `config` and captures everything needed to
    /// cost batches of any size.
    #[must_use]
    pub fn new(config: &SystemConfig, model: &nc_dnn::Model) -> Self {
        let plans = plan_model_with(model, &config.geometry, config.sparsity);
        let (filter_time, per_image_time) = socket_times(config, &plans);
        BatchCostModel::from_plans(config, &plans, filter_time, per_image_time, SimTime::ZERO)
    }

    /// Shared constructor tail of [`BatchCostModel::new`] /
    /// [`BatchCostModel::with_profile`]: captures the config-derived fields
    /// and the per-layer output profile from a set of plans.
    fn from_plans(
        config: &SystemConfig,
        plans: &[LayerPlan],
        filter_time: SimTime,
        per_image_time: SimTime,
        image_time_spread: SimTime,
    ) -> Self {
        BatchCostModel {
            filter_time,
            per_image_time,
            image_time_spread,
            io_capacity: config.geometry.io_way_bytes(),
            dram: config.dram,
            sockets: config.sockets,
            layer_outputs: plans
                .iter()
                .map(|p| (p.name.clone(), p.output_bytes))
                .collect(),
        }
    }

    /// [`BatchCostModel::new`] priced for a **measured activation
    /// profile**: under [`crate::SparsityMode::SkipBoth`],
    /// `per_image_time()` reflects the profile's input-bit skip fractions,
    /// and [`BatchCostModel::image_time_spread`] captures how much slower a
    /// fully-dense-activation image runs (the same plans with zero measured
    /// skip — detect overhead still charged).
    /// This is what makes serving latency activation-dependent: images are
    /// no longer interchangeable units of work. Under static modes the
    /// profile changes nothing and the spread is zero.
    #[must_use]
    pub fn with_profile(
        config: &SystemConfig,
        model: &nc_dnn::Model,
        profile: &crate::sparsity::ActivationProfile,
    ) -> Self {
        let mut plans = plan_model_with(model, &config.geometry, config.sparsity);
        // Zero-skip pricing first (plans carry no measured fractions yet):
        // the worst-case per-image time of a fully dense activation tensor.
        let (_, per_image_dense) = socket_times(config, &plans);
        profile.apply_to_plans(&mut plans);
        let (filter_time, per_image_time) = socket_times(config, &plans);
        let spread = if per_image_dense > per_image_time {
            per_image_dense - per_image_time
        } else {
            SimTime::ZERO
        };
        BatchCostModel::from_plans(config, &plans, filter_time, per_image_time, spread)
    }

    /// Extra marginal time of a fully-dense-activation image over the
    /// profiled `per_image_time()` (zero unless built by
    /// [`BatchCostModel::with_profile`] under a dynamic sparsity mode).
    #[must_use]
    pub fn image_time_spread(&self) -> SimTime {
        self.image_time_spread
    }

    /// One-time filter-loading cost (paid once while weights become
    /// stationary on a socket or slice).
    #[must_use]
    pub fn filter_time(&self) -> SimTime {
        self.filter_time
    }

    /// Marginal streaming + compute cost of one image once filters are
    /// resident.
    #[must_use]
    pub fn per_image_time(&self) -> SimTime {
        self.per_image_time
    }

    /// Raw DRAM dump traffic of a batch (reserved-way overflow: only bytes
    /// beyond `io_way_bytes()` move — the resident portion stays in the
    /// reserved way — and a batch of one is no exception when a single
    /// image's output alone overflows), plus the overflowing layer names.
    #[must_use]
    pub fn dump_profile(&self, batch: usize) -> (SimTime, Vec<String>) {
        let mut dumped_layers = Vec::new();
        for (name, output_bytes) in &self.layer_outputs {
            if output_bytes * batch > self.io_capacity {
                dumped_layers.push(name.clone());
            }
        }
        (self.dump_time(batch), dumped_layers)
    }

    /// [`BatchCostModel::dump_profile`]'s time alone, allocation-free — the
    /// hot path for policies that probe many candidate batch sizes per
    /// decision.
    #[must_use]
    pub fn dump_time(&self, batch: usize) -> SimTime {
        let mut dump_time = SimTime::ZERO;
        for (_, output_bytes) in &self.layer_outputs {
            let batch_out = output_bytes * batch;
            if batch_out > self.io_capacity {
                dump_time += self.dram.round_trip_time(batch_out - self.io_capacity);
            }
        }
        dump_time
    }

    /// Dump time hidden by double buffering through the reserved I/O way:
    /// while image `k+1` streams and computes, image `k`'s overflow drains
    /// to DRAM in the background. The last image's share (`dump/batch`) has
    /// no subsequent compute to hide behind and always stalls; the earlier
    /// images' share hides under up to `per_image * (batch - 1)` of
    /// compute, discounted by [`DUMP_OVERLAP_EFFICIENCY`] for the reserved
    /// way's port conflict with input staging.
    ///
    /// `batch <= 1` returns zero **explicitly** (handled before the
    /// `(batch - 1) / batch` window arithmetic, whose `usize` subtraction
    /// would underflow at `batch = 0` and whose division would be 0/0): a
    /// single image has no later compute to hide behind, and an empty
    /// batch has nothing to dump.
    #[must_use]
    pub fn dump_overlap_saved(&self, batch: usize, dump_time: SimTime) -> SimTime {
        if batch <= 1 {
            return SimTime::ZERO;
        }
        let overlappable = dump_time * ((batch - 1) as f64 / batch as f64);
        let window = self.per_image_time * (batch - 1) as f64;
        overlappable.min(window) * DUMP_OVERLAP_EFFICIENCY
    }

    /// Service time of a batch on one socket/slice: per-image work plus the
    /// exposed dump stall, plus the one-time filter load when `cold` (the
    /// first batch after weights change). Warm batches reuse the stationary
    /// filters (Section IV-E).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn service_time(&self, batch: usize, cold: bool) -> SimTime {
        assert!(batch > 0, "batch must be at least 1");
        let dump_time = self.dump_time(batch);
        let stall = dump_time - self.dump_overlap_saved(batch, dump_time);
        let filter = if cold {
            self.filter_time
        } else {
            SimTime::ZERO
        };
        filter + self.per_image_time * batch as f64 + stall
    }

    /// [`BatchCostModel::service_time`] with **per-image activation
    /// densities**: each image contributes `per_image_time() + act *
    /// image_time_spread()`, where `act` in `[0, 1]` is its activation
    /// density relative to the measured profile (0 = as sparse as the
    /// profile, 1 = fully dense activations). With a zero spread (static
    /// modes / unprofiled models) this is exactly
    /// `service_time(acts.len(), cold)` — the serving simulator calls this
    /// unconditionally and degenerates to the classic cost when
    /// activation pricing is off.
    ///
    /// # Panics
    ///
    /// Panics if `acts` is empty.
    #[must_use]
    pub fn service_time_acts(&self, acts: &[f64], cold: bool) -> SimTime {
        assert!(!acts.is_empty(), "batch must be at least 1");
        let mut t = self.service_time(acts.len(), cold);
        if self.image_time_spread > SimTime::ZERO {
            for &act in acts {
                t += self.image_time_spread * act.clamp(0.0, 1.0);
            }
        }
        t
    }

    /// Full Section IV-E batch report (cold start: includes filter load).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn report(&self, batch: usize) -> BatchReport {
        assert!(batch > 0, "batch must be at least 1");
        let (dump_time, dumped_layers) = self.dump_profile(batch);
        let dump_overlap_saved = self.dump_overlap_saved(batch, dump_time);
        let latency = self.filter_time
            + self.per_image_time * batch as f64
            + (dump_time - dump_overlap_saved);
        let throughput_ips = self.sockets as f64 * batch as f64 / latency.as_secs_f64();
        BatchReport {
            batch,
            latency,
            filter_time: self.filter_time,
            per_image_time: self.per_image_time,
            dump_time,
            dump_overlap_saved,
            throughput_ips,
            dumped_layers,
        }
    }
}

/// Times a batch of `batch` images through `model` (Section IV-E
/// semantics: per layer, filters load once, then the batch streams
/// through). Reserved-way overflow dumps double-buffer behind later images'
/// compute; only the exposed stall adds latency.
///
/// # Panics
///
/// Panics if `batch` is zero.
#[must_use]
pub fn time_batch(config: &SystemConfig, model: &nc_dnn::Model, batch: usize) -> BatchReport {
    BatchCostModel::new(config, model).report(batch)
}

/// Sweeps throughput over batch sizes (Figure 16's x-axis). The model is
/// planned **once** through [`BatchCostModel`]; each sweep point reuses the
/// same plan (identical to pointwise [`time_batch`], just not O(points *
/// layers^2)).
#[must_use]
pub fn throughput_sweep(
    config: &SystemConfig,
    model: &nc_dnn::Model,
    batches: &[usize],
) -> Vec<BatchReport> {
    let cost = BatchCostModel::new(config, model);
    batches.iter().map(|&b| cost.report(b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_dnn::inception::inception_v3;

    fn config() -> SystemConfig {
        SystemConfig::xeon_e5_2697_v3()
    }

    #[test]
    fn batch_one_matches_single_inference() {
        let model = inception_v3();
        let single = crate::timing::time_inference(&config(), &model).total();
        let batch = time_batch(&config(), &model, 1);
        assert!(
            (batch.latency.as_secs_f64() - single.as_secs_f64()).abs() < 1e-12,
            "batch-1 latency equals single-inference latency"
        );
        assert!(batch.dumped_layers.is_empty(), "batch 1 never dumps");
    }

    #[test]
    fn throughput_grows_then_plateaus() {
        let model = inception_v3();
        let sweep = throughput_sweep(&config(), &model, &[1, 4, 16, 64, 256]);
        // Batching amortizes filter loading; reserved-way overflow dumps
        // kick in at discrete thresholds, so small local dips are expected
        // (the paper's Figure 16 also flattens rather than rising
        // monotonically).
        for pair in sweep.windows(2) {
            assert!(
                pair[1].throughput_ips >= pair[0].throughput_ips * 0.9,
                "throughput should not regress by more than the dump steps"
            );
        }
        let gain_small = sweep[1].throughput_ips / sweep[0].throughput_ips;
        let gain_large = sweep[4].throughput_ips / sweep[3].throughput_ips;
        assert!(gain_small > 1.2, "early batching gains are large");
        assert!(gain_large < 1.1, "throughput plateaus at high batch");
    }

    #[test]
    fn peak_throughput_in_paper_ballpark() {
        // Figure 16: 604 inferences/sec at batch 256 (dual socket).
        let model = inception_v3();
        let peak = time_batch(&config(), &model, 256).throughput_ips;
        assert!((450.0..800.0).contains(&peak), "got {peak:.0} inf/s");
    }

    #[test]
    fn dump_accounts_only_the_overflow_beyond_the_reserved_way() {
        // Regression: the old model round-tripped the *full* output bytes
        // of every dumped layer per image. Only bytes beyond io_way_bytes()
        // actually move.
        let config = config();
        let model = inception_v3();
        let batch = 16;
        let r = time_batch(&config, &model, batch);
        let io = config.geometry.io_way_bytes();
        let plans = crate::mapping::plan_model(&model, &config.geometry);
        let mut expected = SimTime::ZERO;
        for plan in &plans {
            let batch_out = plan.output_bytes * batch;
            if batch_out > io {
                expected += config.dram.round_trip_time(batch_out - io);
            }
        }
        assert!((r.dump_time.as_secs_f64() - expected.as_secs_f64()).abs() < 1e-15);
        // Strictly less than the old full-output accounting.
        let mut old_model = SimTime::ZERO;
        for plan in &plans {
            if plan.output_bytes * batch > io {
                old_model += config.dram.round_trip_time(plan.output_bytes) * batch as f64;
            }
        }
        assert!(
            r.dump_time < old_model,
            "overflow-only accounting is cheaper"
        );
    }

    #[test]
    fn batch_of_one_dumps_an_oversized_output() {
        // Regression: a single image whose layer output alone overflows the
        // reserved way must round-trip the overflow even at batch 1.
        use nc_dnn::workload::{random_conv, single_conv_model};
        use nc_dnn::{Padding, Shape};
        let config = config();
        let io = config.geometry.io_way_bytes();
        // 80x80x300 output = 1.92 MB > the 1.75 MB reserved way.
        let conv = random_conv("big", (1, 1), 4, 300, 1, Padding::Valid, true, 3);
        let model = single_conv_model(conv, Shape::new(80, 80, 4));
        let out_bytes = 80 * 80 * 300;
        assert!(out_bytes > io, "test premise: output overflows the way");
        let r = time_batch(&config, &model, 1);
        assert_eq!(r.dumped_layers, vec!["big".to_owned()]);
        let expected = config.dram.round_trip_time(out_bytes - io);
        assert!((r.dump_time.as_secs_f64() - expected.as_secs_f64()).abs() < 1e-15);
        assert!(r.dump_time > SimTime::ZERO);
    }

    #[test]
    fn early_layers_dump_when_batched() {
        // Section IV-E: with batching, the first five layers dump outputs
        // to DRAM.
        let model = inception_v3();
        let r = time_batch(&config(), &model, 16);
        assert!(
            !r.dumped_layers.is_empty(),
            "large-output layers must overflow the reserved way"
        );
        assert!(r.dumped_layers.iter().any(|l| l.contains("2b")));
        assert!(r.dump_time > SimTime::ZERO);
    }

    #[test]
    fn dump_overlap_hides_all_but_the_last_image_share() {
        // Double buffering through the reserved I/O way: only the last
        // image's dump share stalls once the compute window is long enough.
        let model = inception_v3();
        let r = time_batch(&config(), &model, 64);
        assert!(r.dump_time > SimTime::ZERO);
        assert!(
            r.dump_overlap_saved > SimTime::ZERO,
            "batches overlap dumps"
        );
        // The compute window dominates on Inception v3, so exactly the
        // half-duplex share of (batch-1)/batch hides.
        let expected = r.dump_time * (63.0 / 64.0) * DUMP_OVERLAP_EFFICIENCY;
        assert!(
            (r.dump_overlap_saved.as_secs_f64() - expected.as_secs_f64()).abs() < 1e-15,
            "saved {} vs expected {}",
            r.dump_overlap_saved,
            expected
        );
        assert!(
            (r.latency.as_secs_f64()
                - (r.filter_time + r.per_image_time * 64.0 + r.dump_stall()).as_secs_f64())
            .abs()
                < 1e-15
        );
        // Overlap never hides more than the raw dump traffic.
        assert!(r.dump_overlap_saved <= r.dump_time);
    }

    #[test]
    fn batch_of_one_cannot_overlap_dumps() {
        use nc_dnn::workload::{random_conv, single_conv_model};
        use nc_dnn::{Padding, Shape};
        let conv = random_conv("big", (1, 1), 4, 300, 1, Padding::Valid, true, 3);
        let model = single_conv_model(conv, Shape::new(80, 80, 4));
        let r = time_batch(&config(), &model, 1);
        assert!(r.dump_time > SimTime::ZERO, "premise: batch-1 dump");
        assert_eq!(r.dump_overlap_saved, SimTime::ZERO);
        assert_eq!(r.dump_stall(), r.dump_time);
    }

    #[test]
    fn overlap_is_bounded_by_the_compute_window() {
        // A model whose dump traffic dwarfs its compute: the hidden share
        // saturates at per_image * (batch - 1), leaving a real stall.
        use nc_dnn::workload::{random_conv, single_conv_model};
        use nc_dnn::{Padding, Shape};
        let conv = random_conv("huge_out", (1, 1), 2, 512, 1, Padding::Valid, true, 5);
        let model = single_conv_model(conv, Shape::new(64, 64, 2));
        let cost = BatchCostModel::new(&config(), &model);
        let r = cost.report(8);
        let window = r.per_image_time * 7.0;
        if r.dump_time * (7.0 / 8.0) > window {
            let expected = window * DUMP_OVERLAP_EFFICIENCY;
            assert!(
                (r.dump_overlap_saved.as_secs_f64() - expected.as_secs_f64()).abs() < 1e-15,
                "window-bound overlap"
            );
            assert!(r.dump_stall() > SimTime::ZERO);
        } else {
            // Geometry shifted the balance; the invariant still holds.
            assert!(r.dump_overlap_saved <= window * DUMP_OVERLAP_EFFICIENCY);
        }
    }

    #[test]
    fn sweep_reuses_one_plan_and_matches_pointwise_time_batch() {
        // Regression for the re-planning sweep: every sweep point must be
        // identical to an independent time_batch call.
        let model = inception_v3();
        let config = config();
        let batches = [1usize, 3, 8, 32, 128, 256];
        let sweep = throughput_sweep(&config, &model, &batches);
        assert_eq!(sweep.len(), batches.len());
        for (r, &b) in sweep.iter().zip(&batches) {
            assert_eq!(r, &time_batch(&config, &model, b), "batch {b}");
        }
    }

    #[test]
    fn zero_and_one_image_batches_never_overlap_dumps() {
        // Regression: the overlappable window `(batch - 1) / batch` assumed
        // batch >= 1 — batch = 0 would underflow the usize subtraction and
        // divide 0/0. Both degenerate batches must report zero overlap even
        // against nonzero dump traffic, and the batch-entry points must
        // reject batch = 0 outright.
        let model = inception_v3();
        let cost = BatchCostModel::new(&config(), &model);
        let fake_dump = SimTime::from_millis(5.0);
        assert_eq!(cost.dump_overlap_saved(0, fake_dump), SimTime::ZERO);
        assert_eq!(cost.dump_overlap_saved(1, fake_dump), SimTime::ZERO);
        assert!(cost.dump_overlap_saved(2, fake_dump) > SimTime::ZERO);
        // An empty batch has no dump traffic or dumped layers either.
        assert_eq!(cost.dump_time(0), SimTime::ZERO);
        let (t, layers) = cost.dump_profile(0);
        assert_eq!(t, SimTime::ZERO);
        assert!(layers.is_empty());
    }

    #[test]
    #[should_panic(expected = "batch must be at least 1")]
    fn service_time_rejects_empty_batches() {
        let cost = BatchCostModel::new(&config(), &inception_v3());
        let _ = cost.service_time(0, false);
    }

    #[test]
    #[should_panic(expected = "batch must be at least 1")]
    fn report_rejects_empty_batches() {
        let cost = BatchCostModel::new(&config(), &inception_v3());
        let _ = cost.report(0);
    }

    #[test]
    #[should_panic(expected = "batch must be at least 1")]
    fn activation_service_time_rejects_empty_batches() {
        let cost = BatchCostModel::new(&config(), &inception_v3());
        let _ = cost.service_time_acts(&[], false);
    }

    #[test]
    fn profiled_cost_model_prices_activation_density() {
        use crate::sparsity::{activation_profile, SparsityMode};
        use nc_dnn::workload::{relu_sparse_conv_model, relu_sparse_input};
        let model = relu_sparse_conv_model(2);
        let input = relu_sparse_input(model.input_shape, 0.7, 2, 5);
        let profile = activation_profile(&model, &input);
        let dynamic = SystemConfig::with_sparsity(SparsityMode::SkipBoth);
        let cost = BatchCostModel::with_profile(&dynamic, &model, &profile);
        assert!(
            cost.image_time_spread() > SimTime::ZERO,
            "a sparse profile must open a dense-vs-sparse image spread"
        );
        // Dense images cost more than profile-sparse ones; the batch total
        // interpolates per image.
        let sparse_batch = cost.service_time_acts(&[0.0, 0.0], false);
        let dense_batch = cost.service_time_acts(&[1.0, 1.0], false);
        let mixed = cost.service_time_acts(&[0.0, 1.0], false);
        assert!(dense_batch > sparse_batch);
        assert!(sparse_batch < mixed && mixed < dense_batch);
        assert_eq!(
            sparse_batch,
            cost.service_time(2, false),
            "act = 0 images cost the profiled per-image time"
        );
        let spread2 = cost.image_time_spread() * 2.0;
        assert!((dense_batch.as_secs_f64() - (sparse_batch + spread2).as_secs_f64()).abs() < 1e-15);
        // Out-of-range densities clamp.
        assert_eq!(
            cost.service_time_acts(&[7.0], false),
            cost.service_time_acts(&[1.0], false)
        );

        // Static modes: no spread, and the acts path degenerates exactly.
        let static_cost = BatchCostModel::new(&SystemConfig::xeon_e5_2697_v3(), &model);
        assert_eq!(static_cost.image_time_spread(), SimTime::ZERO);
        assert_eq!(
            static_cost.service_time_acts(&[0.3, 0.9, 1.0], true),
            static_cost.service_time(3, true)
        );
        // The profiled dynamic per-image time beats the unprofiled one
        // (which charges detects but knows no skips).
        let unprofiled = BatchCostModel::new(&dynamic, &model);
        assert!(cost.per_image_time() < unprofiled.per_image_time());
    }

    #[test]
    fn cost_model_service_time_splits_cold_and_warm() {
        let model = inception_v3();
        let cost = BatchCostModel::new(&config(), &model);
        let cold = cost.service_time(4, true);
        let warm = cost.service_time(4, false);
        assert!(
            (cold.as_secs_f64() - (warm + cost.filter_time()).as_secs_f64()).abs() < 1e-15,
            "cold = warm + one-time filter load"
        );
        // Cold batch service equals the batch report latency.
        let r = cost.report(4);
        assert!((cold.as_secs_f64() - r.latency.as_secs_f64()).abs() < 1e-15);
        // Warm service scales with batch size.
        assert!(cost.service_time(8, false) > cost.service_time(2, false));
    }
}
