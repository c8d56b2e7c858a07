//! The bit-accurate functional executor: runs quantized inference on real
//! simulated [`ComputeArray`]s using the bit-serial operations of
//! Sections III and IV-D, and must match the [`nc_dnn::reference`] golden
//! executor **bit for bit** (the paper's trace-matching validation,
//! Section V).
//!
//! The executor is a [`reference::Backend`]: [`reference::run_layer_on`]
//! walks each layer and derives every requantization constant from the
//! ranges the executor measures in-cache, exactly as for the golden model,
//! and this module supplies only the in-cache arithmetic.
//!
//! ## Staging
//!
//! One layer executes as three in-cache passes, each of which fits the
//! 256-row budget of an 8KB array:
//!
//! 1. **MAC + reduce** — filters and inputs enter tap by tap as whole-row
//!    bit planes ([`ComputeArray::load_rows`]) built from one per-layer
//!    lane map ([`LaneMap`]): each m-block's filter planes are packed once
//!    per layer (filters are stationary), the input planes once per host
//!    array. When one m-block holds all `M` filters, a host array runs
//!    `K` = ⌊256 / (`M` × group span)⌋ output windows side by side
//!    ([`LaneGeometry::windows_per_array`](crate::mapping::LaneGeometry::windows_per_array)):
//!    the filter and `C0` planes repeat for each window, and each window's
//!    input bytes sit on lanes of their own. Bit-serial multiply
//!    accumulates the per-lane partial sum (`S1`) and the
//!    zero-point-correction running sum (`S2`); the grouped in-array
//!    reduction tree (and, for filters spanning two arrays, an inter-array
//!    transfer + add) collapses channels.
//! 2. **Accumulator assembly** — in place on the pass-1 array, once per
//!    array run and lane-parallel: `ACC = S1 - zp_w*S2 + C0(m)` via scalar
//!    multiply and region subtract/add over 40-bit two's-complement
//!    operands, then the MSB-masked `ReLU`. The temporaries overlay the
//!    rows pass 1 has spent, `C0` comes from a per-m-block plane holding
//!    each group's constant on its first lane, and `zp_w` is a scalar
//!    ([`layout::AssembleLayout`]).
//! 3. **Requantization** — subtract the layer minimum, scalar-multiply by
//!    the CPU-provided multiplier, shift by row re-addressing, saturate.
//!
//! Between the layer-wide ranging barrier and pass 3 the executor
//! re-stages accumulators into fresh arrays (in hardware they stay put);
//! the arithmetic performed is identical, and every step is a genuine
//! `nc-sram` micro-op sequence.
//!
//! ## Sharding
//!
//! The hardware runs thousands of arrays in lockstep; the simulator mirrors
//! that shape. Each pass is expressed as independent **array-shard jobs**
//! (one job per host array of `K` output windows in pass 1+2, one per
//! 256-lane array run in pass 3 and the pooling/ranging helpers),
//! dispatched through an [`ExecutionEngine`] —
//! [`Sequential`](ExecutionEngine::Sequential) or
//! [`Threaded`](ExecutionEngine::Threaded). Jobs draw recycled arrays from
//! a shared [`ArrayPool`] and report their own [`CycleStats`]; shard results
//! are folded in job order, so both backends produce bit-identical outputs
//! *and* identical cycle counts. The only synchronization point is the
//! explicit inter-array reduce barrier before dynamic ranging
//! (Section IV-D), which needs every shard's accumulators.
//!
//! A pass-1+2 job runs each shared step once per host array and charges it
//! once per window it stands for, so [`CycleStats`] count one array run per
//! output window in every mode. A MAC tap runs once per distinct
//! control-flow key among the array's windows: one key under
//! [`SparsityMode::Dense`] and [`SparsityMode::SkipZeroRows`], whose round
//! decisions come from the stationary filters, and the tap's input OR mask
//! under [`SparsityMode::SkipBoth`], with the other windows' input lanes
//! zeroed for that execution.

use std::error::Error;
use std::fmt;
use std::ops::Range;

use nc_dnn::quant::CodeRequant;
use nc_dnn::reference::{self, Backend, SublayerRecord};
use nc_dnn::{
    pad_before, AccTensor, ActQuant, Conv2d, Model, ModelError, Pool2d, PoolKind, QTensor,
    Requantizer, Shape,
};
use nc_sram::{
    pack_lanes, ArrayPool, ArrayTimings, BitRow, ComputeArray, CycleStats, Operand, SramError, COLS,
};
use nc_telemetry::{Level, Telemetry, TrackId, Value};

use crate::cost::DATA_BITS;
use crate::engine::{ExecutionEngine, ShardObserver};
use crate::layout::{self, AssembleLayout, MacReduceLayout, ZERO_ROW};
use crate::mapping::{gather_window, LaneMap};
use crate::sparsity::SparsityMode;

/// Result of a functional (bit-accurate) model execution.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionalResult {
    /// Final output tensor.
    pub output: QTensor,
    /// Requantization records of every convolution sub-layer, comparable
    /// with the reference executor's records.
    pub sublayers: Vec<SublayerRecord>,
    /// Total array cycles consumed by the in-cache operations.
    pub cycles: CycleStats,
    /// [`ArrayPool`] checkout totals of the run (deterministic across
    /// engines and sparsity modes; see [`PoolEvents`]).
    pub pool: PoolEvents,
}

/// The deterministic [`ArrayPool`] event totals of one execution: how many
/// arrays the shard jobs checked out and returned. Both counts depend only
/// on the model's work decomposition — never on thread scheduling or
/// sparsity mode — so every engine and mode must report the sequential
/// dense run's totals (`nc-verify`'s V020 check).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolEvents {
    /// Total pool checkouts across every shard job of the run.
    pub acquires: u64,
    /// Total handles returned; a completed run always matches `acquires`
    /// (shard jobs own their arrays for exactly the job's lifetime).
    pub releases: u64,
}

/// Errors of the functional executor.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FunctionalError {
    /// The model does not validate ([`Model::validate`]); nothing ran.
    Model(ModelError),
    /// A convolution sub-layer has no weights (shape-only model).
    MissingWeights {
        /// Offending sub-layer.
        name: String,
    },
    /// The input tensor's shape is not the model's input shape.
    InputShape {
        /// The model's input shape.
        expected: Shape,
        /// The shape of the input passed in.
        found: Shape,
    },
    /// A value staged into a two's-complement accumulator operand (a
    /// layer's `C0` constant or a requantization operand) does not fit
    /// its width.
    AccumulatorOverflow {
        /// The value that does not fit.
        value: i64,
        /// The operand's width in bits.
        bits: usize,
    },
    /// An underlying SRAM operation was rejected.
    Sram(SramError),
}

impl fmt::Display for FunctionalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FunctionalError::Model(e) => write!(f, "malformed model: {e}"),
            FunctionalError::MissingWeights { name } => {
                write!(
                    f,
                    "sub-layer {name} has no weights; build the model with weights"
                )
            }
            FunctionalError::InputShape { expected, found } => write!(
                f,
                "input shape {found} does not match the model's input shape {expected}"
            ),
            FunctionalError::AccumulatorOverflow { value, bits } => write!(
                f,
                "{value} does not fit a {bits}-bit two's-complement accumulator operand"
            ),
            FunctionalError::Sram(e) => write!(f, "sram operation failed: {e}"),
        }
    }
}

impl Error for FunctionalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FunctionalError::Model(e) => Some(e),
            FunctionalError::Sram(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SramError> for FunctionalError {
    fn from(e: SramError) -> Self {
        FunctionalError::Sram(e)
    }
}

type Result<T> = std::result::Result<T, FunctionalError>;

/// Runs the whole model bit-accurately on simulated compute arrays, using
/// the sequential reference backend.
///
/// # Errors
///
/// Fails if the model does not validate, the input shape is not the
/// model's or any convolution sub-layer lacks weights.
pub fn run_model(model: &Model, input: &QTensor) -> Result<FunctionalResult> {
    run_model_with(model, input, ExecutionEngine::Sequential)
}

/// Runs the whole model bit-accurately on simulated compute arrays with an
/// explicit execution engine (dense sparsity mode). Outputs, sub-layer
/// records and cycle counts are identical across engines.
///
/// # Errors
///
/// Fails if the model does not validate, the input shape is not the
/// model's or any convolution sub-layer lacks weights.
pub fn run_model_with(
    model: &Model,
    input: &QTensor,
    engine: ExecutionEngine,
) -> Result<FunctionalResult> {
    run_model_configured(model, input, engine, SparsityMode::Dense)
}

/// Runs the whole model bit-accurately with an explicit execution engine
/// **and** sparsity mode. [`SparsityMode::SkipZeroRows`] elides
/// all-lanes-zero weight-bit rounds in the MACs;
/// [`SparsityMode::SkipBoth`] makes the streamed input byte the multiplier,
/// elides all-lanes-zero input-bit rounds behind a 1-cycle wired-NOR detect
/// per round, and truncates executed rounds to the live weight width
/// (static, known at filter-load time). Outputs and sub-layer
/// records are **bit-identical** to dense under every mode (the
/// proptest/bench gates enforce it, like the engine-equivalence gate),
/// while [`CycleStats::skipped_rounds`] /
/// [`CycleStats::input_rounds_skipped`] / [`CycleStats::detect_cycles`] /
/// [`CycleStats::skipped_cycles`] report the elided work and its overhead.
///
/// # Errors
///
/// Fails if the model does not validate, the input shape is not the
/// model's or any convolution sub-layer lacks weights.
pub fn run_model_configured(
    model: &Model,
    input: &QTensor,
    engine: ExecutionEngine,
    mode: SparsityMode,
) -> Result<FunctionalResult> {
    run_model_traced(model, input, engine, mode, &Telemetry::disabled())
}

/// [`run_model_configured`] with a [`Telemetry`] sink attached. The run is
/// observably identical to an untraced one (same outputs, records, cycles,
/// pool events under every engine and sparsity mode); the sink additionally
/// receives:
///
/// - one `functional.layer` span per top-level layer on the **simulated**
///   time axis (cycles converted at [`ArrayTimings::default`]'s compute
///   clock), carrying that layer's [`CycleStats`] delta as integer span
///   arguments — summing any argument over the category reproduces the
///   returned [`FunctionalResult::cycles`] field **exactly**;
/// - at [`Level::Detail`], one `functional.op` span per in-cache pass
///   (MAC+reduce, ranging, requantize, code-requant, pooling), likewise
///   carrying exact [`CycleStats`] deltas that partition the run's totals;
/// - `functional.pool.acquires` / `functional.pool.releases` counters
///   matching [`FunctionalResult::pool`];
/// - on a parallel engine, wall-clock shard observation: the
///   `engine.shard_seconds` histogram, per-worker `engine.worker.N.busy_s`
///   gauges / `engine.worker.N.shards` counters, and `engine.wall_s` /
///   `engine.workers` / `engine.utilization` gauges for
///   utilization-imbalance reporting (host time, never reconciled against
///   simulated time).
///
/// A disabled sink records nothing and costs one branch per call site, so
/// this is also the implementation behind the untraced entry points.
///
/// # Errors
///
/// Fails with [`FunctionalError::Model`] before running anything if the
/// model does not validate, with [`FunctionalError::InputShape`] if the
/// input shape is not the model's, with
/// [`FunctionalError::MissingWeights`] if a convolution sub-layer lacks
/// weights, and with a typed error if an operand cannot be staged.
pub fn run_model_traced(
    model: &Model,
    input: &QTensor,
    engine: ExecutionEngine,
    mode: SparsityMode,
    tel: &Telemetry,
) -> Result<FunctionalResult> {
    model.validate().map_err(FunctionalError::Model)?;
    if input.shape() != model.input_shape {
        return Err(FunctionalError::InputShape {
            expected: model.input_shape,
            found: input.shape(),
        });
    }
    let mut exec = Exec::new(engine, mode, tel.clone())?;
    let timings = ArrayTimings::default();
    let mut cur = input.clone();
    let mut sublayers = Vec::new();
    for layer in &model.layers {
        let before = exec.cycles;
        let record = reference::run_layer_on(&mut exec, layer, &cur)?;
        sublayers.extend(record.sublayers);
        cur = record.output;
        if tel.at(Level::Spans) {
            let start_s = before.seconds(&timings);
            let dur_s = exec.cycles.seconds(&timings) - start_s;
            tel.span(
                exec.layer_track,
                "functional.layer",
                layer.name(),
                start_s,
                dur_s,
                cycle_args(exec.cycles - before),
            );
        }
    }
    let stats = exec.pool.stats();
    debug_assert_eq!(
        stats.acquires, stats.releases,
        "every shard job must return its arrays before the run completes"
    );
    tel.counter_add("functional.pool.acquires", stats.acquires);
    tel.counter_add("functional.pool.releases", stats.releases);
    exec.report_utilization();
    Ok(FunctionalResult {
        output: cur,
        sublayers,
        cycles: exec.cycles,
        pool: PoolEvents {
            acquires: stats.acquires,
            releases: stats.releases,
        },
    })
}

/// A [`CycleStats`] delta rendered as exact integer span arguments, one per
/// public counter field (names match the field names, so reconciliation
/// code reads symmetrically on both sides).
fn cycle_args(delta: CycleStats) -> Vec<(&'static str, Value)> {
    vec![
        ("compute_cycles", Value::U64(delta.compute_cycles)),
        ("access_cycles", Value::U64(delta.access_cycles)),
        ("mul_rounds", Value::U64(delta.mul_rounds)),
        ("skipped_rounds", Value::U64(delta.skipped_rounds)),
        ("skipped_cycles", Value::U64(delta.skipped_cycles)),
        ("detect_cycles", Value::U64(delta.detect_cycles)),
        (
            "input_rounds_skipped",
            Value::U64(delta.input_rounds_skipped),
        ),
    ]
}

struct Exec {
    cycles: CycleStats,
    engine: ExecutionEngine,
    mode: SparsityMode,
    /// Shared recycling pool: arrays persist across layers and shard jobs
    /// instead of being reallocated per run (in hardware they are the same
    /// physical SRAM throughout).
    pool: ArrayPool,
    /// Telemetry sink (the free no-op handle on untraced runs).
    tel: Telemetry,
    /// Simulated-time track for `functional.layer` spans.
    layer_track: TrackId,
    /// Simulated-time track for `functional.op` spans.
    op_track: TrackId,
    /// Wall-clock shard observation, only on traced parallel runs.
    observer: Option<ShardObserver>,
}

impl Exec {
    fn new(engine: ExecutionEngine, mode: SparsityMode, tel: Telemetry) -> Result<Self> {
        let observer = (tel.is_enabled() && engine.is_parallel()).then(ShardObserver::new);
        let layer_track = tel.track("functional", "layers");
        let op_track = tel.track("functional", "ops");
        Ok(Exec {
            cycles: CycleStats::new(),
            engine,
            mode,
            pool: ArrayPool::with_zero_row(ZERO_ROW)?,
            tel,
            layer_track,
            op_track,
            observer,
        })
    }

    /// Runs one in-cache pass as `jobs` shard jobs on the engine, each on
    /// arrays drawn from the shared pool; folds their cycles in job order
    /// and returns their outputs in job order.
    ///
    /// At [`Level::Detail`] it emits one `functional.op` span named `name`
    /// over the pass's cycles. Every pass runs through here, so op spans
    /// partition the run's cycle totals: summing a cycle argument over the
    /// category reproduces the run total exactly.
    fn dispatch<T: Send>(
        &mut self,
        name: &str,
        jobs: usize,
        job: impl Fn(&ArrayPool, usize) -> Result<(T, CycleStats)> + Sync,
    ) -> Result<Vec<T>> {
        let before = self.cycles;
        let pool = &self.pool;
        let shards = self
            .engine
            .run_observed(jobs, |i| job(pool, i), self.observer.as_ref());
        let mut out = Vec::with_capacity(jobs);
        for shard in shards {
            let (value, cycles) = shard?;
            self.cycles += cycles;
            out.push(value);
        }
        if self.tel.at(Level::Detail) {
            let timings = ArrayTimings::default();
            let start_s = before.seconds(&timings);
            let dur_s = self.cycles.seconds(&timings) - start_s;
            let args = cycle_args(self.cycles - before);
            self.tel
                .span(self.op_track, "functional.op", name, start_s, dur_s, args);
        }
        Ok(out)
    }

    /// Folds wall-clock shard samples into the metrics registry (traced
    /// parallel runs only): per-worker busy seconds and shard counts, the
    /// shard-duration histogram, and run-wide wall/utilization gauges.
    fn report_utilization(&self) {
        let Some(obs) = &self.observer else { return };
        let wall_s = obs.elapsed_s();
        let samples = obs.take_samples();
        let workers = self.engine.threads();
        let mut busy = vec![0.0f64; workers];
        let mut shards = vec![0u64; workers];
        for s in &samples {
            busy[s.worker] += s.dur_s;
            shards[s.worker] += 1;
            self.tel.histogram_record("engine.shard_seconds", s.dur_s);
        }
        self.tel.gauge_set("engine.wall_s", wall_s);
        self.tel.gauge_set("engine.workers", workers as f64);
        let busy_total: f64 = busy.iter().sum();
        let utilization = if wall_s > 0.0 {
            busy_total / (wall_s * workers as f64)
        } else {
            0.0
        };
        self.tel.gauge_set("engine.utilization", utilization);
        for w in 0..workers {
            self.tel
                .gauge_set(&format!("engine.worker.{w}.busy_s"), busy[w]);
            self.tel
                .counter_add(&format!("engine.worker.{w}.shards"), shards[w]);
        }
    }

    /// In-cache dynamic ranging: accumulator values are loaded with a 2^38
    /// offset (so two's-complement order matches unsigned order) and
    /// reduced by the in-array min/max trees of Section IV-D; per-chunk
    /// results combine like per-array results do over the bus and ring
    /// (each 256-lane chunk is one shard job).
    fn min_max_in_cache(&mut self, values: &[i64]) -> Result<(i64, i64)> {
        let chunks: Vec<&[i64]> = values.chunks(COLS).collect();
        let extremes = self.dispatch("ranging", chunks.len(), |pool, i| {
            min_max_chunk(pool, chunks[i])
        })?;

        // Per-shard extremes fold through ValueStats: merge is commutative
        // and associative, so the combined range is independent of shard
        // completion order (the threaded engine's only freedom here).
        let mut range = nc_sram::ValueStats::new();
        for (lo, hi) in extremes {
            let mut shard_stats = nc_sram::ValueStats::new();
            shard_stats.observe(lo);
            shard_stats.observe(hi);
            range = range.merge(shard_stats);
        }
        Ok((range.min, range.max))
    }
}

impl Backend for Exec {
    type Error = FunctionalError;

    // ------------------------------------------------------------------
    // Passes 1 and 2: MACs, grouped channel reduction, assembly
    // ------------------------------------------------------------------

    /// Computes the (`ReLU`'d, when fused) integer accumulators of one
    /// convolution sub-layer entirely with bit-serial array operations,
    /// and their range with the in-cache min/max trees.
    ///
    /// Every host array's run of output windows is an independent shard
    /// job (it owns its arrays for the MAC/reduce and assembly passes);
    /// the shards meet only at the ranging barrier below.
    fn accumulate(&mut self, conv: &Conv2d, input: &QTensor) -> Result<(AccTensor, (i64, i64))> {
        let spec = &conv.spec;
        let out_shape = spec.out_shape(input.shape());
        let layer = ConvLayer::new(conv, input.params().zero_point, self.mode)?;

        // Passes 1+2, sharded per host array of `windows_per_array` output
        // windows.
        let (layer, per_filter) = (&layer, spec.macs_per_output());
        let positions = out_shape.h * out_shape.w;
        let jobs = positions.div_ceil(layer.windows_per_array);
        let per_job = self.dispatch("mac-reduce", jobs, |pool, job| {
            let first = job * layer.windows_per_array;
            let n = layer.windows_per_array.min(positions - first);
            let mut windows = vec![0u8; n * per_filter];
            for (pos, window) in (first..).zip(windows.chunks_mut(per_filter)) {
                gather_window(input, spec, pos / out_shape.w, pos % out_shape.w, window);
            }
            layer.run_windows(pool, &windows)
        })?;

        // Each job returns its windows' accumulators window by window, so
        // their concatenation is in output-position order.
        let mut acc = AccTensor::zeros(out_shape);
        for (pos, vals) in per_job.concat().chunks(spec.m).enumerate() {
            let (ey, ex) = (pos / out_shape.w, pos % out_shape.w);
            for (m, &v) in vals.iter().enumerate() {
                acc.set(ey, ex, m, v);
            }
        }

        // Inter-array reduce barrier — dynamic ranging (Section IV-D) needs
        // every shard's accumulators: per-array min/max trees, combined
        // across arrays and slices by bus+ring transfers (host-combined
        // here, exactly like the paper's per-array results).
        let range = self.min_max_in_cache(acc.data())?;
        debug_assert_eq!(
            range,
            acc.min_max(),
            "in-cache ranging must agree with a host scan"
        );
        Ok((acc, range))
    }

    // ------------------------------------------------------------------
    // Pass 3: requantization
    // ------------------------------------------------------------------

    /// Requantizes a layer's accumulators in-cache: subtract the layer
    /// minimum, ReLU-clamp, scalar multiply, shift by row re-addressing,
    /// saturate at 255. Each 256-output array run is one shard job.
    fn requantize(
        &mut self,
        acc: &AccTensor,
        requant: Requantizer,
        out_quant: ActQuant,
    ) -> Result<QTensor> {
        let chunks: Vec<&[i64]> = acc.data().chunks(COLS).collect();
        let out = self.dispatch("requantize", chunks.len(), |pool, i| {
            requant_chunk(pool, chunks[i], requant)
        })?;
        Ok(QTensor::from_vec(acc.shape(), out_quant, out.concat()))
    }

    /// In-cache code-to-code requantization of a pool-final branch
    /// (`q' = clamp((q*m + c) >> sh)`, Section IV-D batch-norm style
    /// multiply/add/shift), sharded per 256-lane array run.
    fn code_requant(
        &mut self,
        codes: &QTensor,
        map: CodeRequant,
        out_quant: ActQuant,
    ) -> Result<QTensor> {
        let chunks: Vec<&[u8]> = codes.data().chunks(COLS).collect();
        let out = self.dispatch("code-requant", chunks.len(), |pool, i| {
            code_requant_chunk(pool, chunks[i], map)
        })?;
        Ok(QTensor::from_vec(codes.shape(), out_quant, out.concat()))
    }

    // ------------------------------------------------------------------
    // Pooling (Section IV-D)
    // ------------------------------------------------------------------

    fn pool(&mut self, pool: &Pool2d, input: &QTensor) -> Result<QTensor> {
        let windows = PoolWindows::new(pool, input);
        // All lanes (across every array run) advance through the same
        // number of rounds, in lockstep with the widest window.
        let max_window = windows.widest();
        let total = windows.out.len();
        let name = match pool.kind {
            PoolKind::Max => "pool-max",
            PoolKind::Avg => "pool-avg",
        };
        let out = self.dispatch(name, total.div_ceil(COLS), |shared_pool, i| {
            // One output per lane, 256 outputs per array run.
            let outputs = i * COLS..total.min((i + 1) * COLS);
            match pool.kind {
                PoolKind::Max => pool_max_chunk(shared_pool, &windows, outputs, max_window),
                PoolKind::Avg => pool_avg_chunk(shared_pool, &windows, outputs, max_window),
            }
        })?;
        Ok(QTensor::from_vec(windows.out, input.params(), out.concat()))
    }
}

/// A pooling layer's windows on its input, one per output: output
/// `(ey, ex, c)` reads channel `c` of the `k x k` window at `(ey, ex)`
/// clipped to the input, row by row, as the golden model does.
struct PoolWindows<'a> {
    input: &'a QTensor,
    out: Shape,
    k: usize,
    stride: usize,
    /// Padding rows above and columns left of the input.
    pad: (usize, usize),
}

impl<'a> PoolWindows<'a> {
    fn new(pool: &Pool2d, input: &'a QTensor) -> Self {
        let in_shape = input.shape();
        let pad = |size| pad_before(size, pool.k, pool.stride, pool.padding);
        PoolWindows {
            input,
            out: pool.out_shape(in_shape),
            k: pool.k,
            stride: pool.stride,
            pad: (pad(in_shape.h), pad(in_shape.w)),
        }
    }

    /// The clipped window of output position `pos` (`ey * out.w + ex`):
    /// its first input row and column, and its row and column counts.
    fn window(&self, pos: usize) -> (usize, usize, usize, usize) {
        let clip = |at: usize, pad: usize, size: usize| {
            let first = at.saturating_sub(pad);
            let end = (at + self.k).saturating_sub(pad).min(size);
            (first, end.saturating_sub(first))
        };
        let in_shape = self.input.shape();
        let (y0, rows) = clip(pos / self.out.w * self.stride, self.pad.0, in_shape.h);
        let (x0, cols) = clip(pos % self.out.w * self.stride, self.pad.1, in_shape.w);
        (y0, x0, rows, cols)
    }

    /// The most elements any window holds.
    fn widest(&self) -> usize {
        let len = |pos| {
            let (_, _, rows, cols) = self.window(pos);
            rows * cols
        };
        (0..self.out.h * self.out.w).map(len).max().unwrap_or(0)
    }

    /// `outputs` as runs of consecutive channels at one output position,
    /// `(position, first channel, channels)`, in lane order.
    fn runs(&self, outputs: Range<usize>) -> impl Iterator<Item = (usize, usize, usize)> {
        let channels = self.out.c;
        let mut o = outputs.start;
        std::iter::from_fn(move || {
            (o < outputs.end).then(|| {
                let (pos, c0) = (o / channels, o % channels);
                let n = (channels - c0).min(outputs.end - o);
                o += n;
                (pos, c0, n)
            })
        })
    }

    /// Stages element `i` of each output's window into `lanes`, one output
    /// per lane from lane 0, read straight from the input. A window with
    /// no element `i` stages its first element when `repeat_first` (a
    /// no-op for max), else 0 (a no-op for a sum).
    fn stage(&self, outputs: Range<usize>, i: usize, repeat_first: bool, lanes: &mut [u64]) {
        let (data, in_shape) = (self.input.data(), self.input.shape());
        let mut lanes = lanes.iter_mut();
        for (pos, c0, n) in self.runs(outputs) {
            let (y0, x0, rows, cols) = self.window(pos);
            let element = if i < rows * cols {
                Some(i)
            } else {
                repeat_first.then_some(0)
            };
            let run = lanes.by_ref().take(n);
            match element {
                Some(e) => {
                    let first = ((y0 + e / cols) * in_shape.w + x0 + e % cols) * in_shape.c + c0;
                    for (lane, &byte) in run.zip(&data[first..first + n]) {
                        *lane = u64::from(byte);
                    }
                }
                None => run.for_each(|lane| *lane = 0),
            }
        }
    }

    /// Stages each output's window length into `lanes`, one output per
    /// lane from lane 0.
    fn stage_lengths(&self, outputs: Range<usize>, lanes: &mut [u64]) {
        let mut lanes = lanes.iter_mut();
        for (pos, _, n) in self.runs(outputs) {
            let (_, _, rows, cols) = self.window(pos);
            lanes
                .by_ref()
                .take(n)
                .for_each(|lane| *lane = (rows * cols) as u64);
        }
    }
}

// ----------------------------------------------------------------------
// Shard jobs: each runs on arrays drawn from the shared pool and reports
// the cycles it consumed, so results fold deterministically in job order.
// ----------------------------------------------------------------------

/// One convolution sub-layer's passes 1 and 2: its lane map, its
/// stationary operands and its pass-2 scalars, prepared once per layer.
///
/// A host array runs `K` = `windows_per_array` output windows side by side
/// ([`LaneGeometry::windows_per_array`](crate::mapping::LaneGeometry::windows_per_array);
/// 1 unless one m-block holds every filter and a filter fits one array).
/// Lane group `g * K + w`, from lane `(g * K + w) * group_span`, runs
/// filter `g` of the m-block against window `w`: each filter's `K` copies
/// sit side by side, so a tap's input plane is the windows' own lanes
/// packed once and repeated for every filter, and each window's lanes are
/// its own.
struct ConvLayer {
    map: LaneMap,
    /// The m-blocks: filters that share one array run.
    blocks: Vec<FilterBlock>,
    /// Filter groups of one window co-resident in one array.
    groups_per_array: usize,
    /// Output windows one host array runs side by side.
    windows_per_array: usize,
    /// Bytes of one gathered input window.
    per_filter: usize,
    zp_w: u64,
    relu: bool,
    mode: SparsityMode,
}

/// One m-block's stationary operands, packed once per layer and repeated
/// for every window of a host array.
struct FilterBlock {
    /// Filters of the block, one lane group per window each.
    groups: usize,
    /// Filter byte planes: [`DATA_BITS`] rows per (array, tap), in the
    /// lane map's order.
    filters: Vec<BitRow>,
    /// The rows of [`AssembleLayout::c0_op`]: filter `g`'s constant `C0`
    /// on the first lane of each of its groups.
    c0: Vec<BitRow>,
}

impl ConvLayer {
    /// Places the layer's bytes with one lane map (Section IV-A
    /// packing/splitting, the same map the sparsity analyses walk) and
    /// packs each m-block's filter planes and `C0` plane once, repeating
    /// each filter's lanes for every window of a host array.
    fn new(conv: &Conv2d, zp_a: i32, mode: SparsityMode) -> Result<Self> {
        let spec = &conv.spec;
        let Some(weights) = conv.weights.as_deref() else {
            return Err(FunctionalError::MissingWeights {
                name: spec.name.clone(),
            });
        };
        let map = LaneMap::new(spec);
        let geom = *map.geometry();
        let groups_per_array = geom.groups_per_array(spec.m);
        let windows_per_array = geom.windows_per_array(spec.m);
        let per_filter = spec.macs_per_output();
        let zp_a = i64::from(zp_a);
        let zp_w = u64::from(conv.w_quant.zero_point as u32);
        let c0_op = AssembleLayout::new().c0_op;
        let span = geom.group_span;
        // Group `g`'s lanes, repeated for each window of a host array.
        let spread = |rows: Vec<BitRow>, groups: usize| -> Vec<BitRow> {
            rows.iter()
                .map(|row| {
                    (0..groups).fold(BitRow::zero(), |out, g| {
                        let at = g * windows_per_array * span;
                        out.or(&row.tiled(g * span, span, windows_per_array, at))
                    })
                })
                .collect()
        };
        let blocks = (0..spec.m)
            .step_by(groups_per_array)
            .map(|first| {
                let groups = groups_per_array.min(spec.m - first);
                let filters =
                    byte_planes(&map, groups, |g, k| weights[(first + g) * per_filter + k])?;
                let mut c0_lanes = vec![0u64; groups * span];
                for g in 0..groups {
                    let m = first + g;
                    let c0 = -zp_a * conv.filter_code_sum(m)
                        + per_filter as i64 * (zp_w as i64) * zp_a
                        + conv.bias_of(m);
                    c0_lanes[g * span] = accumulator_code(c0_op, c0)?;
                }
                let mut c0 = vec![BitRow::zero(); c0_op.bits()];
                pack_lanes(&c0_lanes, &mut c0)?;
                Ok(FilterBlock {
                    groups,
                    filters: spread(filters, groups),
                    c0: spread(c0, groups),
                })
            })
            .collect::<Result<_>>()?;
        Ok(ConvLayer {
            map,
            blocks,
            groups_per_array,
            windows_per_array,
            per_filter,
            zp_w,
            relu: spec.relu,
            mode,
        })
    }

    /// One host array's shard job over the gathered `windows` (at most
    /// [`ConvLayer::windows_per_array`] of them, back to back): stages
    /// their input planes, then runs every m-block against them. Returns
    /// the accumulators window by window, each in filter order, and the
    /// cycles charged.
    fn run_windows(&self, pool: &ArrayPool, windows: &[u8]) -> Result<(Vec<i64>, CycleStats)> {
        let n = windows.len() / self.per_filter;
        let m: usize = self.blocks.iter().map(|b| b.groups).sum();
        // Each window's bytes of a tap go on its own `group_span` lanes
        // once; the packed run repeats for every filter group.
        let inputs: Vec<BitRow> =
            byte_planes(&self.map, n, |w, k| windows[w * self.per_filter + k])?
                .iter()
                .map(|row| self.replicate(row))
                .collect();
        let mut cycles = CycleStats::new();
        let mut accs = vec![0; n * m];
        let mut first = 0;
        for block in &self.blocks {
            let vals = self.run_block(pool, block, windows, &inputs, &mut cycles)?;
            for (acc, vals) in accs.chunks_mut(m).zip(vals.chunks(block.groups)) {
                acc[first..first + block.groups].copy_from_slice(vals);
            }
            first += block.groups;
        }
        Ok((accs, cycles))
    }

    /// `row`'s run of [`ConvLayer::windows_per_array`] windows' lanes,
    /// repeated for every filter group of a host array.
    fn replicate(&self, row: &BitRow) -> BitRow {
        let run = self.windows_per_array * self.map.geometry().group_span;
        row.tiled(0, run, self.groups_per_array, 0)
    }

    /// Each of `n` windows' lanes, in the layout of the host array's input
    /// planes.
    fn window_lanes(&self, n: usize) -> Vec<BitRow> {
        let span = self.map.geometry().group_span;
        let first = self.replicate(&BitRow::ones().tiled(0, span, 1, 0));
        (0..n).map(|w| first.tiled(0, COLS, 1, w * span)).collect()
    }

    /// Runs one m-block's MAC taps, reduce and cross-array fold (pass 1)
    /// for the host array's windows, then assembles every group's
    /// accumulator at once in place (pass 2), and returns them window by
    /// window, read from every group's first lane by one strided peek.
    ///
    /// Clear, reduce, fold and assembly run once per host array, and each
    /// tap once per distinct control-flow key among the windows
    /// ([`ConvLayer::tap_key`]); the other windows' input lanes are zeroed
    /// for that execution. Every execution is charged once per window it
    /// stands for, so the cycles equal those of one array run per window.
    /// Under [`SparsityMode::SkipZeroRows`] the weight operand is the
    /// multiplier and all-lanes-zero weight-bit rounds are elided
    /// (bit-identical products).
    fn run_block(
        &self,
        pool: &ArrayPool,
        block: &FilterBlock,
        windows: &[u8],
        inputs: &[BitRow],
        cycles: &mut CycleStats,
    ) -> Result<Vec<i64>> {
        let geom = self.map.geometry();
        let n = windows.len() / self.per_filter;
        let runs = n as u64;
        let l = MacReduceLayout::new();
        let per_array = geom.eff_window * DATA_BITS;
        let mut keys = Vec::with_capacity(n);
        let mut shared = Vec::new();
        let mut window_lanes = None;
        let mut arrays = Vec::with_capacity(geom.arrays_per_filter);
        for (a, (filters, inputs)) in block
            .filters
            .chunks(per_array)
            .zip(inputs.chunks(per_array))
            .enumerate()
        {
            let mut arr = pool.acquire();
            *cycles += l.clear_sums(&mut arr)? * runs;
            for (t, (w, x)) in filters
                .chunks(DATA_BITS)
                .zip(inputs.chunks(DATA_BITS))
                .enumerate()
            {
                // Tap t's filter and input bytes enter as whole rows
                // (loader path; transfer time is the movement model's).
                arr.load_rows(l.filter_byte, w)?;
                keys.clear();
                keys.extend(
                    windows
                        .chunks(self.per_filter)
                        .map(|win| self.tap_key(win, a, t)),
                );
                // The tap's distinct keys in first-appearance order, each
                // with the windows that share its execution.
                shared.clear();
                for &key in &keys {
                    match shared.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, count)) => *count += 1,
                        None => shared.push((key, 1)),
                    }
                }
                for &(key, count) in &shared {
                    if count == n {
                        arr.load_rows(l.input_byte, x)?;
                    } else {
                        let lanes = window_lanes.get_or_insert_with(|| self.window_lanes(n));
                        let live = keys
                            .iter()
                            .zip(lanes.iter())
                            .filter(|&(&k, _)| k == key)
                            .fold(BitRow::zero(), |live, (_, lanes)| live.or(lanes));
                        let x: [BitRow; DATA_BITS] = std::array::from_fn(|j| x[j].and(&live));
                        arr.load_rows(l.input_byte, &x)?;
                    }
                    // S1 += w * x ; S2 += x — all lanes in parallel.
                    *cycles += l.mac_tap(&mut arr, self.mode)? * count as u64;
                }
            }
            *cycles += l.reduce(
                &mut arr,
                geom.group_span,
                block.groups * self.windows_per_array,
            )? * runs;
            arrays.push(arr);
        }
        let (first, partners) = arrays.split_at_mut(1);
        let arr: &mut ComputeArray = &mut first[0];
        for partner in partners {
            *cycles += l.fold(arr, partner)? * runs;
        }

        let asm = AssembleLayout::new();
        arr.load_rows(asm.c0_op, &block.c0)?;
        *cycles += asm.assemble(arr, self.zp_w, self.relu)? * runs;
        // Group `g * K + w` holds its sum on its first lane.
        let mut t = vec![0; (block.groups - 1) * self.windows_per_array + n];
        arr.peek_lanes_strided(0, geom.group_span, asm.t, &mut t)?;
        Ok((0..n)
            .flat_map(|w| (0..block.groups).map(move |g| g * self.windows_per_array + w))
            .map(|group| asm.t.signed_value(t[group]))
            .collect())
    }

    /// The control-flow key of one window's MAC tap `(a, t)`: the windows
    /// sharing a key can share the tap's execution. Under
    /// [`SparsityMode::Dense`] and [`SparsityMode::SkipZeroRows`] every
    /// round decision comes from the stationary filters, so all windows
    /// share one key; under [`SparsityMode::SkipBoth`] the input bit-slices
    /// decide which rounds run, so the key is the tap's input OR mask
    /// ([`LaneMap::or_mask`], as `activation_profile` measures it).
    fn tap_key(&self, window: &[u8], a: usize, t: usize) -> u8 {
        match self.mode {
            SparsityMode::Dense | SparsityMode::SkipZeroRows => 0,
            SparsityMode::SkipBoth => self.map.or_mask(window, a, t),
        }
    }
}

/// The operand byte planes of every (array, tap) of `map`, [`DATA_BITS`]
/// rows each, for `groups` lane groups side by side: lane
/// `g * group_span + l` of array `a` at tap `t` holds `byte(g, k)` for the
/// window index `k` the map places on lane `l`, and 0 on an empty slot.
fn byte_planes(
    map: &LaneMap,
    groups: usize,
    byte: impl Fn(usize, usize) -> u8,
) -> Result<Vec<BitRow>> {
    let geom = map.geometry();
    let span = geom.group_span;
    let mut lanes = vec![0u64; groups * span];
    let mut planes = vec![BitRow::zero(); geom.arrays_per_filter * geom.eff_window * DATA_BITS];
    for (i, plane) in planes.chunks_mut(DATA_BITS).enumerate() {
        let (a, t) = (i / geom.eff_window, i % geom.eff_window);
        for (l, k) in map.lanes(a, t).iter().enumerate() {
            for g in 0..groups {
                lanes[g * span + l] = k.map_or(0, |k| u64::from(byte(g, k)));
            }
        }
        pack_lanes(&lanes, plane)?;
    }
    Ok(planes)
}

/// One 256-lane min/max ranging run over a chunk of accumulators.
fn min_max_chunk(pool: &ArrayPool, chunk: &[i64]) -> Result<((i64, i64), CycleStats)> {
    const OFFSET: i64 = 1 << 38; // |ACC| < 2^38 stays positive
    let l = layout::RangingLayout::new();

    let mut cycles = CycleStats::new();
    let mut extremes = [0i64; 2];
    // Idle lanes replicate the first value (neutral for both reductions).
    let lanes: Vec<u64> = (0..COLS)
        .map(|lane| (chunk.get(lane).copied().unwrap_or(chunk[0]) + OFFSET) as u64)
        .collect();
    for (max, extreme) in [false, true].into_iter().zip(&mut extremes) {
        let mut arr = pool.acquire();
        arr.poke_lanes(0, l.v, &lanes)?;
        cycles += l.reduce(&mut arr, max, COLS)?;
        *extreme = peek_one(&arr, 0, l.v)? as i64 - OFFSET;
    }
    Ok(((extremes[0], extremes[1]), cycles))
}

/// One 256-output requantization array run (pass 3).
fn requant_chunk(
    pool: &ArrayPool,
    chunk: &[i64],
    requant: Requantizer,
) -> Result<(Vec<u8>, CycleStats)> {
    let l = layout::RequantLayout::new();
    let mut arr = pool.acquire();
    let accs = chunk
        .iter()
        .map(|&v| accumulator_code(l.d_op, v))
        .collect::<Result<Vec<u64>>>()?;
    arr.poke_lanes(0, l.d_op, &accs)?;
    let cycles = l.requantize(&mut arr, requant)?;
    let code = l.prod.slice(requant.shift as usize, 8)?;
    Ok((peek_bytes(&arr, code, chunk.len())?, cycles))
}

/// One 256-code code-to-code requantization array run.
fn code_requant_chunk(
    pool: &ArrayPool,
    chunk: &[u8],
    map: CodeRequant,
) -> Result<(Vec<u8>, CycleStats)> {
    let l = layout::CodeRequantLayout::new();
    let mut arr = pool.acquire();
    poke_bytes(&mut arr, l.q_in, chunk.iter().copied())?;
    let cycles = l.requantize(&mut arr, map)?;
    let code = l.prod.slice(map.sh as usize, 8)?;
    Ok((peek_bytes(&arr, code, chunk.len())?, cycles))
}

/// Max pooling over one 256-lane chunk of outputs: a running max over the
/// window, each step's lane bytes staged straight from the input.
fn pool_max_chunk(
    pool: &ArrayPool,
    windows: &PoolWindows,
    outputs: Range<usize>,
    max_window: usize,
) -> Result<(Vec<u8>, CycleStats)> {
    let l = layout::PoolMaxLayout::new();

    let mut cycles = CycleStats::new();
    let mut arr = pool.acquire();
    let mut lanes = vec![0; outputs.len()];
    windows.stage(outputs.clone(), 0, true, &mut lanes);
    arr.poke_lanes(0, l.acc, &lanes)?;
    for i in 1..max_window {
        // Short windows (image edges) repeat their first element, which is
        // a no-op for max.
        windows.stage(outputs.clone(), i, true, &mut lanes);
        arr.poke_lanes(0, l.x, &lanes)?;
        cycles += l.step(&mut arr)?;
    }
    Ok((peek_bytes(&arr, l.acc, lanes.len())?, cycles))
}

/// Average pooling over one 256-lane chunk of outputs: bit-serial window
/// sum, then lane-wise division by the per-lane valid-element count.
fn pool_avg_chunk(
    pool: &ArrayPool,
    windows: &PoolWindows,
    outputs: Range<usize>,
    max_window: usize,
) -> Result<(Vec<u8>, CycleStats)> {
    let l = layout::PoolAvgLayout::new();

    let mut arr = pool.acquire();
    let mut cycles = l.clear(&mut arr)?;
    let mut lanes = vec![0; outputs.len()];
    for i in 0..max_window {
        windows.stage(outputs.clone(), i, false, &mut lanes);
        arr.poke_lanes(0, l.x, &lanes)?;
        cycles += l.accumulate(&mut arr)?;
    }
    windows.stage_lengths(outputs, &mut lanes);
    arr.poke_lanes(0, l.den, &lanes)?;
    cycles += l.divide(&mut arr)?;
    Ok((peek_bytes(&arr, l.quot.slice(0, 8)?, lanes.len())?, cycles))
}

/// Stages one byte per lane, from lane 0 on, into `op`.
fn poke_bytes(arr: &mut ComputeArray, op: Operand, bytes: impl Iterator<Item = u8>) -> Result<()> {
    let lanes: Vec<u64> = bytes.map(u64::from).collect();
    Ok(arr.poke_lanes(0, op, &lanes)?)
}

/// Lane `lane`'s value of `op`.
fn peek_one(arr: &ComputeArray, lane: usize, op: Operand) -> Result<u64> {
    let mut value = [0];
    arr.peek_lanes(lane, op, &mut value)?;
    Ok(value[0])
}

/// Reads the 8-bit `op` of lanes `0..lanes`.
fn peek_bytes(arr: &ComputeArray, op: Operand, lanes: usize) -> Result<Vec<u8>> {
    let mut values = vec![0u64; lanes];
    arr.peek_lanes(0, op, &mut values)?;
    Ok(values.into_iter().map(|v| v as u8).collect())
}

/// The two's-complement code of `value` in the accumulator operand `op`
/// (a layer's `C0` or a requantization operand).
fn accumulator_code(op: Operand, value: i64) -> Result<u64> {
    op.signed_code(value)
        .map_err(|_| FunctionalError::AccumulatorOverflow {
            value,
            bits: op.bits(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_dnn::reference;
    use nc_dnn::workload::{random_conv, random_input, single_conv_model, tiny_cnn};
    use nc_dnn::{Layer, Padding};

    /// A fresh array to measure a layout method on.
    fn scratch() -> ComputeArray {
        ComputeArray::with_zero_row(ZERO_ROW).expect("scratch array")
    }

    /// The compute and access cycles of one layout-method run.
    fn cost(cycles: std::result::Result<CycleStats, SramError>) -> [u64; 2] {
        let c = cycles.expect("layout method runs");
        [c.compute_cycles, c.access_cycles]
    }

    fn check_model(model: &Model, input_seed: u64) {
        let input = random_input(model.input_shape, model.input_quant, input_seed);
        let golden = reference::run_model(model, &input);
        let ours = run_model(model, &input).expect("functional run");
        assert_eq!(
            ours.output.data(),
            golden.output.data(),
            "functional output differs from the golden executor"
        );
        let golden_recs: Vec<&SublayerRecord> =
            golden.layers.iter().flat_map(|l| &l.sublayers).collect();
        assert_eq!(ours.sublayers.len(), golden_recs.len());
        for (a, b) in ours.sublayers.iter().zip(golden_recs) {
            assert_eq!(a, b, "sub-layer record mismatch for {}", a.name);
        }
        assert!(ours.cycles.compute_cycles > 0);

        // The threaded backend must be observably identical to sequential:
        // bit-identical outputs and records, identical cycle counts and
        // pool events.
        let threaded = run_model_with(model, &input, ExecutionEngine::from_threads(4))
            .expect("threaded functional run");
        assert_eq!(threaded.output.data(), ours.output.data());
        assert_eq!(threaded.sublayers, ours.sublayers);
        assert_eq!(threaded.cycles, ours.cycles);
        assert_eq!(threaded.pool, ours.pool);

        // Round skipping must be bit-identical to dense on every workload
        // (the sparsity analogue of the engine gate): same outputs and
        // records, never more compute cycles, and the skipped/saved
        // counters reconcile the difference exactly.
        let skipping = run_model_configured(
            model,
            &input,
            ExecutionEngine::Sequential,
            SparsityMode::SkipZeroRows,
        )
        .expect("skip-mode functional run");
        assert_eq!(
            skipping.output.data(),
            ours.output.data(),
            "SkipZeroRows output differs from Dense"
        );
        assert_eq!(skipping.sublayers, ours.sublayers);
        assert_eq!(skipping.cycles.mul_rounds, ours.cycles.mul_rounds);
        assert_eq!(ours.cycles.skipped_rounds, 0, "dense never skips");
        assert_eq!(
            skipping.cycles.compute_cycles + skipping.cycles.skipped_cycles,
            ours.cycles.compute_cycles,
            "saved cycles must reconcile dense and skipping runs"
        );

        // Both knobs compose: threaded + skipping matches sequential +
        // skipping, counters included.
        let both = run_model_configured(
            model,
            &input,
            ExecutionEngine::from_threads(4),
            SparsityMode::SkipZeroRows,
        )
        .expect("threaded skip-mode run");
        assert_eq!(both.output.data(), skipping.output.data());
        assert_eq!(both.cycles, skipping.cycles);

        // The dynamic mode is likewise bit-identical to dense; its
        // reconciliation accounts the per-round detect overhead:
        // executed = dense - saved + detect.
        let dynamic = run_model_configured(
            model,
            &input,
            ExecutionEngine::Sequential,
            SparsityMode::SkipBoth,
        )
        .expect("dynamic-mode functional run");
        assert_eq!(
            dynamic.output.data(),
            ours.output.data(),
            "SkipBoth output differs from Dense"
        );
        assert_eq!(dynamic.sublayers, ours.sublayers);
        assert_eq!(dynamic.cycles.mul_rounds, ours.cycles.mul_rounds);
        assert_eq!(dynamic.cycles.access_cycles, ours.cycles.access_cycles);
        assert_eq!(
            dynamic.cycles.skipped_rounds, 0,
            "the dynamic mode skips input rounds, not weight rounds"
        );
        assert_eq!(
            dynamic.cycles.detect_cycles, dynamic.cycles.mul_rounds,
            "every scheduled round pays exactly one detect"
        );
        assert_eq!(
            dynamic.cycles.compute_cycles + dynamic.cycles.skipped_cycles
                - dynamic.cycles.detect_cycles,
            ours.cycles.compute_cycles,
            "detect-aware cycle reconciliation"
        );
        // Every elided input round saves a full dense round; truncation
        // only adds savings on top.
        assert!(
            dynamic.cycles.skipped_cycles
                >= dynamic.cycles.input_rounds_skipped * (DATA_BITS as u64 + 2)
        );
        // Threaded execution reproduces the dynamic counters exactly.
        let thr_dyn = run_model_configured(
            model,
            &input,
            ExecutionEngine::from_threads(4),
            SparsityMode::SkipBoth,
        )
        .expect("threaded dynamic-mode run");
        assert_eq!(thr_dyn.output.data(), dynamic.output.data());
        assert_eq!(thr_dyn.cycles, dynamic.cycles);
    }

    #[test]
    fn single_3x3_conv_matches_reference() {
        let conv = random_conv("c", (3, 3), 4, 3, 1, Padding::Same, true, 11);
        let model = single_conv_model(conv, Shape::new(6, 6, 4));
        check_model(&model, 21);
    }

    #[test]
    fn strided_valid_conv_matches_reference() {
        let conv = random_conv("c", (3, 3), 3, 5, 2, Padding::Valid, true, 12);
        let model = single_conv_model(conv, Shape::new(9, 9, 3));
        check_model(&model, 22);
    }

    #[test]
    fn one_by_one_conv_with_packing_matches_reference() {
        // C = 40 > 16 forces real packing (3 lanes per filter).
        let conv = random_conv("c", (1, 1), 40, 4, 1, Padding::Valid, true, 13);
        let model = single_conv_model(conv, Shape::new(3, 3, 40));
        check_model(&model, 23);
    }

    #[test]
    fn five_by_five_conv_with_splitting_matches_reference() {
        let conv = random_conv("c", (5, 5), 3, 2, 1, Padding::Same, true, 14);
        let model = single_conv_model(conv, Shape::new(7, 7, 3));
        check_model(&model, 24);
    }

    #[test]
    fn asymmetric_kernels_match_reference() {
        let conv = random_conv("c", (1, 7), 8, 3, 1, Padding::Same, true, 15);
        let model = single_conv_model(conv, Shape::new(8, 8, 8));
        check_model(&model, 25);
        let conv = random_conv("c", (7, 1), 8, 3, 1, Padding::Same, true, 16);
        let model = single_conv_model(conv, Shape::new(8, 8, 8));
        check_model(&model, 26);
    }

    #[test]
    fn conv_without_relu_matches_reference() {
        let conv = random_conv("c", (1, 1), 6, 10, 1, Padding::Valid, false, 17);
        let model = single_conv_model(conv, Shape::new(1, 1, 6));
        check_model(&model, 27);
    }

    #[test]
    fn cross_array_filter_matches_reference() {
        // C = 300 -> 512 lanes per filter: spans two arrays, exercising the
        // inter-array reduction fold.
        let conv = random_conv("c", (3, 3), 300, 2, 1, Padding::Valid, true, 18);
        let model = single_conv_model(conv, Shape::new(3, 3, 300));
        check_model(&model, 28);
    }

    #[test]
    fn tiny_cnn_end_to_end_bit_exact() {
        check_model(&tiny_cnn(5), 50);
    }

    #[test]
    fn pruned_models_skip_and_stay_bit_exact() {
        check_model(&nc_dnn::workload::pruned_conv_model(4), 44);
    }

    #[test]
    fn executed_skips_match_the_analytical_prediction() {
        // The predicted-vs-executed cross-check: on a single-conv model the
        // skip fraction measured by sparsity::analyze on the mapper's lane
        // packing must equal the executed counter ratio *exactly*.
        for seed in [1u64, 8, 21] {
            let model = nc_dnn::workload::pruned_conv_model(seed);
            let input = random_input(model.input_shape, model.input_quant, seed + 100);
            let run = run_model_configured(
                &model,
                &input,
                ExecutionEngine::Sequential,
                SparsityMode::SkipZeroRows,
            )
            .expect("skip-mode run");
            let predicted = crate::sparsity::analyze(&model).simd_skip();
            let executed = run.cycles.skip_fraction();
            assert!(
                (executed - predicted).abs() < 1e-12,
                "seed {seed}: executed {executed} vs predicted {predicted}"
            );
            assert!(run.cycles.skipped_rounds > 0, "pruned model must skip");
            assert!(predicted >= 0.75, "keep_bits = 2 skips the top 6 rounds");
        }
    }

    #[test]
    fn executed_input_skips_match_the_activation_profile() {
        // The dynamic analogue of the weight-skip cross-check: the
        // activation profile replays the mapper's lane packing on the
        // actual input, so its predicted elidable-round count must equal
        // the executed input_rounds_skipped counter *exactly* — on
        // multi-layer models too (intermediate activations included).
        use nc_dnn::workload::{relu_sparse_input, relu_sparse_mini};
        for seed in [3u64, 14] {
            let model = relu_sparse_mini(seed);
            let input = relu_sparse_input(model.input_shape, 0.6, 3, seed + 50);
            let run = run_model_configured(
                &model,
                &input,
                ExecutionEngine::Sequential,
                SparsityMode::SkipBoth,
            )
            .expect("dynamic run");
            let profile = crate::sparsity::activation_profile(&model, &input);
            assert_eq!(
                run.cycles.input_rounds_skipped,
                profile.skippable_rounds(),
                "seed {seed}: executed vs predicted skip count"
            );
            assert_eq!(
                run.cycles.mul_rounds,
                profile.total_rounds(),
                "seed {seed}: scheduled round count"
            );
            assert!(
                run.cycles.input_rounds_skipped > 0,
                "ReLU-sparse input must elide rounds"
            );
        }
    }

    #[test]
    fn traced_run_is_identical_and_rollups_reconcile_exactly() {
        let model = tiny_cnn(2018);
        let input = random_input(model.input_shape, model.input_quant, 9);
        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::from_threads(4),
        ] {
            for mode in [
                SparsityMode::Dense,
                SparsityMode::SkipZeroRows,
                SparsityMode::SkipBoth,
            ] {
                let case = format!("{engine:?}/{mode:?}");
                let plain = run_model_configured(&model, &input, engine, mode).expect("plain run");
                let tel = Telemetry::enabled(Level::Detail);
                let traced =
                    run_model_traced(&model, &input, engine, mode, &tel).expect("traced run");
                // The trace must be a pure observer: same outputs, records,
                // cycles and pool events.
                assert_eq!(traced.output.data(), plain.output.data(), "{case}");
                assert_eq!(traced.sublayers, plain.sublayers, "{case}");
                assert_eq!(traced.cycles, plain.cycles, "{case}");
                assert_eq!(traced.pool, plain.pool, "{case}");
                // One layer span per top-level layer; both the layer and the
                // op rollups reproduce every cycle counter of the run exactly.
                assert_eq!(
                    tel.span_count("functional.layer"),
                    model.layers.len(),
                    "{case}"
                );
                assert!(
                    tel.span_count("functional.op") >= model.layers.len(),
                    "{case}"
                );
                let c = traced.cycles;
                for (arg, want) in [
                    ("compute_cycles", c.compute_cycles),
                    ("access_cycles", c.access_cycles),
                    ("mul_rounds", c.mul_rounds),
                    ("skipped_rounds", c.skipped_rounds),
                    ("skipped_cycles", c.skipped_cycles),
                    ("detect_cycles", c.detect_cycles),
                    ("input_rounds_skipped", c.input_rounds_skipped),
                ] {
                    for cat in ["functional.layer", "functional.op"] {
                        assert_eq!(tel.sum_u64_arg(cat, arg), want, "{case} {cat} {arg}");
                    }
                }
                // Pool counters mirror the returned pool events.
                assert_eq!(
                    tel.counter("functional.pool.acquires"),
                    traced.pool.acquires,
                    "{case}"
                );
                assert_eq!(
                    tel.counter("functional.pool.releases"),
                    traced.pool.releases,
                    "{case}"
                );
                // A parallel traced run records wall-clock shard utilization.
                if engine != ExecutionEngine::Sequential {
                    assert!(tel.gauge("engine.wall_s").is_some(), "{case}");
                    assert_eq!(tel.gauge("engine.workers"), Some(4.0), "{case}");
                    let h = tel.histogram("engine.shard_seconds").expect("shard hist");
                    assert!(h.count() > 0, "{case}");
                }
            }
        }

        // A Summary-level sink keeps metrics but drops spans.
        let plain = run_model(&model, &input).expect("plain run");
        let summary = Telemetry::enabled(Level::Summary);
        let again = run_model_traced(
            &model,
            &input,
            ExecutionEngine::Sequential,
            SparsityMode::Dense,
            &summary,
        )
        .expect("summary run");
        assert_eq!(again.cycles, plain.cycles);
        assert_eq!(summary.total_spans(), 0);
        assert_eq!(
            summary.counter("functional.pool.acquires"),
            plain.pool.acquires
        );
    }

    #[test]
    fn oversubscribed_threads_still_agree() {
        // More workers than shard jobs (1x1 output): the engine must not
        // deadlock, skip, or duplicate work.
        let conv = random_conv("c", (1, 1), 6, 3, 1, Padding::Valid, true, 19);
        let model = single_conv_model(conv, Shape::new(1, 1, 6));
        let input = random_input(model.input_shape, model.input_quant, 29);
        let seq = run_model(&model, &input).expect("sequential");
        let thr =
            run_model_with(&model, &input, ExecutionEngine::from_threads(16)).expect("threaded");
        assert_eq!(seq.output.data(), thr.output.data());
        assert_eq!(seq.cycles, thr.cycles);
    }

    #[test]
    fn unstageable_operand_is_a_typed_error() {
        // A 16x16 average window holds 256 elements: one count more than the
        // 8-bit divisor operand of the pooling layout can stage.
        let model = Model {
            name: "avg16".into(),
            input_shape: Shape::new(16, 16, 1),
            input_quant: ActQuant::from_range(0.0, 1.0),
            layers: vec![Layer::Pool(Pool2d {
                name: "avg16/pool".into(),
                kind: PoolKind::Avg,
                k: 16,
                stride: 1,
                padding: Padding::Valid,
            })],
        };
        let input = random_input(model.input_shape, model.input_quant, 5);
        let err = run_model(&model, &input).unwrap_err();
        assert_eq!(
            err,
            FunctionalError::Sram(SramError::DestinationTooNarrow {
                needed: 9,
                available: 8,
            })
        );
    }

    /// One output window's mac-reduce charge of `conv`, compute and access
    /// cycles, each term measured by running its layout method on a scratch
    /// array: per m-block, every array's clear, taps and reduce, the
    /// cross-array folds, and one assembly (pass 2 runs once per array run,
    /// not once per output).
    fn window_cost(conv: &Conv2d) -> [u64; 2] {
        let spec = &conv.spec;
        let geom = crate::mapping::conv_lane_geometry(spec);
        let (l, asm) = (MacReduceLayout::new(), AssembleLayout::new());
        let zero = cost(l.clear_sums(&mut scratch()));
        let tap = cost(l.mac_tap(&mut scratch(), SparsityMode::Dense));
        let fold = cost(l.fold(&mut scratch(), &mut scratch()));
        let zp_w = u64::from(conv.w_quant.zero_point as u32);
        let assemble = cost(asm.assemble(&mut scratch(), zp_w, spec.relu));
        let arrays = geom.arrays_per_filter as u64;
        let mut total = [0u64; 2];
        let mut first = 0;
        while first < spec.m {
            let groups = geom.groups_per_array(spec.m).min(spec.m - first);
            let reduce = cost(l.reduce(&mut scratch(), geom.group_span, groups));
            for i in 0..2 {
                let array = zero[i] + geom.eff_window as u64 * tap[i] + reduce[i];
                total[i] += arrays * array + (arrays - 1) * fold[i] + assemble[i];
            }
            first += groups;
        }
        total
    }

    /// The executed `mac-reduce` compute and access cycles of a traced run.
    fn mac_reduce_cycles(tel: &Telemetry) -> [u64; 2] {
        ["compute_cycles", "access_cycles"]
            .map(|arg| tel.sum_u64_arg_named("functional.op", "mac-reduce", arg))
    }

    #[test]
    fn mac_reduce_cycles_are_the_layout_methods_once_per_array_run() {
        let cases = [
            // Many groups per array, like Conv2d_1a_3x3.
            (
                random_conv("groups", (3, 3), 3, 32, 2, Padding::Valid, true, 31),
                Shape::new(9, 9, 3),
            ),
            // Packing: 16 channels per lane.
            (
                random_conv("packed", (1, 1), 40, 4, 1, Padding::Valid, true, 32),
                Shape::new(3, 3, 40),
            ),
            // Splitting: a 5x5 window over three lanes per channel.
            (
                random_conv("split", (5, 5), 3, 2, 1, Padding::Same, false, 33),
                Shape::new(5, 5, 3),
            ),
            // A filter spanning two arrays, folded across them.
            (
                random_conv("wide", (3, 3), 300, 2, 1, Padding::Valid, true, 34),
                Shape::new(3, 3, 300),
            ),
        ];
        for (conv, in_shape) in cases {
            let model = single_conv_model(conv.clone(), in_shape);
            let input = random_input(model.input_shape, model.input_quant, 35);
            let tel = Telemetry::enabled(Level::Detail);
            run_model_traced(
                &model,
                &input,
                ExecutionEngine::Sequential,
                SparsityMode::Dense,
                &tel,
            )
            .expect("traced run");
            let windows = conv.spec.out_shape(in_shape).len() / conv.spec.m;
            let expected = window_cost(&conv).map(|c| windows as u64 * c);
            assert_eq!(mac_reduce_cycles(&tel), expected, "{}", conv.spec.name);
        }
    }

    /// Convs whose filters leave room for K > 1 windows per host array,
    /// over window counts that are no multiple of K, on a ReLU-sparse input
    /// whose windows differ in input OR mask within a host array: every
    /// packed window is charged as its own array run in every mode and on
    /// both engines, while the MAC pass checks out one array per host
    /// array.
    #[test]
    fn packed_windows_are_charged_as_their_own_array_runs() {
        use crate::mapping::conv_lane_geometry;
        use crate::sparsity::activation_profile;
        use nc_dnn::workload::{relu_act_quant, relu_sparse_input};
        // K = 2 over 9 windows, K = 85 over 100, K = 16 over 49.
        let cases = [
            (
                random_conv("k2", (3, 3), 3, 32, 2, Padding::Valid, true, 61),
                Shape::new(7, 7, 3),
            ),
            (
                random_conv("k85", (1, 1), 8, 3, 1, Padding::Same, true, 62),
                Shape::new(10, 10, 8),
            ),
            (
                random_conv("k16", (3, 3), 4, 4, 1, Padding::Same, false, 63),
                Shape::new(7, 7, 4),
            ),
        ];
        for (conv, in_shape) in cases {
            let spec = &conv.spec;
            let name = &spec.name;
            let geom = conv_lane_geometry(spec);
            let k = geom.windows_per_array(spec.m);
            let out = spec.out_shape(in_shape);
            let windows = out.h * out.w;
            assert!(
                k > 1 && windows % k != 0,
                "{name}: K = {k}, {windows} windows"
            );
            let mut model = single_conv_model(conv.clone(), in_shape);
            model.input_quant = relu_act_quant();
            let input = relu_sparse_input(in_shape, 0.5, 3, 64);

            // Some host array holds windows whose OR masks differ at a tap,
            // so SkipBoth must execute that tap once per mask.
            let map = LaneMap::new(spec);
            let masks: Vec<Vec<u8>> = (0..windows)
                .map(|pos| {
                    let mut window = vec![0; spec.macs_per_output()];
                    gather_window(&input, spec, pos / out.w, pos % out.w, &mut window);
                    (0..geom.eff_window)
                        .map(|t| map.or_mask(&window, 0, t))
                        .collect()
                })
                .collect();
            assert!(
                masks
                    .chunks(k)
                    .any(|host| host.iter().any(|m| *m != host[0])),
                "{name}: the windows of every host array share their masks"
            );

            let golden = reference::run_model(&model, &input);
            let profile = activation_profile(&model, &input);
            let mut pool = None;
            for engine in [
                ExecutionEngine::Sequential,
                ExecutionEngine::from_threads(2),
            ] {
                for mode in [
                    SparsityMode::Dense,
                    SparsityMode::SkipZeroRows,
                    SparsityMode::SkipBoth,
                ] {
                    let case = format!("{name} {engine:?}/{mode:?}");
                    let tel = Telemetry::enabled(Level::Detail);
                    let run = run_model_traced(&model, &input, engine, mode, &tel)
                        .expect("functional run");
                    assert_eq!(run.output.data(), golden.output.data(), "{case}");
                    assert_eq!(run.sublayers, golden.layers[0].sublayers, "{case}");
                    match mode {
                        SparsityMode::Dense => {
                            let expected = window_cost(&conv).map(|c| windows as u64 * c);
                            assert_eq!(mac_reduce_cycles(&tel), expected, "{case}");
                        }
                        SparsityMode::SkipBoth => assert_eq!(
                            run.cycles.input_rounds_skipped,
                            profile.skippable_rounds(),
                            "{case}"
                        ),
                        SparsityMode::SkipZeroRows => {}
                    }
                    assert_eq!(*pool.get_or_insert(run.pool), run.pool, "{case}");
                }
            }
            // Ranging checks out two arrays (min and max) per 256
            // accumulators and requantization one; the MAC pass one per
            // host array.
            let chunks = (windows * spec.m).div_ceil(COLS) as u64;
            let mac = windows.div_ceil(k) as u64;
            assert_eq!(pool.map(|p| p.acquires), Some(mac + 3 * chunks), "{name}");
        }
    }

    #[test]
    fn ranging_requant_and_pool_cycles_are_the_layout_methods_per_array_run() {
        // mini_inception has a plain conv, max and average pools, and a
        // Mixed block whose max-pool branch ends in a code requantization.
        // Every conv has at most 256 accumulators and every pooling layer
        // at most 256 outputs of 3x3 windows, except `mini_a/b3_pool`'s
        // 8x8x8: one array run each, two for that pool.
        let model = nc_dnn::workload::mini_inception(44);
        let input = random_input(model.input_shape, model.input_quant, 45);
        let tel = Telemetry::enabled(Level::Detail);
        let run = run_model_traced(
            &model,
            &input,
            ExecutionEngine::Sequential,
            SparsityMode::Dense,
            &tel,
        )
        .expect("traced run");
        let record = |name: &str| run.sublayers.iter().find(|r| r.name == name).unwrap();
        // The pool branch maps mini_a's codes onto mini_r's shared domain.
        let map = CodeRequant::between(
            record("mini_a/b0").out_quant,
            record("mini_r/b0_3x3").out_quant,
        );

        let (trees, requant) = (layout::RangingLayout::new(), layout::RequantLayout::new());
        let (max, avg) = (layout::PoolMaxLayout::new(), layout::PoolAvgLayout::new());
        let code = layout::CodeRequantLayout::new();
        // (span, array runs, one run of the method)
        let convs = run.sublayers.len() as u64;
        let terms = [
            ("ranging", convs, trees.reduce(&mut scratch(), false, COLS)),
            ("ranging", convs, trees.reduce(&mut scratch(), true, COLS)),
            ("code-requant", 1, code.requantize(&mut scratch(), map)),
            ("pool-max", 8, max.step(&mut scratch())),
            ("pool-avg", 3, avg.clear(&mut scratch())),
            ("pool-avg", 3 * 9, avg.accumulate(&mut scratch())),
            ("pool-avg", 3, avg.divide(&mut scratch())),
        ];
        let requants = run
            .sublayers
            .iter()
            .map(|r| requant.requantize(&mut scratch(), r.requant))
            .map(|c| ("requantize", 1, c));
        let mut expected = std::collections::BTreeMap::<_, [u64; 2]>::new();
        for (span, n, c) in terms.into_iter().chain(requants) {
            let (sum, c) = (expected.entry(span).or_default(), cost(c));
            *sum = [sum[0] + n * c[0], sum[1] + n * c[1]];
        }
        for (span, expected) in expected {
            let executed = ["compute_cycles", "access_cycles"]
                .map(|arg| tel.sum_u64_arg_named("functional.op", span, arg));
            assert!(executed[0] > 0, "{span}");
            assert_eq!(executed, expected, "{span}");
        }
    }

    /// A pool-only model at each way a window can be clipped (`Same` at
    /// stride 1 and 2, an even `Same` window, `Valid`), with 37 channels so
    /// a position's channels straddle two array runs: the output is the
    /// golden model's, and every array run steps through the widest window
    /// in lockstep.
    #[test]
    fn pooling_matches_the_golden_model_at_every_window_clip() {
        let shape = Shape::new(9, 7, 37);
        let (max, avg) = (layout::PoolMaxLayout::new(), layout::PoolAvgLayout::new());
        for kind in [PoolKind::Max, PoolKind::Avg] {
            for (k, stride, padding, widest) in [
                (3, 1, Padding::Same, 9),
                (3, 2, Padding::Same, 9),
                (2, 2, Padding::Same, 4),
                (3, 2, Padding::Valid, 9),
            ] {
                let pool = Pool2d {
                    name: "pool".into(),
                    kind,
                    k,
                    stride,
                    padding,
                };
                let runs = pool.out_shape(shape).len().div_ceil(COLS) as u64;
                let model = Model {
                    name: "pool".into(),
                    input_shape: shape,
                    input_quant: ActQuant::from_range(-1.0, 1.0),
                    layers: vec![Layer::Pool(pool)],
                };
                let input = random_input(shape, model.input_quant, 3);
                let run = run_model(&model, &input).expect("pool run");
                let golden = reference::run_model(&model, &input);
                let label = format!("{kind:?} {k}x{k}/{stride} {padding:?}");
                assert_eq!(run.output.data(), golden.output.data(), "{label}");
                let per_run = match kind {
                    PoolKind::Max => cost(max.step(&mut scratch())).map(|c| (widest - 1) * c),
                    PoolKind::Avg => {
                        let [clear, add, divide] = [
                            cost(avg.clear(&mut scratch())),
                            cost(avg.accumulate(&mut scratch())),
                            cost(avg.divide(&mut scratch())),
                        ];
                        [0, 1].map(|i| clear[i] + widest * add[i] + divide[i])
                    }
                };
                let cycles = [run.cycles.compute_cycles, run.cycles.access_cycles];
                assert_eq!(cycles, per_run.map(|c| runs * c), "{label}");
                assert_eq!(run.pool.acquires, runs, "{label}");
            }
        }
    }

    #[test]
    fn input_shape_mismatch_is_a_typed_error() {
        let model = tiny_cnn(5);
        let wrong = Shape::new(
            model.input_shape.h + 1,
            model.input_shape.w,
            model.input_shape.c,
        );
        let input = random_input(wrong, model.input_quant, 6);
        let err = run_model(&model, &input).unwrap_err();
        assert_eq!(
            err,
            FunctionalError::InputShape {
                expected: model.input_shape,
                found: wrong,
            }
        );
        assert!(err.to_string().contains("input shape"));
    }

    #[test]
    fn accumulator_constant_past_40_bits_is_a_typed_error() {
        // A bias of 2^45 puts C0 past the 40-bit two's-complement operand
        // pass 2 stages it into; release builds used to clamp it silently.
        let mut conv = random_conv("c", (1, 1), 4, 2, 1, Padding::Valid, false, 36);
        conv.bias = vec![0, 1 << 45];
        let model = single_conv_model(conv, Shape::new(2, 2, 4));
        let input = random_input(model.input_shape, model.input_quant, 37);
        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::from_threads(2),
        ] {
            let err = run_model_with(&model, &input, engine).unwrap_err();
            assert!(
                matches!(err, FunctionalError::AccumulatorOverflow { value, bits: 40 } if value > 1 << 44),
                "{err:?}"
            );
        }
    }

    #[test]
    fn missing_weights_is_an_error() {
        let model = nc_dnn::inception::inception_v3();
        let input = random_input(model.input_shape, model.input_quant, 0);
        let err = run_model(&model, &input).unwrap_err();
        assert!(matches!(err, FunctionalError::MissingWeights { .. }));
        assert!(err.to_string().contains("weights"));

        // The threaded backend reports the same error.
        let err = run_model_with(&model, &input, ExecutionEngine::from_threads(2)).unwrap_err();
        assert!(matches!(err, FunctionalError::MissingWeights { .. }));
    }

    #[test]
    fn missing_weights_inside_a_mixed_block_is_an_error() {
        // The second conv of mini_c's terminal split runs after two whole
        // blocks and three convs of its own block; the walk must stop there
        // with that conv's name, on either engine.
        let mut model = nc_dnn::workload::mini_inception(3);
        let conv = model
            .layers
            .iter_mut()
            .flat_map(Layer::conv_sublayers_mut)
            .find(|c| c.spec.name == "mini_c/b1_3x1")
            .expect("mini_inception has the split conv");
        conv.weights = None;
        let input = random_input(model.input_shape, model.input_quant, 4);
        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::from_threads(2),
        ] {
            assert_eq!(
                run_model_with(&model, &input, engine).unwrap_err(),
                FunctionalError::MissingWeights {
                    name: "mini_c/b1_3x1".into()
                }
            );
        }
    }
}
