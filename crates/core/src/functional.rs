//! The bit-accurate functional executor: runs quantized inference on real
//! simulated [`ComputeArray`]s using the bit-serial operations of
//! Sections III and IV-D, and must match the [`nc_dnn::reference`] golden
//! executor **bit for bit** (the paper's trace-matching validation,
//! Section V; DESIGN.md §4/S19).
//!
//! ## Staging
//!
//! One layer executes as three in-cache passes, each of which fits the
//! 256-row budget of an 8KB array:
//!
//! 1. **MAC + reduce** — filters and inputs enter tap by tap as whole-row
//!    bit planes ([`ComputeArray::load_rows`]) built from one per-layer
//!    lane map ([`LaneMap`]): each m-block's filter planes are packed once
//!    per layer (filters are stationary), the input planes once per output
//!    window. Bit-serial multiply accumulates the per-lane partial sum
//!    (`S1`) and the zero-point-correction running sum (`S2`); the grouped
//!    in-array reduction tree (and, for filters spanning two arrays, an
//!    inter-array transfer + add) collapses channels.
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
//! (one job per output window in pass 1+2, one per 256-lane array run in
//! pass 3 and the pooling/ranging helpers), dispatched through an
//! [`ExecutionEngine`] — [`Sequential`](ExecutionEngine::Sequential) or
//! [`Threaded`](ExecutionEngine::Threaded). Jobs draw recycled arrays from
//! a shared [`ArrayPool`] and report their own [`CycleStats`]; shard results
//! are folded in job order, so both backends produce bit-identical outputs
//! *and* identical cycle counts. The only synchronization point is the
//! explicit inter-array reduce barrier before dynamic ranging
//! (Section IV-D), which needs every shard's accumulators.

use std::error::Error;
use std::fmt;

use nc_dnn::quant::{branch_requantizer, conv_requant_plan, shared_out_quant, CodeRequant};
use nc_dnn::reference::SublayerRecord;
use nc_dnn::{
    pad_before, ActQuant, Branch, BranchOp, Conv2d, Layer, MixedBlock, Model, PoolKind, QTensor,
    Requantizer, Shape,
};
use nc_sram::{
    pack_lanes, ArrayPool, ArrayTimings, BitRow, ComputeArray, CycleStats, Operand, SramError, COLS,
};
use nc_telemetry::{Level, Telemetry, TrackId, Value};

use crate::cost::DATA_BITS;
use crate::engine::{ExecutionEngine, ShardObserver};
use crate::layout::{self, AssembleLayout, MacReduceLayout, DUMP_ROW, ZERO_ROW};
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
/// Fails if the input shape is not the model's or any convolution
/// sub-layer lacks weights.
pub fn run_model(model: &Model, input: &QTensor) -> Result<FunctionalResult> {
    run_model_with(model, input, ExecutionEngine::Sequential)
}

/// Runs the whole model bit-accurately on simulated compute arrays with an
/// explicit execution engine (dense sparsity mode). Outputs, sub-layer
/// records and cycle counts are identical across engines.
///
/// # Errors
///
/// Fails if the input shape is not the model's or any convolution
/// sub-layer lacks weights.
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
/// [`SparsityMode::SkipZeroInputs`] makes the streamed input byte the
/// multiplier and elides all-lanes-zero input-bit rounds behind a 1-cycle
/// wired-NOR detect per round; [`SparsityMode::SkipBoth`] adds static
/// weight-side multiplicand truncation on top. Outputs and sub-layer
/// records are **bit-identical** to dense under every mode (the
/// proptest/bench gates enforce it, like the engine-equivalence gate),
/// while [`CycleStats::skipped_rounds`] /
/// [`CycleStats::input_rounds_skipped`] / [`CycleStats::detect_cycles`] /
/// [`CycleStats::skipped_cycles`] report the elided work and its overhead.
///
/// # Errors
///
/// Fails if the input shape is not the model's or any convolution
/// sub-layer lacks weights.
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
/// Fails with [`FunctionalError::InputShape`] if the input shape is not the
/// model's, with [`FunctionalError::MissingWeights`] if a convolution
/// sub-layer lacks weights, and with a typed error if an operand cannot be
/// staged.
pub fn run_model_traced(
    model: &Model,
    input: &QTensor,
    engine: ExecutionEngine,
    mode: SparsityMode,
    tel: &Telemetry,
) -> Result<FunctionalResult> {
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
        let out = exec.run_layer(layer, &cur, &mut sublayers)?;
        cur = out;
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

/// A branch's final output awaiting the block-shared range.
enum Pending {
    Acc(AccChunk, f64, String),
    Codes(QTensor),
}

/// Host-side staging of a sub-layer's in-cache accumulators between passes,
/// with the layer range already computed by the in-cache min/max trees.
struct AccChunk {
    shape: Shape,
    values: Vec<i64>,
    min: i64,
    max: i64,
}

impl AccChunk {
    fn min_max(&self) -> (i64, i64) {
        (self.min, self.max)
    }
}

impl Exec {
    fn new(engine: ExecutionEngine, mode: SparsityMode, tel: Telemetry) -> Result<Self> {
        // Debug-mode pre-pass: prove every shard-job row layout hazard-free
        // before the first array is touched (`nc-verify` runs the same
        // descriptors statically with structured diagnostics).
        #[cfg(debug_assertions)]
        {
            let hazards = layout::validate_plan();
            assert!(hazards.is_empty(), "executor plan hazards: {hazards:?}");
        }
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

    /// Emits a [`Level::Detail`] `functional.op` span covering the cycles
    /// accumulated since `before` (the in-cache pass that just folded). Op
    /// spans partition the run's cycle totals: every fold site emits
    /// exactly one per [`ExecutionEngine`] dispatch it folds, so summing a
    /// cycle argument over the category reproduces the run total exactly.
    fn op_span(&self, name: &str, before: CycleStats) {
        if !self.tel.at(Level::Detail) {
            return;
        }
        let timings = ArrayTimings::default();
        let start_s = before.seconds(&timings);
        let dur_s = self.cycles.seconds(&timings) - start_s;
        self.tel.span(
            self.op_track,
            "functional.op",
            name,
            start_s,
            dur_s,
            cycle_args(self.cycles - before),
        );
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

    fn run_layer(
        &mut self,
        layer: &Layer,
        input: &QTensor,
        records: &mut Vec<SublayerRecord>,
    ) -> Result<QTensor> {
        match layer {
            Layer::Conv(conv) => {
                let acc = self.conv_accumulate(conv, input)?;
                let scale = conv.w_quant.scale * input.params().scale;
                let (acc_min, acc_max) = acc.min_max();
                let (requant, out_quant) = conv_requant_plan(acc_min, acc_max, scale);
                let out = self.requantize(&acc, requant, out_quant)?;
                records.push(SublayerRecord {
                    name: conv.spec.name.clone(),
                    acc_min,
                    acc_max,
                    requant,
                    out_quant,
                });
                Ok(out)
            }
            Layer::Pool(pool) => self.pool(pool, input),
            Layer::Mixed(block) => self.mixed(block, input, records),
        }
    }

    fn mixed(
        &mut self,
        block: &MixedBlock,
        input: &QTensor,
        records: &mut Vec<SublayerRecord>,
    ) -> Result<QTensor> {
        let mut pending = Vec::new();
        for branch in &block.branches {
            self.run_branch(branch, input, records, &mut pending)?;
        }

        // Block-wide real range (in hardware: per-array min/max trees plus
        // a bus/ring reduction; the CPU then derives the scalars).
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

        let mut parts = Vec::with_capacity(pending.len());
        for p in pending {
            match p {
                Pending::Acc(acc, scale, name) => {
                    let requant = branch_requantizer(r_min, r_max, scale);
                    let (acc_min, acc_max) = acc.min_max();
                    let out = self.requantize(&acc, requant, out_quant)?;
                    if let Some(rec) = records.iter_mut().rev().find(|r| r.name == name) {
                        rec.requant = requant;
                        rec.out_quant = out_quant;
                        rec.acc_min = acc_min;
                        rec.acc_max = acc_max;
                    }
                    parts.push(out);
                }
                Pending::Codes(t) => {
                    let map = CodeRequant::between(t.params(), out_quant);
                    parts.push(self.code_requant(&t, map, out_quant)?);
                }
            }
        }
        Ok(concat_channels(&parts, out_quant))
    }

    fn run_branch(
        &mut self,
        branch: &Branch,
        input: &QTensor,
        records: &mut Vec<SublayerRecord>,
        pending: &mut Vec<Pending>,
    ) -> Result<()> {
        let mut cur = input.clone();
        let last = branch.ops.len() - 1;
        for (i, op) in branch.ops.iter().enumerate() {
            match op {
                BranchOp::Pool(p) => {
                    let out = self.pool(p, &cur)?;
                    if i == last {
                        pending.push(Pending::Codes(out));
                        return Ok(());
                    }
                    cur = out;
                }
                BranchOp::Conv(c) => {
                    if i == last {
                        self.pend_conv(c, &cur, records, pending)?;
                        return Ok(());
                    }
                    let acc = self.conv_accumulate(c, &cur)?;
                    let scale = c.w_quant.scale * cur.params().scale;
                    let (acc_min, acc_max) = acc.min_max();
                    let (requant, out_quant) = conv_requant_plan(acc_min, acc_max, scale);
                    let out = self.requantize(&acc, requant, out_quant)?;
                    records.push(SublayerRecord {
                        name: c.spec.name.clone(),
                        acc_min,
                        acc_max,
                        requant,
                        out_quant,
                    });
                    cur = out;
                }
                BranchOp::Split(convs) => {
                    for c in convs {
                        self.pend_conv(c, &cur, records, pending)?;
                    }
                    return Ok(());
                }
            }
        }
        unreachable!("branch has at least one op");
    }

    fn pend_conv(
        &mut self,
        c: &Conv2d,
        input: &QTensor,
        records: &mut Vec<SublayerRecord>,
        pending: &mut Vec<Pending>,
    ) -> Result<()> {
        let acc = self.conv_accumulate(c, input)?;
        let scale = c.w_quant.scale * input.params().scale;
        let (acc_min, acc_max) = acc.min_max();
        let (requant, out_quant) = conv_requant_plan(acc_min, acc_max, scale);
        records.push(SublayerRecord {
            name: c.spec.name.clone(),
            acc_min,
            acc_max,
            requant,
            out_quant,
        });
        pending.push(Pending::Acc(acc, scale, c.spec.name.clone()));
        Ok(())
    }

    // ------------------------------------------------------------------
    // Passes 1 and 2: MACs, grouped channel reduction, assembly
    // ------------------------------------------------------------------

    /// Computes the (`ReLU`'d, when fused) integer accumulators of one
    /// convolution sub-layer entirely with bit-serial array operations.
    ///
    /// Every output window is an independent shard job (it owns its arrays
    /// for the MAC/reduce and assembly passes); the shards meet only at the
    /// ranging barrier below.
    fn conv_accumulate(&mut self, conv: &Conv2d, input: &QTensor) -> Result<AccChunk> {
        let spec = &conv.spec;
        let out_shape = spec.out_shape(input.shape());
        let layer = ConvLayer::new(conv, input.params().zero_point, self.mode)?;

        // Passes 1+2, sharded per output window, on arrays drawn from the
        // shared pool.
        let engine = self.engine;
        let pool = &self.pool;
        let positions = out_shape.h * out_shape.w;
        let layer = &layer;
        let op_before = self.cycles;
        let observer = self.observer.as_ref();
        let shards = engine.run_observed(
            positions,
            |pos| {
                let (ey, ex) = (pos / out_shape.w, pos % out_shape.w);
                let mut window = vec![0u8; spec.macs_per_output()];
                gather_window(input, spec, ey, ex, &mut window);
                layer.run_window(pool, &window)
            },
            observer,
        );

        let mut acc_values = vec![0i64; out_shape.len()];
        for (pos, shard) in shards.into_iter().enumerate() {
            let (vals, cycles) = shard?;
            self.cycles += cycles;
            let (ey, ex) = (pos / out_shape.w, pos % out_shape.w);
            for (m, v) in vals.into_iter().enumerate() {
                acc_values[out_shape.index(ey, ex, m)] = v;
            }
        }
        self.op_span("mac-reduce", op_before);

        // Inter-array reduce barrier — dynamic ranging (Section IV-D) needs
        // every shard's accumulators: per-array min/max trees, combined
        // across arrays and slices by bus+ring transfers (host-combined
        // here, exactly like the paper's per-array results).
        let (min, max) = self.min_max_in_cache(&acc_values)?;
        debug_assert_eq!(
            (min, max),
            (
                acc_values.iter().copied().min().unwrap_or(0),
                acc_values.iter().copied().max().unwrap_or(0)
            ),
            "in-cache ranging must agree with a host scan"
        );
        Ok(AccChunk {
            shape: out_shape,
            values: acc_values,
            min,
            max,
        })
    }

    /// In-cache dynamic ranging: accumulator values are loaded with a 2^38
    /// offset (so two's-complement order matches unsigned order) and
    /// reduced by the in-array min/max trees of Section IV-D; per-chunk
    /// results combine like per-array results do over the bus and ring
    /// (each 256-lane chunk is one shard job).
    fn min_max_in_cache(&mut self, values: &[i64]) -> Result<(i64, i64)> {
        let engine = self.engine;
        let pool = &self.pool;
        let before = self.cycles;
        let observer = self.observer.as_ref();
        let chunks: Vec<&[i64]> = values.chunks(COLS).collect();
        let shards =
            engine.run_observed(chunks.len(), |i| min_max_chunk(pool, chunks[i]), observer);

        // Per-shard extremes fold through ValueStats: merge is commutative
        // and associative, so the combined range is independent of shard
        // completion order (the threaded engine's only freedom here).
        let mut range = nc_sram::ValueStats::new();
        for shard in shards {
            let (lo, hi, cycles) = shard?;
            self.cycles += cycles;
            let mut shard_stats = nc_sram::ValueStats::new();
            shard_stats.observe(lo);
            shard_stats.observe(hi);
            range = range.merge(shard_stats);
        }
        self.op_span("ranging", before);
        Ok((range.min, range.max))
    }

    // ------------------------------------------------------------------
    // Pass 3: requantization
    // ------------------------------------------------------------------

    /// Requantizes a chunk of accumulators in-cache: subtract the layer
    /// minimum, ReLU-clamp, scalar multiply, shift by row re-addressing,
    /// saturate at 255. Each 256-output array run is one shard job.
    fn requantize(
        &mut self,
        acc: &AccChunk,
        requant: Requantizer,
        out_quant: ActQuant,
    ) -> Result<QTensor> {
        let engine = self.engine;
        let pool = &self.pool;
        let before = self.cycles;
        let observer = self.observer.as_ref();
        let chunks: Vec<&[i64]> = acc.values.chunks(COLS).collect();
        let shards = engine.run_observed(
            chunks.len(),
            |i| requant_chunk(pool, chunks[i], requant),
            observer,
        );

        let mut out = Vec::with_capacity(acc.values.len());
        for shard in shards {
            let (bytes, cycles) = shard?;
            self.cycles += cycles;
            out.extend_from_slice(&bytes);
        }
        self.op_span("requantize", before);
        Ok(QTensor::from_vec(acc.shape, out_quant, out))
    }

    /// In-cache code-to-code requantization of a pool-final branch
    /// (`q' = clamp((q*m + c) >> sh)`, Section IV-D batch-norm style
    /// multiply/add/shift), sharded per 256-lane array run.
    fn code_requant(
        &mut self,
        t: &QTensor,
        map: CodeRequant,
        out_quant: ActQuant,
    ) -> Result<QTensor> {
        let engine = self.engine;
        let pool = &self.pool;
        let before = self.cycles;
        let observer = self.observer.as_ref();
        let chunks: Vec<&[u8]> = t.data().chunks(COLS).collect();
        let shards = engine.run_observed(
            chunks.len(),
            |i| code_requant_chunk(pool, chunks[i], map),
            observer,
        );

        let mut out = Vec::with_capacity(t.data().len());
        for shard in shards {
            let (bytes, cycles) = shard?;
            self.cycles += cycles;
            out.extend_from_slice(&bytes);
        }
        self.op_span("code-requant", before);
        Ok(QTensor::from_vec(t.shape(), out_quant, out))
    }

    // ------------------------------------------------------------------
    // Pooling (Section IV-D)
    // ------------------------------------------------------------------

    fn pool(&mut self, pool: &nc_dnn::Pool2d, input: &QTensor) -> Result<QTensor> {
        let in_shape = input.shape();
        let out_shape = pool.out_shape(in_shape);
        let pad_y = pad_before(in_shape.h, pool.k, pool.stride, pool.padding) as isize;
        let pad_x = pad_before(in_shape.w, pool.k, pool.stride, pool.padding) as isize;

        // Collect each output's valid window elements (one output per lane).
        let total = out_shape.len();
        let mut windows: Vec<Vec<u8>> = Vec::with_capacity(total);
        for ey in 0..out_shape.h {
            for ex in 0..out_shape.w {
                for c in 0..out_shape.c {
                    let oy = (ey * pool.stride) as isize - pad_y;
                    let ox = (ex * pool.stride) as isize - pad_x;
                    let mut w = Vec::with_capacity(pool.k * pool.k);
                    for r in 0..pool.k {
                        for s in 0..pool.k {
                            let (y, x) = (oy + r as isize, ox + s as isize);
                            if y >= 0
                                && x >= 0
                                && (y as usize) < in_shape.h
                                && (x as usize) < in_shape.w
                            {
                                w.push(input.get(y as usize, x as usize, c));
                            }
                        }
                    }
                    windows.push(w);
                }
            }
        }

        // All lanes (across every array run) advance through the same
        // number of rounds, in lockstep with the widest window.
        let max_window = windows.iter().map(Vec::len).max().unwrap_or(0);
        let engine = self.engine;
        let shared_pool = &self.pool;
        let before = self.cycles;
        let observer = self.observer.as_ref();
        let chunks: Vec<&[Vec<u8>]> = windows.chunks(COLS).collect();
        let kind = pool.kind;
        let shards = engine.run_observed(
            chunks.len(),
            |i| match kind {
                PoolKind::Max => pool_max_chunk(shared_pool, chunks[i], max_window),
                PoolKind::Avg => pool_avg_chunk(shared_pool, chunks[i], max_window),
            },
            observer,
        );

        let mut out = Vec::with_capacity(total);
        for shard in shards {
            let (bytes, cycles) = shard?;
            self.cycles += cycles;
            out.extend_from_slice(&bytes);
        }
        self.op_span(
            match kind {
                PoolKind::Max => "pool-max",
                PoolKind::Avg => "pool-avg",
            },
            before,
        );
        Ok(QTensor::from_vec(out_shape, input.params(), out))
    }
}

// ----------------------------------------------------------------------
// Shard jobs: each runs on arrays drawn from the shared pool and reports
// the cycles it consumed, so results fold deterministically in job order.
// ----------------------------------------------------------------------

/// One convolution sub-layer's passes 1 and 2: its lane map, its
/// stationary operands and its pass-2 scalars, prepared once per layer.
struct ConvLayer {
    map: LaneMap,
    /// The m-blocks: filters that share one array run.
    blocks: Vec<FilterBlock>,
    /// Filter groups co-resident in one array.
    groups_per_array: usize,
    zp_w: u64,
    relu: bool,
    mode: SparsityMode,
}

/// One m-block's stationary operands, packed once per layer.
struct FilterBlock {
    /// Filters of the block, one lane group each.
    groups: usize,
    /// Filter byte planes: [`DATA_BITS`] rows per (array, tap), in the
    /// lane map's order.
    filters: Vec<BitRow>,
    /// The rows of [`AssembleLayout::c0_op`]: group `g`'s per-channel
    /// constant `C0` on lane `g * group_span`.
    c0: Vec<BitRow>,
}

impl ConvLayer {
    /// Places the layer's bytes with one lane map (Section IV-A
    /// packing/splitting, the same map the sparsity analyses walk) and
    /// packs each m-block's filter planes and `C0` plane.
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
        let per_filter = spec.macs_per_output();
        let zp_a = i64::from(zp_a);
        let zp_w = u64::from(conv.w_quant.zero_point as u32);
        let c0_op = AssembleLayout::new().c0_op;
        let blocks = (0..spec.m)
            .step_by(groups_per_array)
            .map(|first| {
                let groups = groups_per_array.min(spec.m - first);
                let filters =
                    byte_planes(&map, groups, |g, k| weights[(first + g) * per_filter + k])?;
                let mut c0_lanes = vec![0u64; groups * geom.group_span];
                for g in 0..groups {
                    let m = first + g;
                    let c0 = -zp_a * conv.filter_code_sum(m)
                        + per_filter as i64 * (zp_w as i64) * zp_a
                        + conv.bias_of(m);
                    c0_lanes[g * geom.group_span] = accumulator_code(c0_op, c0)?;
                }
                let mut c0 = vec![BitRow::zero(); c0_op.bits()];
                pack_lanes(&c0_lanes, &mut c0)?;
                Ok(FilterBlock {
                    groups,
                    filters,
                    c0,
                })
            })
            .collect::<Result<_>>()?;
        Ok(ConvLayer {
            map,
            blocks,
            groups_per_array,
            zp_w,
            relu: spec.relu,
            mode,
        })
    }

    /// One output window's shard job: packs the window's input planes
    /// (every filter group of an array sees the same input lanes), then
    /// runs every m-block against them. Returns the accumulators in
    /// filter order and the cycles charged.
    fn run_window(&self, pool: &ArrayPool, window: &[u8]) -> Result<(Vec<i64>, CycleStats)> {
        let inputs = byte_planes(&self.map, self.groups_per_array, |_, k| window[k])?;
        let mut cycles = CycleStats::new();
        let mut vals = Vec::new();
        for block in &self.blocks {
            vals.extend(self.run_block(pool, block, &inputs, &mut cycles)?);
        }
        Ok((vals, cycles))
    }

    /// Runs one m-block's MAC taps, reduce and cross-array fold (pass 1),
    /// then assembles every group's accumulator at once in place (pass 2),
    /// and returns group `g`'s accumulator, read from its first lane.
    /// Under [`SparsityMode::SkipZeroRows`] the weight operand is the
    /// multiplier and all-lanes-zero weight-bit rounds are elided
    /// (bit-identical products).
    fn run_block(
        &self,
        pool: &ArrayPool,
        block: &FilterBlock,
        inputs: &[BitRow],
        cycles: &mut CycleStats,
    ) -> Result<Vec<i64>> {
        let geom = self.map.geometry();
        let l = MacReduceLayout::new();
        let per_array = geom.eff_window * DATA_BITS;
        let mut arrays = Vec::with_capacity(geom.arrays_per_filter);
        for (filters, inputs) in block
            .filters
            .chunks(per_array)
            .zip(inputs.chunks(per_array))
        {
            let mut arr = pool.acquire();
            *cycles += l.clear_sums(&mut arr)?;
            for (w, x) in filters.chunks(DATA_BITS).zip(inputs.chunks(DATA_BITS)) {
                // Tap t's filter and input bytes enter as whole rows
                // (loader path; transfer time is the movement model's).
                arr.load_rows(l.filter_byte, w)?;
                arr.load_rows(l.input_byte, x)?;
                // S1 += w * x ; S2 += x — all lanes in parallel.
                *cycles += l.mac_tap(&mut arr, self.mode)?;
            }
            *cycles += l.reduce(&mut arr, geom.group_span, block.groups)?;
            arrays.push(arr);
        }
        let (first, partners) = arrays.split_at_mut(1);
        let arr: &mut ComputeArray = &mut first[0];
        for partner in partners {
            *cycles += l.fold(arr, partner)?;
        }

        let asm = AssembleLayout::new();
        arr.load_rows(asm.c0_op, &block.c0)?;
        *cycles += asm.assemble(arr, self.zp_w, self.relu)?;
        let span = geom.group_span;
        (0..block.groups)
            .map(|g| Ok(asm.t.signed_value(peek_one(arr, g * span, asm.t)?)))
            .collect()
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
fn min_max_chunk(pool: &ArrayPool, chunk: &[i64]) -> Result<(i64, i64, CycleStats)> {
    const OFFSET: i64 = 1 << 38; // |ACC| < 2^38 stays positive
    let layout::RangingLayout { v, scratch, cmp } = layout::RangingLayout::new();
    const DUMP: usize = DUMP_ROW;

    let mut cycles = CycleStats::new();
    let mut min = i64::MAX;
    let mut max = i64::MIN;
    // Idle lanes replicate the first value (neutral for both reductions).
    let lanes: Vec<u64> = (0..COLS)
        .map(|lane| (chunk.get(lane).copied().unwrap_or(chunk[0]) + OFFSET) as u64)
        .collect();
    for want_max in [false, true] {
        let mut arr = pool.acquire();
        arr.poke_lanes(0, v, &lanes)?;
        if want_max {
            cycles += arr.reduce_max(v, scratch, cmp, DUMP, COLS)?;
            max = max.max(peek_one(&arr, 0, v)? as i64 - OFFSET);
        } else {
            cycles += arr.reduce_min(v, scratch, cmp, DUMP, COLS)?;
            min = min.min(peek_one(&arr, 0, v)? as i64 - OFFSET);
        }
    }
    Ok((min, max, cycles))
}

/// One 256-output requantization array run (pass 3).
fn requant_chunk(
    pool: &ArrayPool,
    chunk: &[i64],
    requant: Requantizer,
) -> Result<(Vec<u8>, CycleStats)> {
    let layout::RequantLayout { d_op, prod } = layout::RequantLayout::new();
    let d32 = d_op.slice(0, 32)?;
    const DUMP: usize = DUMP_ROW;

    let mut cycles = CycleStats::new();
    let mut arr = pool.acquire();
    let accs = chunk
        .iter()
        .map(|&v| accumulator_code(d_op, v))
        .collect::<Result<Vec<u64>>>()?;
    arr.poke_lanes(0, d_op, &accs)?;
    // D = max(ACC - acc_min, 0).
    cycles += arr.add_scalar_signed(d_op, -requant.acc_min)?;
    cycles += arr.relu(d_op)?;
    // P = D * M; q = min(P >> SH, 255).
    cycles += arr.mul_scalar(d32, u64::from(requant.multiplier), prod)?;
    let shifted = prod.slice(requant.shift as usize, 16)?;
    cycles += arr.clamp_max_scalar(shifted, 255, DUMP)?;
    Ok((peek_bytes(&arr, shifted.slice(0, 8)?, chunk.len())?, cycles))
}

/// One 256-code code-to-code requantization array run.
fn code_requant_chunk(
    pool: &ArrayPool,
    chunk: &[u8],
    map: CodeRequant,
) -> Result<(Vec<u8>, CycleStats)> {
    let layout::CodeRequantLayout { q_in, prod } = layout::CodeRequantLayout::new();
    let m_abs = map.m.unsigned_abs();

    let mut cycles = CycleStats::new();
    let mut arr = pool.acquire();
    poke_bytes(&mut arr, q_in, chunk.iter().copied())?;
    cycles += arr.mul_scalar(q_in, m_abs, prod)?;
    // m is non-negative for real scale ratios; fold c (possibly negative)
    // as a two's-complement scalar add.
    cycles += arr.add_scalar_signed(prod, map.c)?;
    cycles += arr.relu(prod)?;
    let shifted = prod.slice(map.sh as usize, 16)?;
    cycles += arr.clamp_max_scalar(shifted, 255, DUMP_ROW)?;
    Ok((peek_bytes(&arr, shifted.slice(0, 8)?, chunk.len())?, cycles))
}

/// Max pooling over one 256-lane chunk: running max via subtract / MSB
/// mask / selective copy.
fn pool_max_chunk(
    pool: &ArrayPool,
    chunk: &[Vec<u8>],
    max_window: usize,
) -> Result<(Vec<u8>, CycleStats)> {
    let layout::PoolMaxLayout { acc, x, scratch } = layout::PoolMaxLayout::new();
    const DUMP: usize = DUMP_ROW;

    let mut cycles = CycleStats::new();
    let mut arr = pool.acquire();
    poke_bytes(&mut arr, acc, chunk.iter().map(|w| w[0]))?;
    for i in 1..max_window {
        // Short windows (image edges) repeat their first element, which is
        // a no-op for max.
        poke_bytes(
            &mut arr,
            x,
            chunk.iter().map(|w| w.get(i).copied().unwrap_or(w[0])),
        )?;
        cycles += arr.max_assign(acc, x, scratch, DUMP)?;
    }
    Ok((peek_bytes(&arr, acc, chunk.len())?, cycles))
}

/// Average pooling over one 256-lane chunk: bit-serial window sum, then
/// lane-wise restoring division by the per-lane valid-element count.
fn pool_avg_chunk(
    pool: &ArrayPool,
    chunk: &[Vec<u8>],
    max_window: usize,
) -> Result<(Vec<u8>, CycleStats)> {
    let layout::PoolAvgLayout {
        x,
        sum,
        den,
        quot,
        rem,
        trial,
        notden,
    } = layout::PoolAvgLayout::new();

    let mut cycles = CycleStats::new();
    let mut arr = pool.acquire();
    cycles += arr.zero(sum)?;
    for i in 0..max_window {
        poke_bytes(
            &mut arr,
            x,
            chunk.iter().map(|w| w.get(i).copied().unwrap_or(0)),
        )?;
        cycles += arr.add_assign(sum, x)?;
    }
    let counts: Vec<u64> = chunk.iter().map(|w| w.len() as u64).collect();
    arr.poke_lanes(0, den, &counts)?;
    cycles += arr.div(sum, den, quot, rem, trial, notden)?;
    Ok((peek_bytes(&arr, quot.slice(0, 8)?, chunk.len())?, cycles))
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
    use nc_dnn::reference;
    use nc_dnn::workload::{random_conv, random_input, single_conv_model, tiny_cnn};
    use nc_dnn::Padding;

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

        // The dynamic modes are likewise bit-identical to dense; their
        // reconciliation accounts the per-round detect overhead:
        // executed = dense - saved + detect.
        for mode in [SparsityMode::SkipZeroInputs, SparsityMode::SkipBoth] {
            let dynamic = run_model_configured(model, &input, ExecutionEngine::Sequential, mode)
                .expect("dynamic-mode functional run");
            assert_eq!(
                dynamic.output.data(),
                ours.output.data(),
                "{mode:?} output differs from Dense"
            );
            assert_eq!(dynamic.sublayers, ours.sublayers);
            assert_eq!(dynamic.cycles.mul_rounds, ours.cycles.mul_rounds);
            assert_eq!(dynamic.cycles.access_cycles, ours.cycles.access_cycles);
            assert_eq!(
                dynamic.cycles.skipped_rounds, 0,
                "dynamic modes skip input rounds, not weight rounds"
            );
            assert_eq!(
                dynamic.cycles.detect_cycles, dynamic.cycles.mul_rounds,
                "every scheduled round pays exactly one detect"
            );
            assert_eq!(
                dynamic.cycles.compute_cycles + dynamic.cycles.skipped_cycles
                    - dynamic.cycles.detect_cycles,
                ours.cycles.compute_cycles,
                "{mode:?}: detect-aware cycle reconciliation"
            );
            // Threaded execution reproduces the dynamic counters exactly.
            let thr_dyn =
                run_model_configured(model, &input, ExecutionEngine::from_threads(4), mode)
                    .expect("threaded dynamic-mode run");
            assert_eq!(thr_dyn.output.data(), dynamic.output.data());
            assert_eq!(thr_dyn.cycles, dynamic.cycles);
        }
        // SkipBoth elides at least as many cycles as SkipZeroInputs (the
        // truncation only adds savings) on identical round schedules.
        let inputs_only = run_model_configured(
            model,
            &input,
            ExecutionEngine::Sequential,
            SparsityMode::SkipZeroInputs,
        )
        .expect("input-skip run");
        let both_modes = run_model_configured(
            model,
            &input,
            ExecutionEngine::Sequential,
            SparsityMode::SkipBoth,
        )
        .expect("skip-both run");
        assert_eq!(
            both_modes.cycles.input_rounds_skipped, inputs_only.cycles.input_rounds_skipped,
            "input-side elision is identical; truncation is extra"
        );
        assert!(both_modes.cycles.skipped_cycles >= inputs_only.cycles.skipped_cycles);
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
            for mode in [SparsityMode::SkipZeroInputs, SparsityMode::SkipBoth] {
                let run = run_model_configured(&model, &input, ExecutionEngine::Sequential, mode)
                    .expect("dynamic run");
                let profile = crate::sparsity::activation_profile(&model, &input);
                assert_eq!(
                    run.cycles.input_rounds_skipped,
                    profile.skippable_rounds(),
                    "seed {seed} {mode:?}: executed vs predicted skip count"
                );
                assert_eq!(
                    run.cycles.mul_rounds,
                    profile.total_rounds(),
                    "seed {seed} {mode:?}: scheduled round count"
                );
                assert!(
                    run.cycles.input_rounds_skipped > 0,
                    "ReLU-sparse input must elide rounds"
                );
            }
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
                SparsityMode::SkipZeroInputs,
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
            layers: vec![Layer::Pool(nc_dnn::Pool2d {
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

    #[test]
    fn mac_reduce_cycles_are_the_layout_methods_once_per_array_run() {
        use crate::mapping::conv_lane_geometry;
        // Each term is measured by running its layout method on a scratch
        // array. Pass 2 runs once per array run, not once per output.
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
            let executed = ["compute_cycles", "access_cycles"]
                .map(|arg| tel.sum_u64_arg_named("functional.op", "mac-reduce", arg));

            let spec = &conv.spec;
            let geom = conv_lane_geometry(spec);
            let (l, asm) = (MacReduceLayout::new(), AssembleLayout::new());
            let scratch = || ComputeArray::with_zero_row(ZERO_ROW).expect("scratch array");
            let cost = |c: std::result::Result<CycleStats, SramError>| {
                let c = c.expect("layout method runs");
                [c.compute_cycles, c.access_cycles]
            };
            let zero = cost(l.clear_sums(&mut scratch()));
            let tap = cost(l.mac_tap(&mut scratch(), SparsityMode::Dense));
            let fold = cost(l.fold(&mut scratch(), &mut scratch()));
            let zp_w = u64::from(conv.w_quant.zero_point as u32);
            let assemble = cost(asm.assemble(&mut scratch(), zp_w, spec.relu));
            let windows = spec.out_shape(in_shape).len() / spec.m;
            let mut expected = [0u64; 2];
            let mut first = 0;
            while first < spec.m {
                let groups = geom.groups_per_array(spec.m).min(spec.m - first);
                let reduce = cost(l.reduce(&mut scratch(), geom.group_span, groups));
                for i in 0..2 {
                    let array = zero[i] + geom.eff_window as u64 * tap[i] + reduce[i];
                    let run = geom.arrays_per_filter as u64 * array
                        + (geom.arrays_per_filter as u64 - 1) * fold[i]
                        + assemble[i];
                    expected[i] += windows as u64 * run;
                }
                first += groups;
            }
            assert_eq!(executed, expected, "{}", spec.name);
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
}
