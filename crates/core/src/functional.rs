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
//! 1. **MAC + reduce** — filters/inputs stream tap-by-tap into 8-row byte
//!    regions; bit-serial multiply accumulates the per-lane partial sum
//!    (`S1`) and the zero-point-correction running sum (`S2`); the grouped
//!    in-array reduction tree (and, for filters spanning two arrays, an
//!    inter-array transfer + add) collapses channels.
//! 2. **Accumulator assembly** — `ACC = S1 - zp_w*S2 + C0(m)` via scalar
//!    multiply and region subtract/add over 40-bit two's-complement
//!    operands, then the MSB-masked `ReLU`.
//! 3. **Requantization** — subtract the layer minimum, scalar-multiply by
//!    the CPU-provided multiplier, shift by row re-addressing, saturate.
//!
//! Between passes the executor re-stages values into fresh arrays (in
//! hardware they stay put and the quantization temporaries overlay the
//! spent MAC regions); the arithmetic performed is identical, and every
//! step is a genuine `nc-sram` micro-op sequence.
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
use nc_sram::ops::copy_lanes_between;
use nc_sram::{ArrayPool, ArrayTimings, ComputeArray, CycleStats, SramError, COLS};
use nc_telemetry::{Level, Telemetry, TrackId, Value};

use crate::engine::{ExecutionEngine, ShardObserver};
use crate::layout::{self, DUMP_ROW, ZERO_ROW};
use crate::mapping::{chunk_filter, chunk_window_bytes, conv_lane_geometry};
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
            FunctionalError::Sram(e) => write!(f, "sram operation failed: {e}"),
        }
    }
}

impl Error for FunctionalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FunctionalError::Sram(e) => Some(e),
            FunctionalError::MissingWeights { .. } => None,
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
/// Fails if any convolution sub-layer lacks weights.
pub fn run_model(model: &Model, input: &QTensor) -> Result<FunctionalResult> {
    run_model_with(model, input, ExecutionEngine::Sequential)
}

/// Runs the whole model bit-accurately on simulated compute arrays with an
/// explicit execution engine (dense sparsity mode). Outputs, sub-layer
/// records and cycle counts are identical across engines.
///
/// # Errors
///
/// Fails if any convolution sub-layer lacks weights.
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
/// Fails if any convolution sub-layer lacks weights.
///
/// # Panics
///
/// Panics if the input shape does not match the model's input shape.
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
/// Fails if any convolution sub-layer lacks weights.
///
/// # Panics
///
/// Panics if the input shape does not match the model's input shape.
pub fn run_model_traced(
    model: &Model,
    input: &QTensor,
    engine: ExecutionEngine,
    mode: SparsityMode,
    tel: &Telemetry,
) -> Result<FunctionalResult> {
    assert_eq!(input.shape(), model.input_shape, "input shape mismatch");
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
    // Pass 1: MACs + grouped channel reduction
    // ------------------------------------------------------------------

    /// Computes the (`ReLU`'d, when fused) integer accumulators of one
    /// convolution sub-layer entirely with bit-serial array operations.
    ///
    /// Every output window is an independent shard job (it owns its arrays
    /// for the MAC/reduce and assembly passes); the shards meet only at the
    /// ranging barrier below.
    fn conv_accumulate(&mut self, conv: &Conv2d, input: &QTensor) -> Result<AccChunk> {
        let spec = &conv.spec;
        if conv.weights.is_none() {
            return Err(FunctionalError::MissingWeights {
                name: spec.name.clone(),
            });
        }
        let in_shape = input.shape();
        let out_shape = spec.out_shape(in_shape);
        let zp_a = i64::from(input.params().zero_point);
        let zp_w = u64::from(conv.w_quant.zero_point as u32);
        let n_taps = spec.macs_per_output() as i64;
        let pad_y = pad_before(in_shape.h, spec.r, spec.stride, spec.padding) as isize;
        let pad_x = pad_before(in_shape.w, spec.s, spec.stride, spec.padding) as isize;

        // Lane geometry (Section IV-A packing/splitting) — the exact same
        // computation the mapper plans with, so skip-fraction analysis on
        // the mapping describes this executor's behavior precisely.
        let geom = conv_lane_geometry(spec);

        // Per-filter static data: lane-chunked weight bytes, code sums and
        // the per-channel constant C0.
        let filter_lanes: Vec<Vec<Vec<u8>>> =
            (0..spec.m).map(|m| chunk_filter(conv, m, &geom)).collect();
        let c0: Vec<i64> = (0..spec.m)
            .map(|m| {
                -zp_a * conv.filter_code_sum(m) + n_taps * (zp_w as i64) * zp_a + conv.bias_of(m)
            })
            .collect();

        let group_span = geom.group_span;
        let arrays_per_filter = geom.arrays_per_filter;
        let groups_per_array = geom.groups_per_array(spec.m);

        // Passes 1+2, sharded per output window: each job MACs and reduces
        // every filter group against its window, then assembles the
        // accumulators, on arrays drawn from the shared pool.
        let engine = self.engine;
        let mode = self.mode;
        let pool = &self.pool;
        let positions = out_shape.h * out_shape.w;
        let filter_lanes = &filter_lanes;
        let c0 = &c0;
        let op_before = self.cycles;
        let observer = self.observer.as_ref();
        let shards = engine.run_observed(
            positions,
            |pos| -> Result<(Vec<i64>, CycleStats)> {
                let (ey, ex) = (pos / out_shape.w, pos % out_shape.w);
                let mut cycles = CycleStats::new();
                let mut window_bytes = vec![0u8; spec.r * spec.s * spec.c];
                gather_window(input, spec, ey, ex, pad_y, pad_x, &mut window_bytes);
                let input_lanes = chunk_window_bytes(&window_bytes, spec.c, &geom);

                let mut vals = vec![0i64; spec.m];
                let mut m = 0;
                while m < spec.m {
                    let group_count = groups_per_array.min(spec.m - m);
                    let (s1s, s2s) = mac_reduce_run(
                        pool,
                        &mut cycles,
                        &filter_lanes[m..m + group_count],
                        &input_lanes,
                        geom.eff_window,
                        group_span,
                        arrays_per_filter,
                        mode,
                    )?;
                    for (g, (s1, s2)) in s1s.iter().zip(&s2s).enumerate() {
                        // Pass 2: ACC assembly + fused ReLU, in-cache.
                        vals[m + g] =
                            assemble_acc(pool, &mut cycles, *s1, *s2, zp_w, c0[m + g], spec.relu)?;
                    }
                    m += group_count;
                }
                Ok((vals, cycles))
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

/// One MAC+reduce run: `groups` filters (or one filter spanning
/// `arrays_per_filter` arrays) against one input window. Under
/// [`SparsityMode::SkipZeroRows`] the weight operand is the multiplier and
/// all-lanes-zero weight-bit rounds are elided (bit-identical products).
#[allow(clippy::too_many_arguments)]
fn mac_reduce_run(
    pool: &ArrayPool,
    cycles: &mut CycleStats,
    filters: &[Vec<Vec<u8>>],
    input_lanes: &[Vec<u8>],
    eff_window: usize,
    group_span: usize,
    arrays_per_filter: usize,
    mode: SparsityMode,
) -> Result<(Vec<u64>, Vec<u64>)> {
    // Row layout and op sequence of the pass-1 array (all regions
    // disjoint, 202 rows) — shared with the static checker via
    // `crate::layout`.
    let l = layout::MacReduceLayout::new();
    let layout::MacReduceLayout {
        filter_byte,
        input_byte,
        partial,
        s2sum,
        seg_a,
        seg_b,
        s2_a,
        s2_b,
        ..
    } = l;

    let groups = filters.len();
    let mut partial_arrays = Vec::with_capacity(arrays_per_filter);

    for array_idx in 0..arrays_per_filter {
        let mut arr = pool.acquire();
        *cycles += arr.zero(partial)? + arr.zero(s2sum)?;

        // Lane slice handled by this array.
        let lane_base = array_idx * COLS;

        for t in 0..eff_window {
            // Stream tap t of the filter and input bytes (loader path;
            // transfer time is the movement model's concern).
            for (g, chunks) in filters.iter().enumerate() {
                for l in 0..group_span {
                    let lane = g * group_span + l;
                    let byte = chunks.get(lane_base + l).map_or(0, |c| c[t]);
                    arr.poke_lane(lane, filter_byte, u64::from(byte));
                }
            }
            for l in 0..group_span {
                let byte = input_lanes.get(lane_base + l).map_or(0, |c| c[t]);
                for g in 0..groups {
                    arr.poke_lane(g * group_span + l, input_byte, u64::from(byte));
                }
            }
            // S1 += w * x ; S2 += x — all lanes in parallel.
            *cycles += l.mac_tap(&mut arr, mode)?;
        }

        // Widen into the reduction segments, then grouped in-array channel
        // reduction.
        *cycles += l.reduce(&mut arr, group_span, groups)?;
        partial_arrays.push(arr);
    }

    // Cross-array fold (filters spanning two arrays share sense amps,
    // Section III-D): transfer partner sums into array 0 and add.
    let (first, rest) = partial_arrays.split_at_mut(1);
    let arr0: &mut ComputeArray = &mut first[0];
    for partner in rest.iter_mut() {
        *cycles += copy_lanes_between(partner, seg_a, arr0, seg_b, 0, 1)?;
        *cycles += arr0.add_assign(seg_a, seg_b)?;
        *cycles += copy_lanes_between(partner, s2_a, arr0, s2_b, 0, 1)?;
        *cycles += arr0.add_assign(s2_a, s2_b)?;
    }

    let mut s1s = Vec::with_capacity(groups);
    let mut s2s = Vec::with_capacity(groups);
    for g in 0..groups {
        s1s.push(arr0.peek_lane(g * group_span, seg_a));
        s2s.push(arr0.peek_lane(g * group_span, s2_a));
    }
    Ok((s1s, s2s))
}

/// Assembles `ACC = S1 - zp_w*S2 + C0` in a 40-bit two's-complement
/// region and applies the MSB-masked `ReLU` when fused (pass 2).
fn assemble_acc(
    pool: &ArrayPool,
    cycles: &mut CycleStats,
    s1: u64,
    s2: u64,
    zp_w: u64,
    c0: i64,
    relu: bool,
) -> Result<i64> {
    const W: usize = 40;
    let layout::AssembleLayout {
        s1_op,
        s2_op,
        t,
        u,
        scratch,
        c0_op,
    } = layout::AssembleLayout::new();
    let mut arr = pool.acquire();

    arr.poke_lane(0, s1_op, s1);
    arr.poke_lane(0, s2_op, s2);
    arr.poke_lane_signed(0, c0_op, clamp_to_bits(c0, W));

    *cycles += arr.copy_zext(s1_op, t)?;
    *cycles += arr.mul_scalar(s2_op, zp_w, u)?;
    *cycles += arr.sub(t, u, t, scratch)?;
    *cycles += arr.add_assign(t, c0_op)?;
    if relu {
        *cycles += arr.relu(t)?;
    }
    Ok(arr.peek_lane_signed(0, t))
}

/// One 256-lane min/max ranging run over a chunk of accumulators.
fn min_max_chunk(pool: &ArrayPool, chunk: &[i64]) -> Result<(i64, i64, CycleStats)> {
    const OFFSET: i64 = 1 << 38; // |ACC| < 2^38 stays positive
    let layout::RangingLayout { v, scratch, cmp } = layout::RangingLayout::new();
    const DUMP: usize = DUMP_ROW;

    let mut cycles = CycleStats::new();
    let mut min = i64::MAX;
    let mut max = i64::MIN;
    for want_max in [false, true] {
        let mut arr = pool.acquire();
        for lane in 0..COLS {
            // Idle lanes replicate the first value (neutral for both
            // reductions).
            let val = chunk.get(lane).copied().unwrap_or(chunk[0]);
            arr.poke_lane(lane, v, (val + OFFSET) as u64);
        }
        if want_max {
            cycles += arr.reduce_max(v, scratch, cmp, DUMP, COLS)?;
            max = max.max(arr.peek_lane(0, v) as i64 - OFFSET);
        } else {
            cycles += arr.reduce_min(v, scratch, cmp, DUMP, COLS)?;
            min = min.min(arr.peek_lane(0, v) as i64 - OFFSET);
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
    for (lane, &v) in chunk.iter().enumerate() {
        arr.poke_lane_signed(lane, d_op, clamp_to_bits(v, 40));
    }
    // D = max(ACC - acc_min, 0).
    cycles += arr.add_scalar_signed(d_op, -requant.acc_min)?;
    cycles += arr.relu(d_op)?;
    // P = D * M; q = min(P >> SH, 255).
    cycles += arr.mul_scalar(d32, u64::from(requant.multiplier), prod)?;
    let shifted = prod.slice(requant.shift as usize, 16)?;
    cycles += arr.clamp_max_scalar(shifted, 255, DUMP)?;
    let q_op = shifted.slice(0, 8)?;
    let mut out = vec![0u8; chunk.len()];
    for (lane, byte) in out.iter_mut().enumerate() {
        *byte = arr.peek_lane(lane, q_op) as u8;
    }
    Ok((out, cycles))
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
    for (lane, &q) in chunk.iter().enumerate() {
        arr.poke_lane(lane, q_in, u64::from(q));
    }
    cycles += arr.mul_scalar(q_in, m_abs, prod)?;
    // m is non-negative for real scale ratios; fold c (possibly negative)
    // as a two's-complement scalar add.
    cycles += arr.add_scalar_signed(prod, map.c)?;
    cycles += arr.relu(prod)?;
    let shifted = prod.slice(map.sh as usize, 16)?;
    cycles += arr.clamp_max_scalar(shifted, 255, DUMP_ROW)?;
    let q_op = shifted.slice(0, 8)?;
    let mut out = vec![0u8; chunk.len()];
    for (lane, byte) in out.iter_mut().enumerate() {
        *byte = arr.peek_lane(lane, q_op) as u8;
    }
    Ok((out, cycles))
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
    for (lane, w) in chunk.iter().enumerate() {
        arr.poke_lane(lane, acc, u64::from(w[0]));
    }
    for i in 1..max_window {
        for (lane, w) in chunk.iter().enumerate() {
            // Short windows (image edges) repeat their first element,
            // which is a no-op for max.
            let v = w.get(i).copied().unwrap_or(w[0]);
            arr.poke_lane(lane, x, u64::from(v));
        }
        cycles += arr.max_assign(acc, x, scratch, DUMP)?;
    }
    let mut out = vec![0u8; chunk.len()];
    for (lane, byte) in out.iter_mut().enumerate() {
        *byte = arr.peek_lane(lane, acc) as u8;
    }
    Ok((out, cycles))
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
        for (lane, w) in chunk.iter().enumerate() {
            let v = w.get(i).copied().unwrap_or(0);
            arr.poke_lane(lane, x, u64::from(v));
        }
        cycles += arr.add_assign(sum, x)?;
    }
    for (lane, w) in chunk.iter().enumerate() {
        arr.poke_lane(lane, den, w.len() as u64);
    }
    cycles += arr.div(sum, den, quot, rem, trial, notden)?;
    let q_op = quot.slice(0, 8)?;
    let mut out = vec![0u8; chunk.len()];
    for (lane, byte) in out.iter_mut().enumerate() {
        *byte = arr.peek_lane(lane, q_op) as u8;
    }
    Ok((out, cycles))
}

// ----------------------------------------------------------------------
// Window gathering (lane chunking lives in `crate::mapping`)
// ----------------------------------------------------------------------

/// Gathers one padded input window in the same (r, s, c) order as the
/// reference executor, then regroups it channel-major for lane chunking.
fn gather_window(
    input: &QTensor,
    spec: &nc_dnn::ConvSpec,
    ey: usize,
    ex: usize,
    pad_y: isize,
    pad_x: isize,
    out: &mut [u8],
) {
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

fn clamp_to_bits(v: i64, bits: usize) -> i64 {
    let lo = -(1i64 << (bits - 1));
    let hi = (1i64 << (bits - 1)) - 1;
    debug_assert!(
        (lo..=hi).contains(&v),
        "{v} exceeds {bits}-bit two's complement"
    );
    v.clamp(lo, hi)
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
