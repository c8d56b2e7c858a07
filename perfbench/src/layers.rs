//! Per-layer probes of the traced run. Host times are taken around calls
//! into each layer's public functions; counters come from `CycleStats`,
//! `FunctionalResult::pool` and the `nc-telemetry` sink the program
//! already feeds.

use std::hint::black_box;
use std::time::{Duration, Instant};

use nc_dnn::reference;
use nc_dnn::workload::{random_input, relu_sparse_input};
use nc_dnn::{ActQuant, Model, Shape};
use nc_sram::{ArrayTimings, ComputeArray, SramError, TransposeUnit, COLS};
use nc_telemetry::{Level, Telemetry};
use neural_cache::layout::{MacReduceLayout, ZERO_ROW};
use neural_cache::{
    energy_of, plan_model, throughput_sweep, time_inference, ExecutionEngine, Phase,
};

use crate::calib::Calibration;
use crate::report::{median, Metrics, Tally, PASSES, SRAM_OPS, SWEEP_BATCHES};
use crate::workload::{Analytic, AnalyticPass, Functional, Unit, THREADS};

/// Milliseconds elapsed since `t`.
#[must_use]
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Calls `round` until `budget` has elapsed and it ran at least
/// `min_rounds` times.
pub fn rounds(budget: Duration, min_rounds: usize, mut round: impl FnMut()) {
    let start = Instant::now();
    let mut n = 0;
    while n < min_rounds || start.elapsed() < budget {
        round();
        n += 1;
    }
}

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(f64::NAN)
}

/// Untraced and traced units of one workload, interleaved so host drift
/// hits both alike.
#[derive(Debug)]
pub struct Overhead<O> {
    /// Median host ms of an untraced unit.
    pub untraced_ms: f64,
    /// Median host ms of a unit recording into a Detail-level sink.
    pub traced_ms: f64,
    /// The sink of the last traced unit.
    pub tel: Telemetry,
    /// The output of the last traced unit.
    pub out: O,
    /// Median calibration-kernel time over the phase, ms: the host speed
    /// the raw per-layer host times were taken at.
    pub kernel_ms: f64,
}

impl<O> Overhead<O> {
    /// Host-time cost of tracing, percent of the untraced median.
    #[must_use]
    pub fn pct(&self) -> f64 {
        100.0 * (self.traced_ms / self.untraced_ms - 1.0)
    }
}

/// Measures [`Overhead`] for `budget`, checking every unit into `tally`.
pub fn overhead<B: Unit>(b: &B, budget: Duration, tally: &mut Tally) -> Overhead<B::Out> {
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut cal = Calibration::default();
    rounds(budget, 5, || {
        cal.sample();
        let t = Instant::now();
        let out = black_box(b.run(&Telemetry::disabled()));
        untraced.push(ms_since(t));
        tally.record(b.check(&out));

        let tel = Telemetry::enabled(Level::Detail);
        let t = Instant::now();
        let out = black_box(b.run(&tel));
        traced.push(ms_since(t));
        tally.record(b.check(&out));
        last = Some((tel, out));
    });
    let (tel, out) = last.expect("at least one round");
    Overhead {
        untraced_ms: med(&untraced),
        traced_ms: med(&traced),
        tel,
        out,
        kernel_ms: cal.median_ms(),
    }
}

/// Units of work per timed `nc-sram` batch (a single op is ~1 µs).
const SRAM_BATCH: usize = 16;

/// Times one op: the median over batches of the mean ns per call, plus the
/// array cycles one call charges.
fn time_op(
    budget: Duration,
    mut op: impl FnMut() -> Result<u64, SramError>,
) -> Result<(f64, u64), SramError> {
    let cycles = op()?;
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..SRAM_BATCH {
            black_box(op()?);
        }
        samples.push(t.elapsed().as_secs_f64() * 1e9 / SRAM_BATCH as f64);
    }
    Ok((med(&samples), cycles))
}

/// The `nc-sram` micro-op probe: one `ComputeArray` per op with all 256
/// lanes live, at the executor's pass-1 operand widths
/// ([`MacReduceLayout`]).
pub fn sram_probe(seed: u64, budget: Duration, m: &mut Metrics) -> Result<(), SramError> {
    let l = MacReduceLayout::new();
    let lanes = Shape::new(1, 1, COLS);
    let quant = ActQuant::from_range(-1.0, 1.0);
    let filters = random_input(lanes, quant, seed ^ 0xF17E);
    let dense = random_input(lanes, quant, seed);
    let sparse = relu_sparse_input(lanes, 0.6, 3, seed);
    let (filters, dense, sparse) = (filters.data(), dense.data(), sparse.data());
    let filled = |inputs: &[u8]| -> Result<ComputeArray, SramError> {
        let mut arr = ComputeArray::with_zero_row(ZERO_ROW)?;
        for lane in 0..COLS {
            arr.poke_lane(lane, l.filter_byte, u64::from(filters[lane]));
            arr.poke_lane(lane, l.input_byte, u64::from(inputs[lane]));
            arr.poke_lane(lane, l.seg_a, u64::from(filters[lane]));
            arr.poke_lane(lane, l.seg_b, u64::from(inputs[lane]));
        }
        Ok(arr)
    };
    let per_op = budget / SRAM_OPS.len() as u32;
    let mut results = Vec::new();

    let mut arr = filled(dense)?;
    results.push(time_op(per_op, || {
        let before = arr.stats();
        arr.mul(l.input_byte, l.filter_byte, l.scratch16)?;
        Ok((arr.stats() - before).total_cycles())
    })?);
    let mut arr = filled(dense)?;
    results.push(time_op(per_op, || {
        let before = arr.stats();
        arr.add_assign(l.seg_a, l.seg_b)?;
        Ok((arr.stats() - before).total_cycles())
    })?);
    let mut arr = filled(dense)?;
    results.push(time_op(per_op, || {
        let before = arr.stats();
        arr.reduce_sum_grouped(l.seg_a, l.seg_b, COLS, 1)?;
        Ok((arr.stats() - before).total_cycles())
    })?);
    let mut arr = filled(sparse)?;
    results.push(time_op(per_op, || {
        let before = arr.stats();
        arr.mul_skip_both(l.filter_byte, l.input_byte, l.scratch16)?;
        Ok((arr.stats() - before).total_cycles())
    })?);
    let mut arr = filled(dense)?;
    results.push(time_op(per_op, || {
        for (lane, &byte) in filters.iter().enumerate() {
            arr.poke_lane(lane, l.filter_byte, u64::from(byte));
        }
        Ok(0)
    })?);
    let arr = filled(dense)?;
    results.push(time_op(per_op, || {
        let sum: u64 = (0..COLS).map(|lane| arr.peek_lane(lane, l.seg_a)).sum();
        black_box(sum);
        Ok(0)
    })?);
    let mut arr = filled(dense)?;
    let mut tmu = TransposeUnit::new(8);
    results.push(time_op(per_op, || {
        let before = arr.stats().total_cycles() + tmu.stats().total_cycles();
        let rows = tmu.transpose_bytes(filters)?;
        for (bit, row) in rows.into_iter().enumerate() {
            arr.access_write_row(l.filter_byte.row(bit), row)?;
        }
        Ok(arr.stats().total_cycles() + tmu.stats().total_cycles() - before)
    })?);

    for ((op, charges_cycles), (ns, cycles)) in SRAM_OPS.iter().zip(results) {
        m.insert(format!("sram.{op}.ns"), ns);
        if *charges_cycles {
            m.insert(format!("sram.{op}.ns_per_cycle"), ns / cycles as f64);
        }
    }
    Ok(())
}

/// Counters of the last traced functional unit, reconciled against its
/// `CycleStats` and `PoolEvents`. Returns whether every reconciliation held.
pub fn functional_counters(
    f: &Functional,
    o: &Overhead<<Functional as Unit>::Out>,
    m: &mut Metrics,
) -> bool {
    let Ok(r) = &o.out else { return false };
    let total = r.cycles.total_cycles();
    let freq = ArrayTimings::default().compute_freq_hz;
    let mut pass_sum = 0u64;
    for pass in PASSES {
        // Op spans carry their cycles as simulated seconds at the compute
        // clock; the sum is far below 2^52 cycles, so rounding is exact.
        let cycles = (o.tel.sum_dur_named("functional.op", pass) * freq).round() as u64;
        pass_sum += cycles;
        m.insert(format!("functional.pass.{pass}.sim_cycles"), cycles as f64);
    }
    let span_total = |cat: &str| {
        o.tel.sum_u64_arg(cat, "compute_cycles") + o.tel.sum_u64_arg(cat, "access_cycles")
    };
    m.insert("functional.skip_fraction".into(), r.cycles.skip_fraction());
    m.insert(
        "functional.input_skip_fraction".into(),
        r.cycles.input_skip_fraction(),
    );
    m.insert(
        "functional.detect_cycles".into(),
        r.cycles.detect_cycles as f64,
    );
    m.insert("functional.pool_acquires".into(), r.pool.acquires as f64);
    let ok = pass_sum == total
        && span_total("functional.op") == total
        && span_total("functional.layer") == total
        && total == f.sim_cycles()
        && o.tel.counter("functional.pool.acquires") == r.pool.acquires;
    if !ok {
        eprintln!(
            "nc-perfbench: telemetry does not reconcile: passes {pass_sum}, op spans {}, layer spans {}, run {total}",
            span_total("functional.op"),
            span_total("functional.layer")
        );
    }
    ok
}

/// Runs each top-level layer as a one-layer model fed the reference
/// activations, timing it (interleaved with whole-model units, so both see
/// the same host) and checking that the chained layers reproduce the whole
/// run: every layer's output and records match `reference::run_layer`, the
/// last output is the whole model's, and the layers' cycles sum exactly to
/// the whole run's. Returns whether the self-check held.
pub fn functional_split(f: &Functional, budget: Duration, m: &mut Metrics) -> bool {
    let mut cur = f.input.clone();
    let mut stages = Vec::new();
    for layer in &f.model.layers {
        let record = reference::run_layer(layer, &cur);
        let model = Model {
            name: layer.name().to_owned(),
            input_shape: cur.shape(),
            input_quant: cur.params(),
            layers: vec![layer.clone()],
        };
        let next = record.output.clone();
        stages.push((model, std::mem::replace(&mut cur, next), record));
    }

    let mut ok = true;
    let mut times = vec![Vec::new(); stages.len()];
    let mut cycles = vec![0u64; stages.len()];
    let mut last_output = None;
    let mut whole = Vec::new();
    rounds(budget, 3, || {
        let t = Instant::now();
        let out = black_box(f.run(&Telemetry::disabled()));
        whole.push(ms_since(t));
        ok &= f.check(&out);
        for (i, (model, input, record)) in stages.iter().enumerate() {
            let t = Instant::now();
            let out = black_box(f.system.run_functional(model, input));
            times[i].push(ms_since(t));
            match out {
                Ok(r) => {
                    ok &=
                        r.output.data() == record.output.data() && r.sublayers == record.sublayers;
                    cycles[i] = r.cycles.total_cycles();
                    last_output = Some(r.output);
                }
                Err(_) => ok = false,
            }
        }
    });
    let chained = last_output.is_some_and(|o| o.data() == f.golden_output.data());
    let cycle_sum: u64 = cycles.iter().sum();
    if !chained || cycle_sum != f.sim_cycles() {
        eprintln!(
            "nc-perfbench: per-layer split does not reconcile: chained output {chained}, cycles {cycle_sum} vs {}",
            f.sim_cycles()
        );
        ok = false;
    }

    let whole_ms = med(&whole);
    let mut layer_ms_sum = 0.0;
    for ((model, _, _), (t, c)) in stages.iter().zip(times.iter().zip(&cycles)) {
        let ms = med(t);
        layer_ms_sum += ms;
        m.insert(format!("functional.{}.host_ms", model.name), ms);
        m.insert(format!("functional.{}.sim_cycles", model.name), *c as f64);
        m.insert(
            format!("functional.{}.ns_per_cycle", model.name),
            ms * 1e6 / *c as f64,
        );
    }
    m.insert("functional.unattributed_ms".into(), whole_ms - layer_ms_sum);
    m.insert(
        "functional.ns_per_cycle".into(),
        whole_ms * 1e6 / f.sim_cycles() as f64,
    );
    ok
}

/// Sequential vs Threaded (2 workers) on the same unit, interleaved, plus
/// the Threaded engine's utilization gauges from one traced unit.
pub fn engine_probe(f: &Functional, budget: Duration, m: &mut Metrics, tally: &mut Tally) {
    let threaded = ExecutionEngine::from_threads(THREADS);
    let (mut seq, mut thr) = (Vec::new(), Vec::new());
    rounds(budget, 3, || {
        for (engine, times) in [
            (ExecutionEngine::Sequential, &mut seq),
            (threaded, &mut thr),
        ] {
            let t = Instant::now();
            let out = black_box(f.run_on(engine, &Telemetry::disabled()));
            times.push(ms_since(t));
            tally.record(f.check(&out));
        }
    });
    m.insert("engine.speedup".into(), med(&seq) / med(&thr));

    let tel = Telemetry::enabled(Level::Summary);
    tally.record(f.check(&f.run_on(threaded, &tel)));
    let busy: Vec<f64> = (0..THREADS)
        .map(|w| {
            tel.gauge(&format!("engine.worker.{w}.busy_s"))
                .unwrap_or(0.0)
        })
        .collect();
    let mean_busy = busy.iter().sum::<f64>() / busy.len() as f64;
    let max_busy = busy.iter().copied().fold(0.0, f64::max);
    let shards: u64 = (0..THREADS)
        .map(|w| tel.counter(&format!("engine.worker.{w}.shards")))
        .sum();
    m.insert(
        "engine.busy_fraction".into(),
        tel.gauge("engine.utilization").unwrap_or(0.0),
    );
    m.insert(
        "engine.imbalance".into(),
        if mean_busy > 0.0 {
            max_busy / mean_busy
        } else {
            0.0
        },
    );
    m.insert("engine.shards".into(), shards as f64);
    m.insert(
        "engine.shard_ms_max".into(),
        tel.histogram("engine.shard_seconds")
            .map_or(0.0, |h| h.max() * 1e3),
    );
}

/// Host time of each analytic layer call, interleaved, each pass checked
/// against the warm-up pass.
pub fn analytic_calls(a: &Analytic, budget: Duration, m: &mut Metrics, tally: &mut Tally) {
    let first = &a.first;
    let (mut verify, mut plan, mut timing, mut sweep, mut serve) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    rounds(budget, 3, || {
        let t = Instant::now();
        let v = black_box(nc_verify::check_model(&a.config, &a.model));
        verify.push(ms_since(t));
        let t = Instant::now();
        let plans = black_box(plan_model(&a.model, &a.config.geometry));
        plan.push(ms_since(t) * 1e3);
        let t = Instant::now();
        let report = black_box(time_inference(&a.config, &a.model));
        timing.push(ms_since(t) * 1e3);
        let energy = energy_of(&a.config, &report);
        let t = Instant::now();
        let reports = black_box(throughput_sweep(&a.config, &a.model, &SWEEP_BATCHES));
        sweep.push(ms_since(t) * 1e3);
        let t = Instant::now();
        let served = black_box(nc_serve::simulate(&a.serve, &a.model, &a.trace));
        serve.push(ms_since(t));
        tally.record(
            v.is_clean()
                && v.diagnostics.len() == first.diagnostics
                && plans == first.plans
                && report == first.report
                && energy == first.energy
                && reports == first.sweep
                && served.summary == first.serving,
        );
    });
    m.insert("verify.check_model_ms".into(), med(&verify));
    m.insert("mapping.plan_us".into(), med(&plan));
    m.insert("timing.time_inference_us".into(), med(&timing));
    m.insert("batching.sweep_us".into(), med(&sweep));
    m.insert("serve.simulate_ms".into(), med(&serve));
}

/// The simulated results of an analytic pass (exact; identical on every
/// workload and seed, except the serving values, which follow the seeded
/// trace).
pub fn simulated(p: &AnalyticPass, m: &mut Metrics) {
    let breakdown = p.report.breakdown();
    m.insert("timing.latency_ms".into(), p.report.total().as_millis_f64());
    for phase in Phase::ALL {
        m.insert(
            format!("timing.share.{}", phase.label()),
            100.0 * breakdown.fraction(phase),
        );
    }
    m.insert("energy.total_j".into(), p.energy.total_j());
    m.insert("energy.avg_power_w".into(), p.energy.avg_power_w());
    let ips = p.sweep_ips();
    for (b, v) in SWEEP_BATCHES.iter().zip(&ips) {
        m.insert(format!("batching.ips.b{b}"), *v);
    }
    m.insert(
        "batching.max_ips".into(),
        ips.iter().copied().fold(0.0, f64::max),
    );
    let s = &p.serving;
    m.insert("serve.p50_ms".into(), s.p50_ms);
    m.insert("serve.p99_ms".into(), s.p99_ms);
    m.insert("serve.goodput_rps".into(), s.goodput_rps);
    m.insert(
        "serve.drop_rate".into(),
        s.dropped as f64 / s.admitted.max(1) as f64,
    );
    m.insert("verify.diagnostics".into(), p.diagnostics as f64);
}
