//! Property tests of the telemetry layer's exactness contract: for random
//! (optionally pruned) single-conv models under any [`SparsityMode`] and
//! either [`ExecutionEngine`], a traced run must be indistinguishable from
//! the untraced run — same output bytes, sublayer records, and
//! [`nc_sram::CycleStats`] — while the per-layer **and** per-op span
//! rollups each reproduce the executed cycle counters integer-for-integer
//! and the pool counters match the executor's `PoolEvents`.

use nc_dnn::workload::{prune_conv, random_conv, random_input, single_conv_model};
use nc_dnn::{Padding, Shape};
use nc_sram::CycleStats;
use nc_telemetry::{Level, Telemetry};
use neural_cache::functional::{run_model_configured, run_model_traced};
use neural_cache::{ExecutionEngine, SparsityMode};
use proptest::prelude::*;

/// Decodes a sparsity mode from a random draw.
fn mode_from(sel: u8) -> SparsityMode {
    match sel % 3 {
        0 => SparsityMode::Dense,
        1 => SparsityMode::SkipZeroRows,
        _ => SparsityMode::SkipBoth,
    }
}

/// One executed counter: span-argument name + accessor.
type CycleField = (&'static str, fn(&CycleStats) -> u64);

/// Every executed counter, keyed by the span-argument name the
/// instrumentation emits.
fn cycle_fields() -> [CycleField; 7] {
    [
        ("compute_cycles", |c| c.compute_cycles),
        ("access_cycles", |c| c.access_cycles),
        ("mul_rounds", |c| c.mul_rounds),
        ("skipped_rounds", |c| c.skipped_rounds),
        ("skipped_cycles", |c| c.skipped_cycles),
        ("detect_cycles", |c| c.detect_cycles),
        ("input_rounds_skipped", |c| c.input_rounds_skipped),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Tracing is a pure observation: the traced run matches the untraced
    /// run exactly, and both span taxonomies partition the executed
    /// cycle counters.
    #[test]
    fn traced_runs_are_identical_and_rollups_reconcile_exactly(
        r in 1usize..4,
        s in 1usize..4,
        c in 1usize..16,
        m in 1usize..5,
        mode_sel in 0u8..3,
        threaded in any::<bool>(),
        keep_bits in 1u32..9,
        zero_pct in 0u32..11,
        seed in 0u64..1000,
    ) {
        let k = 5usize; // input spatial size
        let conv = prune_conv(
            random_conv("prop", (r, s), c, m, 1, Padding::Same, true, seed),
            keep_bits,
            f64::from(zero_pct) / 10.0,
            seed + 7,
        );
        let model = single_conv_model(conv, Shape::new(k, k, c));
        let input = random_input(model.input_shape, model.input_quant, seed + 1);
        let mode = mode_from(mode_sel);
        let engine = if threaded {
            ExecutionEngine::from_threads(2)
        } else {
            ExecutionEngine::Sequential
        };

        let tel = Telemetry::enabled(Level::Detail);
        let traced = run_model_traced(&model, &input, engine, mode, &tel)
            .expect("traced run");
        let plain = run_model_configured(&model, &input, engine, mode)
            .expect("plain run");

        // Pure observation: nothing about the run changes.
        prop_assert_eq!(plain.output.data(), traced.output.data());
        prop_assert_eq!(&plain.sublayers, &traced.sublayers);
        prop_assert_eq!(plain.cycles, traced.cycles);
        prop_assert_eq!(plain.pool, traced.pool);

        // One span per layer; per-layer and per-op argument sums each
        // reproduce the executed counters integer-for-integer.
        prop_assert_eq!(tel.span_count("functional.layer"), model.layers.len());
        prop_assert!(tel.span_count("functional.op") >= model.layers.len());
        for (field, get) in cycle_fields() {
            let want = get(&traced.cycles);
            prop_assert_eq!(
                tel.sum_u64_arg("functional.layer", field), want,
                "functional.layer {} diverged", field
            );
            prop_assert_eq!(
                tel.sum_u64_arg("functional.op", field), want,
                "functional.op {} diverged", field
            );
        }
        prop_assert_eq!(tel.counter("functional.pool.acquires"), traced.pool.acquires);
        prop_assert_eq!(tel.counter("functional.pool.releases"), traced.pool.releases);
    }

    /// The metrics-only level records no spans but keeps every counter,
    /// and the executed results still match the untraced run.
    #[test]
    fn summary_level_records_counters_without_spans(
        c in 1usize..12,
        m in 1usize..4,
        mode_sel in 0u8..3,
        seed in 0u64..1000,
    ) {
        let conv = random_conv("prop", (3, 3), c, m, 1, Padding::Same, true, seed);
        let model = single_conv_model(conv, Shape::new(5, 5, c));
        let input = random_input(model.input_shape, model.input_quant, seed + 1);
        let mode = mode_from(mode_sel);

        let tel = Telemetry::enabled(Level::Summary);
        let traced = run_model_traced(
            &model, &input, ExecutionEngine::Sequential, mode, &tel,
        ).expect("traced run");
        let plain = run_model_configured(
            &model, &input, ExecutionEngine::Sequential, mode,
        ).expect("plain run");

        prop_assert_eq!(plain.output.data(), traced.output.data());
        prop_assert_eq!(plain.cycles, traced.cycles);
        prop_assert_eq!(tel.total_spans(), 0);
        prop_assert_eq!(tel.counter("functional.pool.acquires"), traced.pool.acquires);
        prop_assert_eq!(tel.counter("functional.pool.releases"), traced.pool.releases);
    }
}
