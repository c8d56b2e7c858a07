//! **nc-verify**: a static plan verifier for the Neural Cache
//! reproduction — hazard detection, operand-layout linting, and cycle
//! reconciliation.
//!
//! The compute arrays of the paper (Section III) impose hard structural
//! limits on every cycle: at most **two** word lines sensed (and they must
//! be distinct — the two-row activation of Figure 7), at most **one** word
//! line driven for write-back, the dedicated all-zero row never written,
//! and every row address inside the 256-row array. The executor's
//! correctness and the timing model's honesty both hinge on its operand
//! layouts and op schedules respecting those limits. This crate proves it:
//!
//! 1. **Recorded schedules**: the checked schedules are not re-derived.
//!    Every in-cache pass is a method of its executor layout
//!    ([`neural_cache::layout`]). [`check::mac_tap_schedule`] and
//!    [`check::reduce_schedule`] run pass 1's
//!    ([`neural_cache::layout::MacReduceLayout::mac_tap`] and `reduce`) on
//!    a scratch `ComputeArray` with recording on, so each
//!    [`nc_sram::Schedule`] is the per-cycle row read/write sets of the
//!    micro-ops that really ran. The data-dependent facts (elided rounds,
//!    live weight bits) enter as lane-0 operand data, because those are
//!    exactly what the control FSM knows. The later passes' schedules
//!    depend on per-layer scalars, so [`check`]'s unit tests record them at
//!    the scalars' corner values instead of [`check_model`].
//! 2. [`check`]: a **hazard checker** over those schedules — port
//!    overflows, out-of-bounds rows, zero-row clobbering, operand overlap,
//!    lane packing aliasing, row-budget overflow — plus reserved-way dump
//!    overlap invariants against [`neural_cache::BatchCostModel`].
//! 3. **Cycle reconciliation**: [`neural_cache::cost::DerivedCostModel`]
//!    measures its base costs from the same layout methods, and its
//!    skip-aware MAC costs equal the recorded MAC-tap cycles at every
//!    skip/live anchor point (V009). [`check_executed_model`] checks that
//!    the executed [`nc_sram::CycleStats`] reconcile across sparsity modes
//!    and engines (V010). Both report structured [`diag::Diagnostic`]s
//!    with stable `Vxxx` codes.
//! 4. **Executed pool events** ([`reconcile_pool_events`]): every executed
//!    run — three sparsity modes on both engines — must check out exactly
//!    the `ArrayPool` arrays the sequential dense run does and return every
//!    one of them (V020). The Threaded engine needs no static model of its
//!    own: the workspace forbids `unsafe`, shard jobs are
//!    `Fn(usize) -> T + Sync` closures that own each checkout, and the
//!    executed legs prove it matches the sequential engine.
//! 5. **Value-range certification** ([`range`]): an interval × known-bits
//!    abstract interpretation seeded from each layer's quantization
//!    parameters, propagated op-by-op through the schedule and across
//!    layers by a single-pass dataflow fixpoint (the layer graph is a
//!    DAG). Emits overflow/clipping/truncation diagnostics V021–V023 and
//!    V025–V027 against the shipped Figure 10 operand widths, and
//!    reconciles executed per-layer min/max against the certified
//!    intervals.
//!
//! Entry points: [`check_model`] (static + analytical legs, works on
//! shape-only models) and [`check_executed_model`] (adds the executed legs
//! by running the functional executor under all three sparsity modes on
//! both engines). The `plan_lint` bench bin sweeps every shipped workload ×
//! sparsity mode × engine and fails CI on any diagnostic.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![warn(clippy::pedantic)]
// Pedantic allowlist: cycle counters convert between u64/f64 by design
// (the analytical model is f64), and diagnostics format many values.
#![allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::float_cmp,
    clippy::module_name_repetitions,
    clippy::too_many_lines,
    clippy::many_single_char_names
)]

pub mod check;
pub mod diag;
pub mod range;
pub mod report;

use std::collections::BTreeSet;

use nc_dnn::{Model, QTensor};
use neural_cache::batching::{BatchCostModel, DUMP_OVERLAP_EFFICIENCY};
use neural_cache::cost::DATA_BITS;
use neural_cache::functional::{
    run_model_configured, FunctionalError, FunctionalResult, PoolEvents,
};
use neural_cache::mapping::{conv_lane_geometry, plan_model_with, BitBudget, LayerPlan};
use neural_cache::{ExecutionEngine, SparsityMode, SystemConfig, UnitPlan};

use crate::diag::{Diagnostic, ErrorCode};
use crate::report::VerifyReport;

/// The three sparsity modes every sweep covers.
pub const ALL_MODES: [SparsityMode; 3] = [
    SparsityMode::Dense,
    SparsityMode::SkipZeroRows,
    SparsityMode::SkipBoth,
];

/// Diagnostic labels of [`ALL_MODES`], in the same order.
const MODE_LABELS: [&str; 3] = ["dense", "skip_rows", "skip_both"];

/// Statically verifies a model's plan under `config`: executor operand
/// layouts, per-mode MAC-tap schedules, cost-model anchor points, every
/// layer's lane geometry and row budget (the budget follows from the lane
/// geometry alone, so one plan covers every sparsity mode), one reduce
/// schedule per distinct group span, and the batching model's reserved-way
/// dump-overlap window invariants.
///
/// Plans the model once per call, under `config.sparsity`: the row budgets
/// and the dump-overlap cost model both read that one plan.
///
/// Works on shape-only models (no weights needed — the only arrays that
/// run are scratch arrays recording the executor's op sequences).
///
/// # Panics
///
/// Panics if a layer cannot be mapped at all (the mapper's own invariant).
#[must_use]
pub fn check_model(config: &SystemConfig, model: &Model) -> VerifyReport {
    let plans = plan_model_with(model, &config.geometry, config.sparsity);
    check_planned(config, model, &plans, &range::model_ranges(model))
}

/// [`check_model`] on the plan (`plan_model_with` under `config.sparsity`)
/// and the value ranges its caller built, so [`check_executed_model`]
/// builds each once for its static and executed legs.
fn check_planned(
    config: &SystemConfig,
    model: &Model,
    plans: &[LayerPlan],
    ranges: &range::ModelRanges,
) -> VerifyReport {
    let mut report = VerifyReport::new(model.name.clone());

    // Each sweep below also records how much it covered, so a sweep that
    // shrinks changes the artifact.
    report.record("layouts", check::check_layouts());
    let (cost_diags, anchors) = check::check_cost_model();
    report.record("cost-model", cost_diags);
    report.stat("cost_model_anchors", anchors);

    // Per-mode MAC-tap schedules must be hazard-free.
    let mut hazards = Vec::new();
    let mut mac_tap_modes = 0u64;
    let flags = [false, true, false, true, false, true, false, true];
    for mode in ALL_MODES {
        let s = check::mac_tap_schedule(mode, &flags, 5);
        hazards.extend(check::check_schedule(&format!("mac_tap/{mode:?}"), &s));
        mac_tap_modes += 1;
    }
    report.record("mac-tap-hazards", hazards);
    report.stat("mac_tap_modes", mac_tap_modes);

    // Per-layer lane geometry; the reduce schedule depends only on the
    // group span, so each distinct span is recorded and checked once. A
    // span the array rejects is already flagged V007/V008 here.
    let mut geometry_diags = Vec::new();
    let mut spans = BTreeSet::new();
    for layer in &model.layers {
        for conv in layer.conv_sublayers() {
            let geom = conv_lane_geometry(&conv.spec);
            geometry_diags.extend(check::check_lane_geometry(
                &conv.spec.name,
                &geom,
                conv.spec.m,
            ));
            spans.insert(geom.group_span);
        }
    }
    let mut reduce_spans = 0u64;
    for span in spans {
        if let Ok(s) = check::reduce_schedule(span) {
            geometry_diags.extend(check::check_schedule(&format!("reduce/span{span}"), &s));
            reduce_spans += 1;
        }
    }
    report.record("lane-geometry", geometry_diags);
    report.stat("reduce_spans", reduce_spans);

    let mut budget_diags = Vec::new();
    let mut row_budgets = 0u64;
    for plan in plans {
        for unit in &plan.units {
            if let UnitPlan::Conv(c) = unit {
                budget_diags.extend(check::check_row_budget(&c.name, c));
                row_budgets += 1;
            }
        }
    }
    report.record("row-budget", budget_diags);
    report.stat("row_budgets", row_budgets);

    let cost = BatchCostModel::from_plans(config, plans);
    let (dump_diags, dump_batches) = check_dump_overlap(&cost);
    report.record("dump-overlap", dump_diags);
    report.stat("dump_overlap_batches", dump_batches);

    // Value-range certification (V021-V023, V025-V027): interval x
    // known-bits pass over the schedule, checked for soundness against the
    // fixed Figure 10 widths every plan executes.
    let mut range_diags = Vec::new();
    let mut acc_bits_max = 0u32;
    let mut exact = 0u64;
    for conv in &ranges.convs {
        let label = &conv.name;
        range_diags.extend(range::check_pipeline(label, conv));
        let default = BitBudget::default_for(label.as_str());
        range_diags.extend(range::check_widths(
            &format!("{label}/default"),
            conv,
            &default,
        ));
        acc_bits_max = acc_bits_max.max(conv.acc_raw.signed_bits());
        exact += u64::from(conv.exact_weights);
    }
    report.record("value-ranges", range_diags);
    report.stat("range_convs", ranges.convs.len() as u64);
    report.stat("range_exact_weighted", exact);
    report.stat("range_acc_bits_max", u64::from(acc_bits_max));
    report
}

/// Reconciles one executed run's [`ArrayPool`] event counts against the
/// sequential dense run's (V020). Sparsity elides compute rounds, never
/// checkouts, and the engine only changes which thread runs a shard job,
/// so every run must check out exactly the arrays the reference run does —
/// and return every one of them.
///
/// [`ArrayPool`]: nc_sram::ArrayPool
#[must_use]
pub fn reconcile_pool_events(
    reference: PoolEvents,
    label: &str,
    events: PoolEvents,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if events.acquires != reference.acquires {
        out.push(Diagnostic::new(
            ErrorCode::ExecutedPoolMismatch,
            label,
            format!(
                "executed {} pool checkouts; the sequential dense run made {}",
                events.acquires, reference.acquires
            ),
        ));
    }
    if events.releases != events.acquires {
        out.push(Diagnostic::new(
            ErrorCode::ExecutedPoolMismatch,
            label,
            format!(
                "{} checkouts vs {} returns: a shard job leaked an array",
                events.acquires, events.releases
            ),
        ));
    }
    out
}

/// Checks the reserved-way dump-overlap window invariants of the batching
/// model (V011): overlap savings can never exceed the efficiency-scaled
/// conflict window, the last image's dump share can never hide, and the
/// residual stall can never go negative. Returns the diagnostics and the
/// number of batch sizes checked.
///
/// Takes the cost model rather than planning one, so [`check_model`]
/// builds it from the one plan it makes per call
/// ([`BatchCostModel::from_plans`]).
#[must_use]
pub fn check_dump_overlap(cost: &BatchCostModel) -> (Vec<Diagnostic>, u64) {
    let mut out = Vec::new();
    let mut batches = 0u64;
    let tol = 1e-9;
    for batch in [1usize, 2, 3, 4, 8, 16, 32] {
        batches += 1;
        let r = cost.report(batch);
        let saved = r.dump_overlap_saved.as_secs_f64();
        let dump = r.dump_time.as_secs_f64();
        let per_image = r.per_image_time.as_secs_f64();
        let b = batch as f64;
        let share_cap = dump * ((b - 1.0) / b) * DUMP_OVERLAP_EFFICIENCY;
        let window_cap = per_image * (b - 1.0) * DUMP_OVERLAP_EFFICIENCY;
        if saved < -tol {
            out.push(Diagnostic::new(
                ErrorCode::ReservedWayPortConflict,
                format!("batch={batch}"),
                format!("negative dump overlap saving {saved:.3e}s"),
            ));
        }
        if saved > share_cap + tol {
            out.push(Diagnostic::new(
                ErrorCode::ReservedWayPortConflict,
                format!("batch={batch}"),
                format!(
                    "overlap saving {saved:.3e}s exceeds the overlappable dump share \
                     {share_cap:.3e}s (the last image's dump cannot hide)"
                ),
            ));
        }
        if saved > window_cap + tol {
            out.push(Diagnostic::new(
                ErrorCode::ReservedWayPortConflict,
                format!("batch={batch}"),
                format!(
                    "overlap saving {saved:.3e}s exceeds the port-conflict window \
                     {window_cap:.3e}s of {} overlappable compute spans",
                    batch - 1
                ),
            ));
        }
        if r.dump_stall().as_secs_f64() < -tol {
            out.push(Diagnostic::new(
                ErrorCode::ReservedWayPortConflict,
                format!("batch={batch}"),
                "negative residual dump stall".to_string(),
            ));
        }
    }
    (out, batches)
}

/// Everything [`check_model`] proves, plus the executed legs: runs the
/// functional executor under every sparsity mode on both engines and
/// reconciles the executed [`nc_sram::CycleStats`] against the static
/// schedules (V010): dense executes zero elisions, every mode schedules
/// the same statically predicted multiplier-round count, elided cycles
/// reconcile exactly against dense, the dynamic detect charge equals the
/// scheduled rounds, engines agree cycle-for-cycle and record-for-record,
/// and outputs stay bit-identical across all of it. Every run's pool events
/// must match the sequential dense run's (V020), and every executed
/// accumulator min/max must lie inside its certified interval (V021).
///
/// Plans the model and certifies its value ranges once, for the static
/// and the executed legs alike.
///
/// # Errors
///
/// Propagates the executor's failure (e.g. a shape-only model).
pub fn check_executed_model(
    config: &SystemConfig,
    model: &Model,
    input: &QTensor,
) -> Result<VerifyReport, FunctionalError> {
    let plans = plan_model_with(model, &config.geometry, config.sparsity);
    let ranges = range::model_ranges(model);
    let mut report = check_planned(config, model, &plans, &ranges);
    let mut diags = Vec::new();

    // The six executed runs, labelled once and shared by every leg below:
    // each sparsity mode on the sequential engine, then on the threaded one.
    let mut runs: Vec<(String, FunctionalResult)> = Vec::with_capacity(2 * ALL_MODES.len());
    for (engine_label, engine) in [
        ("seq", ExecutionEngine::Sequential),
        ("threaded", ExecutionEngine::from_threads(4)),
    ] {
        for (mode_label, mode) in MODE_LABELS.into_iter().zip(ALL_MODES) {
            let result = run_model_configured(model, input, engine, mode)?;
            runs.push((format!("{mode_label}/{engine_label}"), result));
        }
    }
    report.stat("executed_runs", runs.len() as u64);
    let (seq, threaded) = runs.split_at(ALL_MODES.len());
    let [dense, skipping, both] = [0, 1, 2].map(|i| &seq[i].1);

    let predicted_rounds = predicted_mul_rounds(&plans);
    let mut expect = |cond: bool, op: &str, msg: String| {
        if !cond {
            diags.push(Diagnostic::new(ErrorCode::CycleMismatchExecuted, op, msg));
        }
    };

    let d = dense.cycles;
    expect(
        d.skipped_rounds == 0
            && d.input_rounds_skipped == 0
            && d.detect_cycles == 0
            && d.skipped_cycles == 0,
        "dense",
        format!("dense execution elided work: {d:?}"),
    );
    expect(
        d.mul_rounds == predicted_rounds,
        "dense/rounds",
        format!(
            "executed {} multiplier rounds; the static plan schedules {predicted_rounds}",
            d.mul_rounds
        ),
    );
    for (name, (_, r)) in MODE_LABELS.into_iter().zip(seq).skip(1) {
        expect(
            r.cycles.mul_rounds == d.mul_rounds,
            name,
            format!(
                "{name} scheduled {} rounds; dense scheduled {}",
                r.cycles.mul_rounds, d.mul_rounds
            ),
        );
        expect(
            r.output == dense.output,
            name,
            format!("{name} output diverges from dense"),
        );
    }

    let s = skipping.cycles;
    expect(
        s.compute_cycles + s.skipped_cycles == d.compute_cycles,
        "skip_rows/cycles",
        format!(
            "executed {} + saved {} != dense {}",
            s.compute_cycles, s.skipped_cycles, d.compute_cycles
        ),
    );
    expect(
        s.skipped_cycles == s.skipped_rounds * (DATA_BITS as u64 + 2),
        "skip_rows/rounds",
        format!(
            "{} skipped rounds should save {} cycles, recorded {}",
            s.skipped_rounds,
            s.skipped_rounds * (DATA_BITS as u64 + 2),
            s.skipped_cycles
        ),
    );

    let c = both.cycles;
    expect(
        c.compute_cycles + c.skipped_cycles - c.detect_cycles == d.compute_cycles,
        "skip_both",
        format!(
            "executed {} + saved {} - detect {} != dense {}",
            c.compute_cycles, c.skipped_cycles, c.detect_cycles, d.compute_cycles
        ),
    );
    expect(
        c.detect_cycles == c.mul_rounds,
        "skip_both",
        format!(
            "every scheduled round pays one detect: {} rounds, {} detects",
            c.mul_rounds, c.detect_cycles
        ),
    );

    for ((name, (_, s)), (_, t)) in MODE_LABELS.into_iter().zip(seq).zip(threaded) {
        expect(
            t.cycles == s.cycles && t.output == s.output && t.sublayers == s.sublayers,
            &format!("engines/{name}"),
            format!(
                "threaded execution diverges from sequential: {:?} vs {:?}",
                t.cycles, s.cycles
            ),
        );
    }

    report.record("executed-reconciliation", diags);

    // V020: every run must check out, and return, exactly the arrays the
    // sequential dense run does.
    let pool_diags = runs
        .iter()
        .flat_map(|(label, r)| reconcile_pool_events(dense.pool, label, r.pool))
        .collect();
    report.record("pool-reconciliation", pool_diags);

    // V021 executed leg: every per-sublayer accumulator min/max measured
    // by any of the six runs must lie inside the statically certified
    // interval — the empirical soundness gate of the range analysis.
    let range_diags = runs
        .iter()
        .flat_map(|(label, r)| range::reconcile_executed_ranges(label, &ranges, &r.sublayers))
        .collect();
    report.record("executed-ranges", range_diags);
    Ok(report)
}

/// The multiplier-round count a model's plan schedules for one full
/// inference: every convolution output position runs `ceil(m / groups)`
/// MAC passes of `arrays_per_filter x eff_window` taps, each tap one
/// 8-round bit-serial multiply — mirroring the executor's sharding
/// exactly. Sparsity elides rounds but schedules every one, so the count
/// is the same under every mode's plan.
#[must_use]
pub fn predicted_mul_rounds(plans: &[LayerPlan]) -> u64 {
    let mut rounds = 0u64;
    for plan in plans {
        for unit in &plan.units {
            if let UnitPlan::Conv(c) = unit {
                let positions = (c.out_shape.h * c.out_shape.w) as u64;
                let m = c.out_shape.c;
                let passes = m.div_ceil(c.lanes.groups_per_array(m)) as u64;
                rounds += positions
                    * passes
                    * c.lanes.arrays_per_filter as u64
                    * c.lanes.eff_window as u64
                    * DATA_BITS as u64;
            }
        }
    }
    rounds
}

/// Re-exported so downstream consumers can name executed cycle totals
/// without importing `nc-sram` directly.
pub use nc_sram::CycleStats as ExecutedCycles;

#[cfg(test)]
mod tests {
    use super::*;
    use nc_dnn::workload::{random_input, tiny_cnn};
    use neural_cache::mapping::plan_model;

    fn stat(report: &VerifyReport, name: &str) -> Option<u64> {
        report
            .stats
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    #[test]
    fn shape_only_inception_verifies_clean() {
        let config = SystemConfig::default();
        let model = nc_dnn::inception::inception_v3();
        let report = check_model(&config, &model);
        assert!(report.is_clean(), "{report}");
        assert!(report.checks.iter().any(|c| c == "value-ranges"));
        let expected = model.conv_sublayer_count() as u64;
        assert_eq!(stat(&report, "range_convs"), Some(expected));
        // Six distinct reduce spans; every conv sub-layer's row budget,
        // once.
        assert_eq!(stat(&report, "reduce_spans"), Some(6));
        assert_eq!(stat(&report, "row_budgets"), Some(expected));
        assert_eq!(expected, 95);
    }

    #[test]
    fn pool_reconciliation_flags_drifted_counters() {
        let reference = PoolEvents {
            acquires: 12,
            releases: 12,
        };
        assert!(reconcile_pool_events(reference, "dense/seq", reference).is_empty());
        let events = PoolEvents {
            acquires: 10,
            releases: 9,
        };
        let diags = reconcile_pool_events(reference, "skip_rows/threaded", events);
        assert_eq!(diags.len(), 2);
        assert!(diags
            .iter()
            .all(|d| d.code == ErrorCode::ExecutedPoolMismatch));
    }

    #[test]
    fn executed_tiny_cnn_reconciles() {
        let config = SystemConfig::default();
        let model = tiny_cnn(42);
        let input = random_input(model.input_shape, model.input_quant, 7);
        let report = check_executed_model(&config, &model, &input).unwrap();
        assert!(report.is_clean(), "{report}");
        assert!(report.checks.iter().any(|c| c == "executed-reconciliation"));
        assert!(report.checks.iter().any(|c| c == "pool-reconciliation"));
        assert!(report.checks.iter().any(|c| c == "executed-ranges"));
        // What each sweep covered: 90 cost-model anchors, the three modes'
        // MAC taps, tiny_cnn's 4 distinct reduce spans, its 7 conv
        // sub-layers' row budgets, seven dump-overlap batch sizes, and
        // three modes on each of two engines.
        assert_eq!(model.conv_sublayer_count(), 7);
        for (name, value) in [
            ("cost_model_anchors", 90),
            ("mac_tap_modes", 3),
            ("reduce_spans", 4),
            ("row_budgets", 7),
            ("dump_overlap_batches", 7),
            ("executed_runs", 6),
        ] {
            assert_eq!(stat(&report, name), Some(value), "{name}");
        }
    }

    #[test]
    fn predicted_rounds_are_positive_for_conv_models() {
        use nc_dnn::workload::{random_conv, single_conv_model};
        use nc_dnn::{Padding, Shape};
        use neural_cache::functional::run_model;
        let config = SystemConfig::default();
        let executed_rounds = |model: &Model| {
            let input = random_input(model.input_shape, model.input_quant, 5);
            run_model(model, &input)
                .expect("dense run")
                .cycles
                .mul_rounds
        };
        let predicted = |model: &Model| predicted_mul_rounds(&plan_model(model, &config.geometry));
        let tiny = tiny_cnn(1);
        let predicted_tiny = predicted(&tiny);
        assert!(predicted_tiny > 0);
        assert_eq!(predicted_tiny, executed_rounds(&tiny));
        // One single-conv model per lane layout `tiny_cnn` lacks:
        // (name, window side, C, M, padding, input side, MAC rounds).
        for (name, k, c, m, padding, side, rounds) in [
            ("packed_1x1", 1, 40, 4, Padding::Same, 3, 1_152),
            ("split_5x5", 5, 3, 2, Padding::Same, 7, 3_528),
            ("cross_array_3x3", 3, 300, 2, Padding::Valid, 3, 288),
            ("many_groups_3x3", 3, 3, 32, Padding::Same, 5, 1_800),
        ] {
            let conv = random_conv(name, (k, k), c, m, 1, padding, true, 11);
            let model = single_conv_model(conv, Shape::new(side, side, c));
            assert_eq!(predicted(&model), rounds, "{name}");
            assert_eq!(executed_rounds(&model), rounds, "{name}: executed");
        }
    }

    /// `check_executed_model` predicts the rounds from the plan it made
    /// under `config.sparsity`: on every shipped workload, each mode's
    /// plan schedules the dense plan's rounds.
    #[test]
    fn every_mode_plan_predicts_the_dense_rounds() {
        use nc_dnn::workload::{
            pruned_conv_model, pruned_inception, relu_sparse_conv_model, relu_sparse_mini,
        };
        let geometry = SystemConfig::xeon_e5_2697_v3().geometry;
        for model in [
            nc_dnn::inception::inception_v3(),
            pruned_inception(3),
            relu_sparse_mini(7),
            tiny_cnn(42),
            pruned_conv_model(5),
            relu_sparse_conv_model(7),
        ] {
            let dense = predicted_mul_rounds(&plan_model(&model, &geometry));
            assert!(dense > 0, "{}", model.name);
            for mode in ALL_MODES {
                let plans = plan_model_with(&model, &geometry, mode);
                assert_eq!(
                    predicted_mul_rounds(&plans),
                    dense,
                    "{} {mode:?}",
                    model.name
                );
            }
        }
    }
}
