//! Property tests of the round-skipping execution modes: for random **and**
//! pruned weights, `SkipZeroRows` must be byte-identical to dense execution
//! with exactly reconciled cycle accounting, and on single-conv models the
//! executed skip counters must match the `sparsity::analyze` prediction
//! computed on the mapper's real lane packing. The dynamic mode
//! (`SkipBoth`) gets the same treatment against ReLU-sparse activations:
//! byte identity with detect-aware reconciliation, and executed input-skip
//! counters equal to the `sparsity::activation_profile` prediction exactly.

use nc_dnn::workload::{
    prune_conv, random_conv, random_input, relu_act_quant, relu_sparse_input, single_conv_model,
};
use nc_dnn::{Padding, Shape};
use neural_cache::cost::DATA_BITS;
use neural_cache::functional::run_model_configured;
use neural_cache::{ExecutionEngine, SparsityMode};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SkipZeroRows output is byte-identical to Dense for random and
    /// pruned weights, across kernel shapes, channels, strides and
    /// pruning strengths; the skipped/saved counters reconcile the two
    /// cycle counts exactly.
    #[test]
    fn skipping_is_byte_identical_to_dense(
        r in 1usize..4,
        s in 1usize..4,
        c in 1usize..20,
        m in 1usize..5,
        stride in 1usize..3,
        keep_bits in 1u32..9,
        zero_pct in 0u32..11,
        prune in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let k = 5usize; // input spatial size
        let mut conv = random_conv("prop", (r, s), c, m, stride, Padding::Same, true, seed);
        if prune {
            conv = prune_conv(conv, keep_bits, f64::from(zero_pct) / 10.0, seed + 7);
        }
        let model = single_conv_model(conv, Shape::new(k, k, c));
        let input = random_input(model.input_shape, model.input_quant, seed + 1);

        let dense = run_model_configured(
            &model, &input, ExecutionEngine::Sequential, SparsityMode::Dense,
        ).expect("dense run");
        let sparse = run_model_configured(
            &model, &input, ExecutionEngine::Sequential, SparsityMode::SkipZeroRows,
        ).expect("skip run");

        prop_assert_eq!(dense.output.data(), sparse.output.data());
        prop_assert_eq!(&dense.sublayers, &sparse.sublayers);
        prop_assert_eq!(dense.cycles.mul_rounds, sparse.cycles.mul_rounds);
        prop_assert_eq!(dense.cycles.skipped_rounds, 0);
        prop_assert!(sparse.cycles.skipped_rounds <= sparse.cycles.mul_rounds);
        prop_assert_eq!(
            sparse.cycles.compute_cycles + sparse.cycles.skipped_cycles,
            dense.cycles.compute_cycles,
            "saved cycles must reconcile the two runs"
        );
        prop_assert_eq!(dense.cycles.access_cycles, sparse.cycles.access_cycles);
    }

    /// The executed skip fraction equals the `sparsity::analyze`
    /// prediction exactly on single-conv models (the analysis walks the
    /// mapper's actual per-array lane packing).
    #[test]
    fn executed_skip_counters_match_analysis(
        r in 1usize..4,
        s in 1usize..4,
        c in 1usize..24,
        m in 1usize..6,
        keep_bits in 1u32..9,
        zero_pct in 0u32..11,
        seed in 0u64..1000,
    ) {
        let conv = prune_conv(
            random_conv("prop", (r, s), c, m, 1, Padding::Valid, true, seed),
            keep_bits,
            f64::from(zero_pct) / 10.0,
            seed + 3,
        );
        let model = single_conv_model(conv, Shape::new(4, 4, c));
        let input = random_input(model.input_shape, model.input_quant, seed + 5);
        let run = run_model_configured(
            &model, &input, ExecutionEngine::Sequential, SparsityMode::SkipZeroRows,
        ).expect("skip run");
        let predicted = neural_cache::sparsity::analyze(&model).simd_skip();
        let executed = run.cycles.skip_fraction();
        prop_assert!(
            (executed - predicted).abs() < 1e-12,
            "executed {} vs predicted {}", executed, predicted
        );
    }

    /// `SkipBoth` output is byte-identical to `Dense` across kernel
    /// shapes, channels, strides, paddings, activation densities and
    /// weight pruning; the detect-aware counters reconcile the cycle
    /// difference exactly (`sparse + saved - detect = dense`), and every
    /// elided input round saves at least a full dense round.
    #[test]
    fn dynamic_skipping_is_byte_identical_to_dense(
        r in 1usize..4,
        s in 1usize..4,
        c in 1usize..20,
        m in 1usize..5,
        stride in 1usize..3,
        zero_pct in 0u32..11,
        act_bits in 1u32..9,
        same_pad in any::<bool>(),
        prune in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let k = 5usize;
        let padding = if same_pad { Padding::Same } else { Padding::Valid };
        let mut conv = random_conv("prop", (r, s), c, m, stride, padding, true, seed);
        if prune {
            conv = prune_conv(conv, 3, 0.5, seed + 7);
        }
        let mut model = single_conv_model(conv, Shape::new(k, k, c));
        model.input_quant = relu_act_quant();
        let input = relu_sparse_input(
            model.input_shape, f64::from(zero_pct) / 10.0, act_bits, seed + 1,
        );

        let dense = run_model_configured(
            &model, &input, ExecutionEngine::Sequential, SparsityMode::Dense,
        ).expect("dense run");
        let dynamic = run_model_configured(
            &model, &input, ExecutionEngine::Sequential, SparsityMode::SkipBoth,
        ).expect("dynamic run");
        prop_assert_eq!(dense.output.data(), dynamic.output.data());
        prop_assert_eq!(&dense.sublayers, &dynamic.sublayers);
        prop_assert_eq!(dense.cycles.mul_rounds, dynamic.cycles.mul_rounds);
        prop_assert_eq!(dense.cycles.access_cycles, dynamic.cycles.access_cycles);
        prop_assert_eq!(
            dynamic.cycles.detect_cycles, dynamic.cycles.mul_rounds,
            "one detect per scheduled round"
        );
        prop_assert!(dynamic.cycles.input_rounds_skipped <= dynamic.cycles.mul_rounds);
        prop_assert_eq!(dynamic.cycles.skipped_rounds, 0, "no weight-round counter");
        prop_assert_eq!(
            dynamic.cycles.compute_cycles + dynamic.cycles.skipped_cycles
                - dynamic.cycles.detect_cycles,
            dense.cycles.compute_cycles,
            "detect-aware reconciliation"
        );
        // Truncation only adds savings on top of the elided rounds.
        prop_assert!(
            dynamic.cycles.skipped_cycles
                >= dynamic.cycles.input_rounds_skipped * (DATA_BITS as u64 + 2)
        );
    }

    /// The executed input-skip counters equal the
    /// `sparsity::activation_profile` prediction **exactly** — the profile
    /// replays the mapper's real lane packing on the actual input, so the
    /// counts (not just the fractions) must agree.
    #[test]
    fn executed_input_skip_counters_match_activation_profile(
        r in 1usize..4,
        s in 1usize..4,
        c in 1usize..24,
        m in 1usize..6,
        zero_pct in 0u32..11,
        act_bits in 1u32..9,
        same_pad in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let padding = if same_pad { Padding::Same } else { Padding::Valid };
        let conv = random_conv("prop", (r, s), c, m, 1, padding, true, seed);
        let mut model = single_conv_model(conv, Shape::new(4, 4, c));
        model.input_quant = relu_act_quant();
        let input = relu_sparse_input(
            model.input_shape, f64::from(zero_pct) / 10.0, act_bits, seed + 5,
        );
        let profile = neural_cache::sparsity::activation_profile(&model, &input);
        let run = run_model_configured(
            &model, &input, ExecutionEngine::Sequential, SparsityMode::SkipBoth,
        ).expect("dynamic run");
        prop_assert_eq!(
            run.cycles.input_rounds_skipped,
            profile.skippable_rounds(),
            "executed vs predicted input skips"
        );
        prop_assert_eq!(run.cycles.mul_rounds, profile.total_rounds());
        let executed = run.cycles.input_skip_fraction();
        let predicted = profile.input_skip();
        prop_assert!(
            (executed - predicted).abs() < 1e-12,
            "executed {} vs predicted {}", executed, predicted
        );
    }
}
