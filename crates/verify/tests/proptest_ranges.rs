//! Property-based soundness gate for the value-range certification:
//! random two-layer models executed with random inputs under all three
//! sparsity modes on both engines must keep every measured per-sublayer
//! accumulator min/max inside the statically certified interval, and
//! injected under-sized bit budgets must fire exactly the matching width
//! code (V021 for the partial, V026 for the multiplicand, V027 for the
//! reduction tree) — never a false positive on the honest budget.
#![recursion_limit = "1024"]

use nc_dnn::workload::{random_conv, random_input};
use nc_dnn::{ActQuant, Layer, Model, Padding, Shape};
use nc_verify::diag::ErrorCode;
use nc_verify::range;
use neural_cache::functional::run_model_configured;
use neural_cache::mapping::{bits_for_unsigned, BitBudget};
use neural_cache::{ExecutionEngine, SparsityMode};
use proptest::prelude::*;

/// A two-convolution model (3x3 then 1x1) so the interval analysis has to
/// propagate a derived activation range across a layer boundary.
fn random_model(c: usize, m1: usize, m2: usize, relu1: bool, centered: bool, seed: u64) -> Model {
    let conv1 = random_conv(
        "prop/conv1_3x3",
        (3, 3),
        c,
        m1,
        1,
        Padding::Same,
        relu1,
        seed,
    );
    let conv2 = random_conv(
        "prop/conv2_1x1",
        (1, 1),
        m1,
        m2,
        1,
        Padding::Valid,
        false,
        seed.wrapping_add(1),
    );
    let input_quant = if centered {
        ActQuant::from_range(-1.0, 1.0)
    } else {
        ActQuant::from_range(0.0, 1.0)
    };
    Model {
        name: "prop-range".into(),
        input_shape: Shape::new(5, 5, c),
        input_quant,
        layers: vec![Layer::Conv(conv1), Layer::Conv(conv2)],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Executed accumulator ranges stay inside the static certificate for
    /// every (engine, sparsity mode) pair, and the reference executor's
    /// records agree too.
    #[test]
    fn executed_ranges_never_escape_the_certificate(
        c in 2usize..=6,
        m1 in 1usize..=6,
        m2 in 1usize..=4,
        relu1 in any::<bool>(),
        centered in any::<bool>(),
        seed in 0u64..1_000,
        input_seed in 0u64..1_000,
    ) {
        let model = random_model(c, m1, m2, relu1, centered, seed);
        let input = random_input(model.input_shape, model.input_quant, input_seed);
        let ranges = range::model_ranges(&model);

        // Reference executor leg.
        let reference = nc_dnn::reference::run_model(&model, &input);
        let flat: Vec<_> = reference
            .layers
            .iter()
            .flat_map(|l| l.sublayers.iter().cloned())
            .collect();
        let diags = range::reconcile_executed_ranges("reference", &ranges, &flat);
        prop_assert!(diags.is_empty(), "{diags:?}");

        // In-cache functional executor: 3 sparsity modes x 2 engines.
        for engine in [ExecutionEngine::Sequential, ExecutionEngine::from_threads(4)] {
            for mode in [
                SparsityMode::Dense,
                SparsityMode::SkipZeroRows,
                SparsityMode::SkipBoth,
            ] {
                let run = run_model_configured(&model, &input, engine, mode);
                prop_assert!(run.is_ok(), "{mode:?}: {:?}", run.err());
                let run = run.unwrap();
                let diags =
                    range::reconcile_executed_ranges("functional", &ranges, &run.sublayers);
                prop_assert!(diags.is_empty(), "{engine:?}/{mode:?}: {diags:?}");
            }
        }
    }

    /// The shipped Figure 10 budget carries a clean certificate, while a
    /// budget under-sized by one bit in exactly one operand fires exactly
    /// the matching width code.
    #[test]
    fn undersized_budgets_fire_the_matching_code(
        c in 2usize..=6,
        m1 in 1usize..=6,
        relu1 in any::<bool>(),
        centered in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let model = random_model(c, m1, 2, relu1, centered, seed);
        let ranges = range::model_ranges(&model);
        for r in &ranges.convs {
            let shipped = BitBudget::default_for(&r.name);
            prop_assert!(
                range::check_widths(&r.name, r, &shipped).is_empty(),
                "{}: shipped budget flagged", r.name
            );

            // Partial one bit short of the proven max: exactly V021.
            let needed = bits_for_unsigned(r.partial_max);
            prop_assert!(needed > 1);
            let starved = BitBudget { partial_bits: needed - 1, ..shipped.clone() };
            let diags = range::check_widths(&r.name, r, &starved);
            prop_assert!(!diags.is_empty());
            prop_assert!(
                diags.iter().all(|d| d.code == ErrorCode::AccumulatorOverflow),
                "{diags:?}"
            );

            // Multiplicand narrower than the proven weight width: V026.
            if r.weight_bits > 1 {
                let starved = BitBudget { mult_bits: r.weight_bits - 1, ..shipped.clone() };
                let diags = range::check_widths(&r.name, r, &starved);
                prop_assert!(
                    diags.iter().any(|d| d.code == ErrorCode::UnsoundTruncation),
                    "{diags:?}"
                );
            }

            // Reduce tree one bit short of max(S1, S2): V027.
            let needed = bits_for_unsigned(r.s1_max.max(r.s2_max));
            prop_assert!(needed > 1);
            let starved = BitBudget { reduce_bits: needed - 1, ..shipped.clone() };
            let diags = range::check_widths(&r.name, r, &starved);
            prop_assert!(
                diags.iter().any(|d| d.code == ErrorCode::ReduceWidthDeficit),
                "{diags:?}"
            );
        }
    }
}
