//! Property-based drift injection into executed pool counters: the
//! Threaded engine's shard jobs check arrays out of a shared pool, so a
//! racing or leaking shard shows up as pool events that differ from the
//! sequential dense run's. Start from the events real runs of the small
//! workloads record, perturb them the way a broken scheduler/pool would,
//! and assert V020 flags exactly the drift — and stays silent on the
//! executed Threaded runs (no false positives).

use std::sync::OnceLock;

use nc_dnn::workload::{pruned_conv_model, random_input, relu_sparse_conv_model, tiny_cnn};
use nc_verify::diag::ErrorCode;
use neural_cache::functional::{run_model_configured, PoolEvents};
use neural_cache::{ExecutionEngine, SparsityMode};
use proptest::prelude::*;

/// `(sequential dense, threaded dense)` pool events of each small
/// workload, executed once per test binary.
fn executed_events() -> &'static [(PoolEvents, PoolEvents); 3] {
    static EVENTS: OnceLock<[(PoolEvents, PoolEvents); 3]> = OnceLock::new();
    EVENTS.get_or_init(|| {
        [tiny_cnn(1), pruned_conv_model(1), relu_sparse_conv_model(1)].map(|model| {
            let input = random_input(model.input_shape, model.input_quant, 7);
            let [seq, threaded] = [
                ExecutionEngine::Sequential,
                ExecutionEngine::from_threads(4),
            ]
            .map(|engine| {
                run_model_configured(&model, &input, engine, SparsityMode::Dense)
                    .unwrap()
                    .pool
            });
            (seq, threaded)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Executed pool counters drifting from the sequential dense run's (or
    /// from each other) are exactly V020.
    #[test]
    fn drifted_pool_counters_are_v020(pick in 0usize..3, drift in 1u64..50, leak in 0u64..3) {
        let (reference, threaded) = executed_events()[pick];
        prop_assert!(reference.acquires > 0);

        // The executed Threaded run: silent.
        prop_assert_eq!(nc_verify::reconcile_pool_events(reference, "threaded", threaded), vec![]);

        // Drifted checkout total and/or a leak: V020 only.
        let events = PoolEvents {
            acquires: reference.acquires + drift,
            releases: reference.acquires + drift - leak,
        };
        let diags = nc_verify::reconcile_pool_events(reference, "drifted", events);
        prop_assert_eq!(diags.len(), 1 + usize::from(leak > 0), "{:?}", diags);
        prop_assert!(diags.iter().all(|d| d.code == ErrorCode::ExecutedPoolMismatch), "{diags:?}");
    }
}
