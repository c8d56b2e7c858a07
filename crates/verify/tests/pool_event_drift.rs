//! Drift injection into executed pool counters: every executor run must
//! check out and return exactly the `ArrayPool` arrays of the sequential
//! dense run. Start from the events real runs of the small workloads
//! record, shift the checkout total and leak releases over every case in a
//! small grid, and assert `reconcile_pool_events` reports exactly V020 —
//! and stays silent on the executed Threaded runs (no false positives).

use nc_dnn::workload::{pruned_conv_model, random_input, relu_sparse_conv_model, tiny_cnn};
use nc_verify::diag::ErrorCode;
use neural_cache::functional::{run_model_configured, PoolEvents};
use neural_cache::{ExecutionEngine, SparsityMode};

/// Executed pool counters drifting from the sequential dense run's are
/// exactly V020: one diagnostic for the checkout total, one more for a
/// leak.
#[test]
fn drifted_pool_counters_are_v020() {
    for model in [tiny_cnn(1), pruned_conv_model(1), relu_sparse_conv_model(1)] {
        let input = random_input(model.input_shape, model.input_quant, 7);
        let [reference, threaded] = [
            ExecutionEngine::Sequential,
            ExecutionEngine::from_threads(4),
        ]
        .map(|engine| {
            run_model_configured(&model, &input, engine, SparsityMode::Dense)
                .unwrap()
                .pool
        });
        assert!(reference.acquires > 0);
        assert_eq!(
            nc_verify::reconcile_pool_events(reference, "threaded", threaded),
            vec![]
        );

        for drift in 1u64..50 {
            for leak in 0u64..3 {
                let events = PoolEvents {
                    acquires: reference.acquires + drift,
                    releases: reference.acquires + drift - leak,
                };
                let diags = nc_verify::reconcile_pool_events(reference, "drifted", events);
                assert_eq!(diags.len(), 1 + usize::from(leak > 0), "{diags:?}");
                assert!(
                    diags
                        .iter()
                        .all(|d| d.code == ErrorCode::ExecutedPoolMismatch),
                    "{diags:?}"
                );
            }
        }
    }
}
