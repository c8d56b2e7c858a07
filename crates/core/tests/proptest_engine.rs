//! Property test (vendored proptest): the Sequential and Threaded
//! execution backends of the functional executor are observably identical
//! on random small convolution layers — bit-identical output tensors,
//! identical sub-layer requantization records, identical [`CycleStats`]
//! (shard results fold in job order, so cycle accounting must not depend on
//! thread scheduling), and identical `ArrayPool` events with every
//! checkout returned.
//!
//! [`CycleStats`]: nc_sram::CycleStats

use nc_dnn::workload::{random_conv, random_input, single_conv_model};
use nc_dnn::{Padding, Shape};
use neural_cache::engine::ExecutionEngine;
use neural_cache::functional;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sequential_and_threaded_backends_agree(
        r in 1usize..=3,
        s in 1usize..=3,
        c in 1usize..=8,
        m in 1usize..=4,
        stride in 1usize..=2,
        h in 3usize..=6,
        w in 3usize..=6,
        same_pad in any::<bool>(),
        relu in any::<bool>(),
        threads in 2usize..=4,
        seed in 0u64..=1_000_000,
    ) {
        let padding = if same_pad { Padding::Same } else { Padding::Valid };
        let conv = random_conv("prop", (r, s), c, m, stride, padding, relu, seed);
        let model = single_conv_model(conv, Shape::new(h.max(r), w.max(s), c));
        let input = random_input(model.input_shape, model.input_quant, seed ^ 0x9e37_79b9);

        let seq = functional::run_model_with(&model, &input, ExecutionEngine::Sequential)
            .expect("sequential run");
        let thr = functional::run_model_with(
            &model,
            &input,
            ExecutionEngine::Threaded { threads },
        )
        .expect("threaded run");

        prop_assert_eq!(seq.output.data(), thr.output.data(),
            "outputs must be bit-identical across backends");
        prop_assert_eq!(&seq.sublayers, &thr.sublayers,
            "requantization records must agree across backends");
        prop_assert_eq!(seq.cycles, thr.cycles,
            "cycle accounting must be scheduling-independent");
        prop_assert_eq!(seq.pool, thr.pool,
            "pool events must be scheduling-independent");
        prop_assert_eq!(thr.pool.acquires, thr.pool.releases,
            "every shard job must return the arrays it checked out");
    }
}
