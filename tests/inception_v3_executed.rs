//! Full Inception v3, executed bit-accurately on the simulated compute
//! arrays and matched against the golden integer model layer by layer, as
//! the paper validates its design by running inferences bit for bit
//! (Section V).
//!
//! Each layer runs on its own, fed the golden model's input for that layer,
//! so equality layer by layer implies equality of the chained run. Two
//! scoped workers take the layers from one queue. Every executed sub-layer
//! record must also lie inside the static range certificates
//! (`nc_verify::range`), and the one layer whose host arrays carry more
//! than one output window runs under both skip modes as well, where its
//! executed skips must equal the analytical ones. The test takes about
//! half a minute in release on 2 cores and far longer in debug, so it is
//! ignored by default; CI runs it in release:
//!
//! ```text
//! cargo test --release --test inception_v3_executed -- --ignored --nocapture
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use neural_cache_repro::cache::engine::ExecutionEngine;
use neural_cache_repro::cache::functional::{self, FunctionalResult};
use neural_cache_repro::cache::mapping::conv_lane_geometry;
use neural_cache_repro::cache::sparsity::{self, SparsityMode};
use neural_cache_repro::dnn::inception::inception_v3_with_weights;
use neural_cache_repro::dnn::reference::{self, LayerRecord};
use neural_cache_repro::dnn::workload::random_input;
use neural_cache_repro::dnn::{Layer, Model, QTensor};
use neural_cache_repro::verify::range::{model_ranges, reconcile_executed_ranges};

const WORKERS: usize = 2;

/// Runs `one`, the single-layer model of `want`, under both skip modes:
/// output and records must be the golden model's, the executed weight-skip
/// fraction `sparsity::analyze`'s, the executed input-round skips the
/// activation profile's, and the pool events the Dense run's.
fn check_skip_modes(one: &Model, input: &QTensor, want: &LayerRecord, dense: &FunctionalResult) {
    let name = &want.name;
    for mode in [SparsityMode::SkipZeroRows, SparsityMode::SkipBoth] {
        let got = functional::run_model_configured(one, input, ExecutionEngine::Sequential, mode)
            .unwrap_or_else(|e| panic!("{name} {mode:?}: {e}"));
        assert!(
            got.output.data() == want.output.data(),
            "{name} {mode:?}: output differs from the golden model"
        );
        assert_eq!(got.sublayers, want.sublayers, "{name} {mode:?}: records");
        assert_eq!(got.pool, dense.pool, "{name} {mode:?}: pool events");
        match mode {
            SparsityMode::SkipZeroRows => assert_eq!(
                got.cycles.skip_fraction(),
                sparsity::analyze(one).simd_skip(),
                "{name}: executed vs analytical weight-skip fraction"
            ),
            _ => assert_eq!(
                got.cycles.input_rounds_skipped,
                sparsity::activation_profile(one, input).skippable_rounds(),
                "{name}: executed vs profiled input-round skips"
            ),
        }
    }
}

#[test]
#[ignore = "executes all of Inception v3 (about half a minute in release); run with --ignored"]
fn inception_v3_executes_bit_exact_layer_by_layer() {
    let start = Instant::now();
    let model = inception_v3_with_weights(7);
    let input = random_input(model.input_shape, model.input_quant, 3);
    let golden = reference::run_model(&model, &input);
    let golden_s = start.elapsed().as_secs_f64();
    // Layer `i` reads the golden model's output of layer `i - 1`.
    let inputs: Vec<_> = std::iter::once(&input)
        .chain(golden.layers.iter().map(|l| &l.output))
        .collect();
    // The layers whose host arrays run more than one output window.
    let packed: Vec<&str> = model
        .layers
        .iter()
        .filter(|layer| {
            layer
                .conv_sublayers()
                .any(|conv| conv_lane_geometry(&conv.spec).windows_per_array(conv.spec.m) > 1)
        })
        .map(Layer::name)
        .collect();
    assert_eq!(packed, ["Conv2d_1a_3x3"], "the layers with packed windows");

    let next = AtomicUsize::new(0);
    let timings = Mutex::new(Vec::new());
    let executed = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(layer) = model.layers.get(i) else {
                    break;
                };
                let (layer_input, want) = (inputs[i], &golden.layers[i]);
                let one = Model {
                    name: want.name.clone(),
                    input_shape: layer_input.shape(),
                    input_quant: layer_input.params(),
                    layers: vec![layer.clone()],
                };
                let t = Instant::now();
                let got = functional::run_model(&one, layer_input)
                    .unwrap_or_else(|e| panic!("{}: {e}", want.name));
                let seconds = t.elapsed().as_secs_f64();
                assert!(
                    got.output.data() == want.output.data(),
                    "{}: output differs from the golden model",
                    want.name
                );
                assert_eq!(got.sublayers, want.sublayers, "{}: records", want.name);
                if packed.contains(&want.name.as_str()) {
                    check_skip_modes(&one, layer_input, want, &got);
                }
                let cycles = got.cycles.total_cycles();
                timings
                    .lock()
                    .expect("no worker panics while holding the lock")
                    .push((i, want.name.clone(), seconds, cycles, got.sublayers));
            });
        }
    });
    let wall_s = executed.elapsed().as_secs_f64();

    let mut timings = timings.into_inner().expect("workers joined");
    assert_eq!(timings.len(), model.layers.len(), "every layer ran");
    timings.sort_by_key(|&(i, ..)| i);

    // Every executed accumulator range lies inside its static certificate.
    let records: Vec<_> = timings
        .iter()
        .flat_map(|(.., records)| records.iter().cloned())
        .collect();
    let diagnostics = reconcile_executed_ranges("inception_v3", &model_ranges(&model), &records);
    assert!(
        diagnostics.is_empty(),
        "range certificates: {diagnostics:?}"
    );

    let (mut sum_s, mut sum_cycles) = (0.0, 0u64);
    for (_, name, seconds, cycles, _) in &timings {
        println!(
            "{name:16} {seconds:7.3} s  {cycles:>13} array-cycles  {:5.2} ns/cycle",
            seconds * 1e9 / *cycles as f64
        );
        sum_s += seconds;
        sum_cycles += cycles;
    }
    println!(
        "{} layers, {sum_cycles} array-cycles: {sum_s:.1} s of layer time, \
         {wall_s:.1} s wall on {WORKERS} workers; golden model {golden_s:.2} s",
        timings.len()
    );
}
