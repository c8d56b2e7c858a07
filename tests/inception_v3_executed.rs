//! Full Inception v3, executed bit-accurately on the simulated compute
//! arrays and matched against the golden integer model layer by layer, as
//! the paper validates its design by running inferences bit for bit
//! (Section V).
//!
//! Each layer runs on its own, fed the golden model's input for that layer,
//! so equality layer by layer implies equality of the chained run. Two
//! scoped workers take the layers from one queue. The test takes about half
//! a minute in release on 2 cores and far longer in debug, so it is
//! ignored by default; CI runs it in release:
//!
//! ```text
//! cargo test --release --test inception_v3_executed -- --ignored --nocapture
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use neural_cache_repro::cache::functional;
use neural_cache_repro::dnn::inception::inception_v3_with_weights;
use neural_cache_repro::dnn::reference;
use neural_cache_repro::dnn::workload::random_input;
use neural_cache_repro::dnn::Model;

const WORKERS: usize = 2;

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
                let cycles = got.cycles.total_cycles();
                timings
                    .lock()
                    .expect("no worker panics while holding the lock")
                    .push((i, want.name.clone(), seconds, cycles));
            });
        }
    });
    let wall_s = executed.elapsed().as_secs_f64();

    let mut timings = timings.into_inner().expect("workers joined");
    assert_eq!(timings.len(), model.layers.len(), "every layer ran");
    timings.sort_by_key(|&(i, ..)| i);
    let (mut sum_s, mut sum_cycles) = (0.0, 0u64);
    for (_, name, seconds, cycles) in &timings {
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
