//! Mapping a custom CNN onto a custom cache: build a small edge-class
//! processor (8 LLC slices, 20 MB) and inspect how the Section IV data
//! layout schedules each layer — packing, splitting, lanes per filter,
//! parallel instances, serial rounds and utilization.
//!
//! Run with: `cargo run --release --example custom_accelerator`

use neural_cache_repro::cache::{NeuralCache, SystemConfig, UnitPlan};
use neural_cache_repro::dnn::workload::random_conv;
use neural_cache_repro::dnn::{ActQuant, Layer, Model, Padding, Pool2d, PoolKind, Shape};
use neural_cache_repro::geometry::CacheGeometry;

fn main() {
    // A VGG-flavoured edge model on 64x64 inputs.
    let model = Model {
        name: "edge-vgg".into(),
        input_shape: Shape::new(64, 64, 3),
        input_quant: ActQuant::from_range(-1.0, 1.0),
        layers: vec![
            Layer::Conv(random_conv(
                "conv1",
                (3, 3),
                3,
                32,
                1,
                Padding::Same,
                true,
                1,
            )),
            Layer::Pool(pool("pool1")),
            Layer::Conv(random_conv(
                "conv2",
                (3, 3),
                32,
                64,
                1,
                Padding::Same,
                true,
                2,
            )),
            Layer::Pool(pool("pool2")),
            Layer::Conv(random_conv(
                "conv3",
                (3, 3),
                64,
                128,
                1,
                Padding::Same,
                true,
                3,
            )),
            Layer::Pool(pool("pool3")),
            Layer::Conv(random_conv(
                "conv4",
                (1, 1),
                128,
                256,
                1,
                Padding::Valid,
                true,
                4,
            )),
            Layer::Pool(Pool2d {
                name: "gap".into(),
                kind: PoolKind::Avg,
                k: 8,
                stride: 1,
                padding: Padding::Valid,
            }),
            Layer::Conv(random_conv(
                "classifier",
                (1, 1),
                256,
                100,
                1,
                Padding::Valid,
                false,
                5,
            )),
        ],
    };

    // An 8-slice (20 MB) cache — e.g. a smaller server part.
    let mut config = SystemConfig::xeon_e5_2697_v3();
    config.geometry = CacheGeometry::with_slices(8);
    let system = NeuralCache::new(config);

    println!("model: {model}");
    println!("cache: {}", system.config().geometry);
    println!();
    println!(
        "{:<12} {:>5} {:>5} {:>6} {:>8} {:>10} {:>7} {:>6}",
        "unit", "pack", "split", "lanes", "flt/arr", "parallel", "rounds", "util%"
    );
    for plan in system.plan(&model) {
        for unit in &plan.units {
            match unit {
                UnitPlan::Conv(c) => println!(
                    "{:<12} {:>5} {:>5} {:>6} {:>8} {:>10} {:>7} {:>6.1}",
                    c.name,
                    c.lanes.packing,
                    c.lanes.split,
                    c.lanes.lanes_per_filter,
                    c.lanes.filters_per_array,
                    c.parallel_instances,
                    c.rounds,
                    100.0 * c.utilization()
                ),
                UnitPlan::Pool(p) => println!(
                    "{:<12} {:>5} {:>5} {:>6} {:>8} {:>10} {:>7} {:>6}",
                    p.name, "-", "-", "-", "-", p.parallel_outputs, p.rounds, "-"
                ),
            }
        }
    }

    let report = system.run_inference(&model);
    println!(
        "\ninference latency on the 8-slice cache: {}",
        report.total()
    );
    let energy = system.energy(&report);
    println!(
        "energy: {:.4} J at {:.1} W",
        energy.total_j(),
        energy.avg_power_w()
    );

    // Verify the mapping functionally: bit-exact against the golden model.
    let input =
        neural_cache_repro::dnn::workload::random_input(model.input_shape, model.input_quant, 99);
    let golden = neural_cache_repro::dnn::reference::run_model(&model, &input);
    let cache = system
        .run_functional(&model, &input)
        .expect("functional run");
    assert_eq!(golden.output.data(), cache.output.data());
    println!("functional check: outputs bit-identical with the golden executor");
}

fn pool(name: &str) -> Pool2d {
    Pool2d {
        name: name.into(),
        kind: PoolKind::Max,
        k: 2,
        stride: 2,
        padding: Padding::Valid,
    }
}
