//! Property-based tests of the core: mapping invariants over random layer
//! geometries, bit-exact functional equivalence over random small
//! convolutions, and typed errors for malformed models.

use std::panic::{catch_unwind, AssertUnwindSafe};

use nc_dnn::workload::{mini_inception, random_conv, random_input, single_conv_model};
use nc_dnn::{BranchOp, Conv2d, Layer, MixedBlock, Model, Padding, Pool2d, Shape};
use nc_geometry::CacheGeometry;
use nc_verify::diag::ErrorCode;
use nc_verify::{check_executed_model, check_model};
use neural_cache::functional::{self, FunctionalError};
use neural_cache::mapping::{plan_model, UnitPlan};
use neural_cache::{sparsity, throughput_sweep, time_inference, BatchCostModel, SystemConfig};
use proptest::prelude::*;

/// The faults [`inject`] knows, one per [`nc_dnn::graph::Fault`].
const FAULTS: usize = 12;

fn pick<T>(mut items: Vec<T>, at: usize) -> T {
    let n = items.len();
    items.swap_remove(at % n)
}

fn blocks(model: &mut Model) -> Vec<&mut MixedBlock> {
    model
        .layers
        .iter_mut()
        .filter_map(|l| match l {
            Layer::Mixed(block) => Some(block),
            Layer::Conv(_) | Layer::Pool(_) => None,
        })
        .collect()
}

fn convs(model: &mut Model) -> Vec<&mut Conv2d> {
    model
        .layers
        .iter_mut()
        .flat_map(Layer::conv_sublayers_mut)
        .collect()
}

fn pools(model: &mut Model) -> Vec<&mut Pool2d> {
    let mut pools = Vec::new();
    for layer in &mut model.layers {
        match layer {
            Layer::Pool(pool) => pools.push(pool),
            Layer::Mixed(block) => {
                for op in block.branches.iter_mut().flat_map(|b| &mut b.ops) {
                    if let BranchOp::Pool(pool) = op {
                        pools.push(pool);
                    }
                }
            }
            Layer::Conv(_) => {}
        }
    }
    pools
}

/// The ops of the branch that ends in a split (`mini_c`'s second).
fn split_branch(model: &mut Model) -> &mut Vec<BranchOp> {
    let branches = blocks(model).into_iter().flat_map(|b| &mut b.branches);
    let mut ends_in_split = branches.filter(|b| matches!(b.ops.last(), Some(BranchOp::Split(_))));
    &mut ends_in_split
        .next()
        .expect("mini_inception has a split")
        .ops
}

/// Applies fault `fault` (below [`FAULTS`]) at the `at`-th candidate site.
fn inject(model: &mut Model, fault: usize, at: usize) {
    match fault {
        0 => {
            let block = pick(blocks(model), at);
            let n = block.branches.len();
            block.branches[at % n].ops.clear();
        }
        1 => pick(blocks(model), at).branches.clear(),
        2 => *split_branch(model).last_mut().unwrap() = BranchOp::Split(Vec::new()),
        3 => {
            let ops = split_branch(model);
            let n = ops.len();
            ops.swap(n - 2, n - 1);
        }
        4 => pick(convs(model), at).spec.c += 1,
        5 => _ = pick(convs(model), at).weights.as_mut().unwrap().pop(),
        6 => pick(convs(model), at).bias.push(0),
        7 => {
            // Wider than any of mini_inception's 8x8 or smaller inputs.
            let pool = pick(pools(model), at);
            pool.padding = Padding::Valid;
            pool.k = 9;
        }
        8 if at.is_multiple_of(2) => pick(convs(model), at / 2).spec.stride = 0,
        8 => pick(pools(model), at / 2).stride = 0,
        9 => match at % 3 {
            0 => model.input_shape.h = 0,
            1 => model.input_shape.w = 0,
            _ => model.input_shape.c = 0,
        },
        10 => pick(convs(model), at).spec.m = 0,
        _ => {
            // A stride-2 conv in one of the first block's three conv-first
            // branches halves that branch's 8x8 output.
            let block = pick(blocks(model), 0);
            let Some(BranchOp::Conv(conv)) = block.branches[at % 3].ops.first_mut() else {
                unreachable!("mini_a's first three branches start with a conv")
            };
            conv.spec.stride = 2;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The planner must produce a legal schedule for any layer geometry:
    /// row budget respected, power-of-two lanes, at most 2 arrays per
    /// filter for <= 2048 channels, full work coverage, utilization <= 1.
    #[test]
    fn mapping_invariants_hold(
        r in 1usize..8,
        s in 1usize..8,
        c in 1usize..2049,
        m in 1usize..64,
        stride in 1usize..3,
        h in 8usize..40,
    ) {
        let geometry = CacheGeometry::xeon_e5_2697_v3();
        let spec = nc_dnn::ConvSpec {
            name: "prop".into(),
            r, s, c, m, stride,
            padding: Padding::Same,
            relu: true,
        };
        let model = single_conv_model(nc_dnn::Conv2d::shape_only(spec), Shape::new(h, h, c));
        let plans = plan_model(&model, &geometry);
        let UnitPlan::Conv(u) = &plans[0].units[0] else { panic!("expected conv") };

        prop_assert!(u.rows.fits(), "row budget: {}", u.rows.total());
        prop_assert!(u.lanes.lanes_per_filter.is_power_of_two());
        prop_assert!(u.lanes.arrays_per_filter <= 2 || r * s > 1,
            "1x1 layers always pack into one array");
        prop_assert!(u.rounds * u.parallel_instances >= u.total_convs,
            "schedule must cover all convolutions");
        let util = u.utilization();
        prop_assert!(util > 0.0 && util <= 1.0);
        // Packing/splitting conserve work: lane bytes cover the window.
        prop_assert!(u.lanes.eff_window * u.lanes.eff_channels >= r * s * c);
        // Occupancy and active arrays are sane.
        prop_assert!(u.lane_occupancy() > 0.0 && u.lane_occupancy() <= 1.0);
        prop_assert!(u.active_arrays() <= geometry.compute_arrays());
    }

    /// Random small convolutions are bit-exact between the in-cache
    /// executor and the golden model, across kernel shapes, strides,
    /// paddings, channel counts and ReLU settings.
    #[test]
    fn random_convs_are_bit_exact(
        r in 1usize..4,
        s in 1usize..4,
        c in 1usize..20,
        m in 1usize..5,
        stride in 1usize..3,
        relu in any::<bool>(),
        same in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let k = 5usize; // input spatial size
        let padding = if same { Padding::Same } else { Padding::Valid };
        let conv = random_conv("prop", (r, s), c, m, stride, padding, relu, seed);
        let model = single_conv_model(conv, Shape::new(k, k, c));
        let input = random_input(model.input_shape, model.input_quant, seed + 1);
        let golden = nc_dnn::reference::run_model(&model, &input);
        let ours = functional::run_model(&model, &input).expect("functional run");
        prop_assert_eq!(golden.output.data(), ours.output.data());
    }

    /// One random fault in `mini_inception` reaches every entry point as
    /// the validator's own error: the executor returns it, the verifier
    /// reports it as one V028 and runs nothing else, and the entry points
    /// that cannot return an error panic at entry with its text. Nothing
    /// panics inside a walk.
    #[test]
    fn malformed_models_get_typed_errors(
        fault in 0usize..FAULTS,
        at in 0usize..64,
        seed in 0u64..1000,
    ) {
        let mut model = mini_inception(seed);
        let input = random_input(model.input_shape, model.input_quant, seed);
        inject(&mut model, fault, at);
        let err = model.validate().expect_err("every fault is caught");

        let run = functional::run_model(&model, &input);
        prop_assert_eq!(run.err(), Some(FunctionalError::Model(err.clone())));

        let config = SystemConfig::default();
        let report = check_model(&config, &model);
        prop_assert_eq!(report.diagnostics.len(), 1, "{}", report);
        let diag = &report.diagnostics[0];
        prop_assert_eq!(diag.code, ErrorCode::MalformedModel);
        prop_assert_eq!(&diag.op, &err.at);
        prop_assert_eq!(&diag.message, &err.to_string());
        let executed = check_executed_model(&config, &model, &input).expect("nothing runs");
        prop_assert_eq!(executed, report);

        let entry_points: [(&str, &dyn Fn()); 8] = [
            ("plan_model", &|| _ = plan_model(&model, &config.geometry)),
            ("time_inference", &|| _ = time_inference(&config, &model)),
            ("throughput_sweep", &|| _ = throughput_sweep(&config, &model, &[1])),
            ("BatchCostModel::new", &|| _ = BatchCostModel::new(&config, &model)),
            ("sparsity::analyze", &|| _ = sparsity::analyze(&model)),
            ("activation_profile", &|| _ = sparsity::activation_profile(&model, &input)),
            ("reference::run_model", &|| _ = nc_dnn::reference::run_model(&model, &input)),
            ("table1", &|| _ = nc_dnn::summary::table1(&model)),
        ];
        for (name, call) in entry_points {
            let panic = catch_unwind(AssertUnwindSafe(call)).expect_err(name);
            prop_assert_eq!(panic.downcast_ref::<String>(), Some(&err.to_string()), "{}", name);
        }
    }
}
