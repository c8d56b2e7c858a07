//! Property-based tests of the core: mapping invariants over random layer
//! geometries, and bit-exact functional equivalence over random small
//! convolutions.

use nc_dnn::workload::{random_conv, random_input, single_conv_model};
use nc_dnn::{Padding, Shape};
use nc_geometry::CacheGeometry;
use neural_cache::functional;
use neural_cache::mapping::{plan_layer, UnitPlan};
use proptest::prelude::*;

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
        let input = Shape::new(h, h, c);
        let layer = nc_dnn::Layer::Conv(nc_dnn::Conv2d::shape_only(spec.clone()));
        let plan = plan_layer(&layer, input, &geometry);
        let UnitPlan::Conv(u) = &plan.units[0] else { panic!("expected conv") };

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
}
