//! Cross-crate integration tests: the full Neural Cache system against the
//! paper's published evaluation results (shape-of-result assertions).

use neural_cache_repro::cache::paper::{CPU, GPU};
use neural_cache_repro::cache::{
    throughput_sweep, time_inference, NeuralCache, Phase, SystemConfig,
};
use neural_cache_repro::dnn::inception::inception_v3;

#[test]
fn figure14_breakdown_shape_holds() {
    let report = time_inference(&SystemConfig::xeon_e5_2697_v3(), &inception_v3());
    let b = report.breakdown();
    // Filter loading dominates; MAC > reduction > quantization ~ output;
    // pooling is negligible (paper: 46/15/20/10/5/0.04/4).
    let filter = b.fraction(Phase::FilterLoad);
    assert!((0.35..0.60).contains(&filter), "filter share {filter:.2}");
    assert!(b.fraction(Phase::InputStream) > 0.05);
    assert!(b.fraction(Phase::Mac) > b.fraction(Phase::Reduce));
    assert!(b.fraction(Phase::Reduce) > b.fraction(Phase::Pool));
    assert!(b.fraction(Phase::Pool) < 0.01);
}

#[test]
fn table4_capacity_scaling_holds() {
    let model = inception_v3();
    let mut previous = f64::INFINITY;
    for mb in [35usize, 45, 60] {
        let ms = time_inference(&SystemConfig::with_capacity_mb(mb), &model)
            .total()
            .as_millis_f64();
        assert!(
            ms < previous,
            "{mb} MB must be faster than the previous point"
        );
        previous = ms;
    }
}

#[test]
fn figure16_throughput_endpoints_hold() {
    let config = SystemConfig::xeon_e5_2697_v3();
    let sweep = throughput_sweep(&config, &inception_v3(), &[1]);
    // Neural Cache beats both machines' published peaks already at batch 1
    // (paper: "outperforms the maximum throughput of baseline CPU and GPU
    // even without batching").
    assert!(sweep[0].throughput_ips > CPU.peak_ips());
    assert!(sweep[0].throughput_ips > GPU.peak_ips());
}

#[test]
fn table3_energy_ordering_holds() {
    let system = NeuralCache::new(SystemConfig::xeon_e5_2697_v3());
    let report = system.run_inference(&inception_v3());
    let nc = system.energy(&report);
    // Energy: the GPU's published energy is over 10x Neural Cache's
    // (paper: 4.087 / 0.246 J).
    assert!(GPU.energy_j > 10.0 * nc.total_j());
    // Average power: Neural Cache roughly half of either machine
    // (paper: ~50% / ~53% lower).
    assert!(nc.avg_power_w() < 0.65 * CPU.power_w);
    assert!(nc.avg_power_w() < 0.65 * GPU.power_w);
    // EDP: Neural Cache wins on both axes.
    for machine in [CPU, GPU] {
        let edp = machine.energy_j * machine.latency_ms * 1e-3;
        assert!(nc.edp() < edp, "{}", machine.name);
    }
}

#[test]
fn discrete_event_serving_simulator_end_to_end() {
    use neural_cache_repro::serve::{simulate, ServeConfig, TraceConfig};
    let model = inception_v3();
    let config = ServeConfig::default_two_slice();
    // Underloaded Poisson traffic: everything completes within the SLO.
    let calm = simulate(&config, &model, &TraceConfig::poisson(150.0, 100, 2018));
    assert!(calm.summary.conservation_holds());
    assert_eq!(calm.summary.completed, 100);
    assert_eq!(calm.summary.slo_violations, 0);
    assert!(calm.summary.p99_ms < 100.0);
    // Overload drives queueing, bigger batches and SLO violations, but the
    // invariants still hold.
    let hot = simulate(&config, &model, &TraceConfig::poisson(2000.0, 200, 2018));
    assert!(hot.summary.conservation_holds());
    assert!(hot.summary.goodput_bounded());
    assert!(hot.summary.mean_batch > calm.summary.mean_batch);
    assert!(hot.summary.p99_ms > calm.summary.p99_ms);
    // Deterministic: the facade path reproduces itself byte-for-byte.
    let again = simulate(&config, &model, &TraceConfig::poisson(2000.0, 200, 2018));
    assert_eq!(hot.trace.to_log(), again.trace.to_log());
}

#[test]
fn worked_example_conv2d_2b() {
    // Section VI-A's fully worked example, end to end.
    let system = NeuralCache::new(SystemConfig::xeon_e5_2697_v3());
    let plans = system.plan(&inception_v3());
    let plan = plans.iter().find(|p| p.name == "Conv2d_2b_3x3").unwrap();
    let unit = match &plan.units[0] {
        neural_cache_repro::cache::UnitPlan::Conv(c) => c,
        neural_cache_repro::cache::UnitPlan::Pool(_) => panic!("expected conv"),
    };
    assert_eq!(unit.total_convs, 1_382_976);
    assert_eq!(unit.rounds, 43);
    assert!((unit.utilization() - 0.997).abs() < 0.001);
}

#[test]
fn cost_model_ablation_brackets_the_paper() {
    let model = inception_v3();
    let mut paper = SystemConfig::xeon_e5_2697_v3();
    paper.cost = neural_cache_repro::cache::CostModelKind::Paper;
    let mut derived = SystemConfig::xeon_e5_2697_v3();
    derived.cost = neural_cache_repro::cache::CostModelKind::Derived;
    let t_paper = time_inference(&paper, &model).total();
    let t_derived = time_inference(&derived, &model).total();
    // The derived MAC is cheaper, the derived reduction costlier; totals
    // must stay within 2x of each other and both in the single-digit-ms
    // regime.
    let ratio = t_paper / t_derived;
    assert!((0.5..2.0).contains(&ratio), "ratio {ratio:.2}");
    assert!(t_derived.as_millis_f64() > 1.0);
}
