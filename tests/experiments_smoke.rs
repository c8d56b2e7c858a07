//! Smoke test for the benchmark harness: every section `run_all` prints
//! renders (`run_all` wraps exactly these calls).

#[test]
fn all_experiment_artifacts_regenerate() {
    let sparsity = nc_bench::perf::compare_sparsity();
    let activation = nc_bench::perf::compare_activation_sparsity();
    for (title, text) in nc_bench::sections(&sparsity, &activation) {
        assert!(text.lines().count() >= 3, "{title} too short:\n{text}");
    }
}
