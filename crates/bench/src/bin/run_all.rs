//! Regenerates every table and figure of the paper's evaluation in one run.
//!
//! `--threads N` runs the simulators behind the artifacts on the threaded
//! execution engine (N worker threads); the regenerated numbers are
//! identical, only host wall-clock changes.
//! `--trace-out <path>` / `--telemetry-out <path>` additionally write the
//! Perfetto-loadable timeline and the `TELEMETRY.json` rollup.
fn main() {
    nc_bench::threads_flag(1);
    nc_bench::verify_prepass();
    for (title, text) in [
        ("== Table I ==", nc_bench::table1()),
        ("== Table II ==", nc_bench::table2()),
        ("== Table III ==", nc_bench::table3()),
        ("== Table IV ==", nc_bench::table4()),
        ("== Figure 2 ==", nc_bench::fig2()),
        ("== Figures 4-6 ==", nc_bench::fig4_6()),
        ("== Figure 12 ==", nc_bench::fig12()),
        ("== Figure 13 ==", nc_bench::fig13()),
        ("== Figure 14 ==", nc_bench::fig14()),
        ("== Figure 15 ==", nc_bench::fig15()),
        ("== Figure 16 ==", nc_bench::fig16()),
        ("== Sparsity ==", nc_bench::sparsity()),
        ("== Activation sparsity ==", nc_bench::activation_sparsity()),
        ("== Serving ==", nc_bench::serving_under_load()),
        ("== Headlines ==", nc_bench::headlines()),
    ] {
        println!("{title}");
        println!("{text}");
    }
    nc_bench::telemetry::emit_canary_artifacts();
}
