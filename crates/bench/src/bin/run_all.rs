//! Regenerates every table and figure of the paper's evaluation in one run,
//! prints the paper-anchor table, and exits non-zero when an anchor drifts
//! past its tolerance or a sparsity comparison fails verification
//! (`nc_bench::gate`, one line per failure on stderr).
//!
//! `--trace-out <path>` / `--telemetry-out <path>` additionally write the
//! Perfetto-loadable timeline and the `TELEMETRY.json` rollup.

use std::process::ExitCode;

fn main() -> ExitCode {
    nc_bench::verify_prepass();
    let sparsity = nc_bench::perf::compare_sparsity();
    let activation = nc_bench::perf::compare_activation_sparsity();
    let measured = nc_bench::measure_anchors();
    for (title, text) in nc_bench::sections(&sparsity, &activation) {
        println!("== {title} ==");
        println!("{text}");
    }
    println!("== Paper anchors ==");
    println!("{}", nc_bench::paper_anchors(&measured));
    nc_bench::telemetry::emit_canary_artifacts();

    let failures = nc_bench::gate(&measured, &sparsity, &activation);
    for failure in &failures {
        eprintln!("FAIL {failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
