//! Runs the `nc-serve` serving bench (offered-load sweep + trace/policy
//! matrix), prints the human-readable table, and optionally writes the
//! Perfetto-loadable timeline artifacts; exits non-zero when the serving
//! sanity gate (conservation, monotone latency vs load, goodput bound)
//! fails.
//!
//! ```bash
//! cargo run --release -p nc-bench --bin serving_sim -- \
//!     --trace-out trace.json --telemetry-out TELEMETRY.json
//! ```
//!
//! `--trace-out trace.json` writes a Chrome trace-event JSON of the
//! request lifecycle + per-layer/per-op execution timeline — load it at
//! <https://ui.perfetto.dev>.

use std::process::ExitCode;

fn main() -> ExitCode {
    nc_bench::verify_prepass();

    let bench = nc_bench::serving::run_serving_bench();
    print!("{}", nc_bench::serving::render_text(&bench));
    nc_bench::telemetry::emit_canary_artifacts();

    if bench.verified() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
