//! Records the showcase telemetry timeline — the serving request
//! lifecycle on Inception v3, the full simulated-time per-layer/per-phase
//! timeline, and an executed functional proxy with per-op detail — and
//! writes it as a Chrome trace-event JSON (load at
//! <https://ui.perfetto.dev>) plus the `TELEMETRY.json` rollup, with a
//! human-readable summary of what landed on each track.
//!
//! ```bash
//! cargo run --release -p nc-bench --bin trace_viz -- \
//!     --trace-out trace.json --telemetry-out TELEMETRY.json
//! ```
//!
//! Both outputs default on: `trace.json` and `TELEMETRY.json` in the
//! working directory unless overridden.

use nc_bench::telemetry::TelemetryFlags;
use nc_telemetry::{Level, Telemetry};

fn main() {
    nc_bench::verify_prepass();
    let mut flags = TelemetryFlags::from_process_args();
    if flags.trace_out.is_none() {
        flags.trace_out = Some("trace.json".to_owned());
    }
    if flags.telemetry_out.is_none() {
        flags.telemetry_out = Some("TELEMETRY.json".to_owned());
    }

    let tel = Telemetry::enabled(Level::Detail);
    nc_bench::telemetry::record_showcase(&tel);

    println!("recorded showcase timeline:");
    for (cat, what) in [
        (
            "serving.event",
            "request lifecycle records (arrive/dispatch/batch/drop)",
        ),
        ("serving.request", "queue-wait spans"),
        ("timing.layer", "simulated-time layer spans"),
        ("timing.phase", "simulated-time phase spans"),
        ("functional.layer", "executed layer spans"),
        ("functional.op", "executed per-op phase spans"),
    ] {
        println!("  {:>6} {cat:<18} {what}", tel.record_count(cat));
    }
    println!(
        "  {:>6} counters, {} gauges, {} histograms",
        tel.counters().len(),
        tel.gauges().len(),
        tel.histogram_names().len()
    );
    println!(
        "  simulated time on timing.layer: {:.3} ms",
        tel.sum_dur("timing.layer") * 1e3
    );

    for path in flags.write_artifacts(&tel) {
        println!("wrote {path}");
    }
    println!("open the trace at https://ui.perfetto.dev");
}
