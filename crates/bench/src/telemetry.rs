//! Telemetry wiring for the bench binaries: the shared `--trace-out` /
//! `--telemetry-out` flags and the showcase timeline they export.
//!
//! The reconciliation contract itself (span arguments sum to the executed
//! [`nc_sram::CycleStats`], `timing.*` rollups equal the
//! [`neural_cache::InferenceReport`] totals, one telemetry record per
//! serving [`nc_serve::TraceEvent`]) is enforced by the tests of the crates
//! that emit the spans.

use nc_dnn::inception::inception_v3;
use nc_dnn::workload::{random_input, tiny_cnn};
use nc_serve::{simulate_traced, ServeConfig, TraceConfig};
use nc_telemetry::{Level, Telemetry};
use neural_cache::functional::run_model_traced;
use neural_cache::{
    time_inference, trace_inference_report, BatchCostModel, ExecutionEngine, SparsityMode,
    SystemConfig,
};

/// The shared telemetry CLI surface every bench binary accepts.
#[derive(Debug, Clone, Default)]
pub struct TelemetryFlags {
    /// `--trace-out <path>`: write a Chrome-trace-event JSON (Perfetto-
    /// loadable) timeline of the run.
    pub trace_out: Option<String>,
    /// `--telemetry-out <path>`: write the `TELEMETRY.json` rollup
    /// artifact (per-category span rollups, counters, gauges, histograms).
    pub telemetry_out: Option<String>,
}

impl TelemetryFlags {
    /// Parses the two shared flags from `args`.
    #[must_use]
    pub fn parse(args: &[String]) -> Self {
        TelemetryFlags {
            trace_out: crate::parse_flag(args, "--trace-out"),
            telemetry_out: crate::parse_flag(args, "--telemetry-out"),
        }
    }

    /// Parses the flags from the process arguments.
    #[must_use]
    pub fn from_process_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        TelemetryFlags::parse(&args)
    }

    /// Whether the run should record and write timeline artifacts.
    #[must_use]
    pub fn wants_artifacts(&self) -> bool {
        self.trace_out.is_some() || self.telemetry_out.is_some()
    }

    /// Writes the requested artifacts from `tel` and returns the paths
    /// written.
    ///
    /// # Panics
    ///
    /// Panics when an output path cannot be written.
    #[must_use]
    pub fn write_artifacts(&self, tel: &Telemetry) -> Vec<String> {
        let mut written = Vec::new();
        if let Some(path) = &self.trace_out {
            std::fs::write(path, tel.to_chrome_trace()).expect("write chrome trace");
            written.push(path.clone());
        }
        if let Some(path) = &self.telemetry_out {
            std::fs::write(path, tel.to_rollup_json()).expect("write telemetry rollup");
            written.push(path.clone());
        }
        written
    }
}

/// Records the showcase timeline every artifact-writing binary exports:
/// the serving request lifecycle, the full Inception v3 simulated-time
/// layer/phase timeline, and an executed functional proxy with per-op
/// detail, all on one shared sink. The proxy runs on the sequential
/// engine: `tiny_cnn` is too small to spread over workers, so it records
/// no `engine.*` metrics (perfbench's engine probe measures sharding).
pub fn record_showcase(tel: &Telemetry) {
    let model = inception_v3();
    let config = ServeConfig::default_two_slice();
    let cost = BatchCostModel::new(&config.system, &model);
    let _ = simulate_traced(&config, &cost, &TraceConfig::poisson(400.0, 120, 2018), tel);
    let report = time_inference(&SystemConfig::xeon_e5_2697_v3(), &model);
    trace_inference_report(tel, &report);
    let proxy = tiny_cnn(2018);
    let input = random_input(proxy.input_shape, proxy.input_quant, 9);
    let _ = run_model_traced(
        &proxy,
        &input,
        ExecutionEngine::Sequential,
        SparsityMode::SkipBoth,
        tel,
    )
    .expect("functional showcase");
}

/// Honors the shared telemetry flags from the process arguments: when an
/// artifact path is requested, records the showcase timeline and writes
/// the files, reporting each path on stderr. The shared tail of every
/// artifact binary.
pub fn emit_canary_artifacts() {
    let flags = TelemetryFlags::from_process_args();
    if !flags.wants_artifacts() {
        return;
    }
    let tel = Telemetry::enabled(Level::Detail);
    record_showcase(&tel);
    for path in flags.write_artifacts(&tel) {
        eprintln!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_and_pick_the_sink() {
        let args: Vec<String> = ["--threads", "4", "--trace-out", "t.json"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let flags = TelemetryFlags::parse(&args);
        assert_eq!(flags.trace_out.as_deref(), Some("t.json"));
        assert!(flags.telemetry_out.is_none());
        assert!(flags.wants_artifacts());

        // Without an artifact path no sink is recorded and nothing is
        // written.
        let none = TelemetryFlags::parse(&["--threads".to_owned(), "4".to_owned()]);
        assert!(!none.wants_artifacts());
        assert!(none
            .write_artifacts(&Telemetry::enabled(Level::Detail))
            .is_empty());
    }

    #[test]
    fn showcase_produces_a_loadable_trace() {
        let tel = Telemetry::enabled(Level::Detail);
        record_showcase(&tel);
        // All three subsystems landed on the one shared timeline.
        assert!(tel.record_count("serving.event") > 0);
        assert!(tel.span_count("timing.layer") > 0);
        assert!(tel.span_count("functional.layer") > 0);
        let trace = tel.to_chrome_trace();
        assert!(trace.starts_with("{\n  \"traceEvents\": ["));
        assert!(trace.contains("\"ph\": \"X\""));
        let rollup = tel.to_rollup_json();
        assert!(rollup.contains("serving.arrivals"));
    }
}
