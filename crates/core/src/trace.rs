//! Exports timing-simulator reports onto a telemetry timeline.
//!
//! [`trace_inference_report`] lays an [`InferenceReport`] out as
//! simulated-time spans: one `timing.layer` span per layer (duration =
//! [`LayerTiming::total`], stored verbatim) and one `timing.phase` span per
//! (layer, phase) pair in [`Phase::ALL`] order. Because [`SimTime`] is a
//! plain `f64` seconds wrapper and the telemetry rollup queries fold span
//! durations in insertion order, the exported trace reconciles
//! **bit-exactly** against the report:
//!
//! - `sum_dur("timing.layer")` equals [`InferenceReport::total`] (same
//!   additions in the same order);
//! - `sum_dur_named("timing.phase", label)` equals the aggregated
//!   [`InferenceReport::breakdown`] value of that phase (the breakdown
//!   merges per-layer, per-phase, in layer order — the identical fold).
//!
//! [`SimTime`]: nc_geometry::SimTime

use nc_telemetry::{Level, Telemetry, Value};

use crate::timing::{InferenceReport, LayerTiming, Phase};

/// Records `report` as `timing.layer` / `timing.phase` spans on `tel`'s
/// simulated-time axis (a no-op below [`Level::Spans`]).
///
/// Layer spans start at the cumulative total of the preceding layers
/// (layers execute back-to-back in the deterministic model) and carry the
/// layer's cycle counters as integer arguments; phase spans subdivide each
/// layer in [`Phase::ALL`] order. Durations are the report's own `f64`
/// values stored verbatim, which is what makes the rollup reconciliation
/// exact rather than approximate.
pub fn trace_inference_report(tel: &Telemetry, report: &InferenceReport) {
    if !tel.at(Level::Spans) {
        return;
    }
    let layer_track = tel.track("timing", "layers");
    let phase_track = tel.track("timing", "phases");
    let mut cursor = 0.0f64;
    for layer in &report.layers {
        let total = layer.total().as_secs_f64();
        tel.span(
            layer_track,
            "timing.layer",
            &layer.name,
            cursor,
            total,
            layer_args(layer),
        );
        let mut phase_cursor = cursor;
        for phase in Phase::ALL {
            let dur = layer.phases.get(phase).as_secs_f64();
            tel.span(
                phase_track,
                "timing.phase",
                phase.label(),
                phase_cursor,
                dur,
                vec![("layer", Value::Str(layer.name.clone()))],
            );
            phase_cursor += dur;
        }
        cursor += total;
    }
}

fn layer_args(layer: &LayerTiming) -> Vec<(&'static str, Value)> {
    vec![
        ("rounds", Value::U64(layer.rounds as u64)),
        ("compute_cycles", Value::U64(layer.compute_cycles)),
        ("mac_cycles", Value::U64(layer.mac_cycles)),
        ("mac_saved_cycles", Value::U64(layer.mac_saved_cycles)),
        ("mac_detect_cycles", Value::U64(layer.mac_detect_cycles)),
        ("streamed_bytes", Value::U64(layer.streamed_bytes as u64)),
        ("dram_bytes", Value::U64(layer.dram_bytes as u64)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::timing::time_inference;
    use nc_dnn::inception::inception_v3;

    #[test]
    fn timing_trace_reconciles_bit_exactly_with_the_report() {
        let report = time_inference(&SystemConfig::xeon_e5_2697_v3(), &inception_v3());
        let tel = Telemetry::enabled(Level::Spans);
        trace_inference_report(&tel, &report);

        assert_eq!(tel.span_count("timing.layer"), report.layers.len());
        assert_eq!(
            tel.span_count("timing.phase"),
            report.layers.len() * Phase::ALL.len()
        );
        // Layer-span durations fold to the report total, bit-for-bit.
        assert_eq!(
            tel.sum_dur("timing.layer"),
            report.total().as_secs_f64(),
            "layer rollup must equal InferenceReport::total exactly"
        );
        // Per-phase rollups fold to the Figure 14 breakdown, bit-for-bit.
        let breakdown = report.breakdown();
        for phase in Phase::ALL {
            assert_eq!(
                tel.sum_dur_named("timing.phase", phase.label()),
                breakdown.get(phase).as_secs_f64(),
                "{phase:?} rollup must equal the aggregated breakdown"
            );
        }
        // Integer args reconcile too.
        let compute: u64 = report.layers.iter().map(|l| l.compute_cycles).sum();
        assert_eq!(tel.sum_u64_arg("timing.layer", "compute_cycles"), compute);
        // Layer names appear in execution order.
        let names = tel.span_names("timing.layer");
        assert_eq!(names.len(), report.layers.len());
        assert_eq!(names[0], report.layers[0].name);
    }

    #[test]
    fn timing_rollups_reconcile_under_every_sparsity_mode() {
        use crate::sparsity::SparsityMode;
        // The weighted model, so the skip modes change the MAC phase.
        let model = nc_dnn::workload::tiny_cnn(2018);
        for mode in [
            SparsityMode::Dense,
            SparsityMode::SkipZeroRows,
            SparsityMode::SkipZeroInputs,
            SparsityMode::SkipBoth,
        ] {
            let report = time_inference(&SystemConfig::with_sparsity(mode), &model);
            let tel = Telemetry::enabled(Level::Spans);
            trace_inference_report(&tel, &report);
            assert_eq!(
                tel.sum_dur("timing.layer"),
                report.total().as_secs_f64(),
                "{mode:?}: layer rollup != InferenceReport::total"
            );
            let breakdown = report.breakdown();
            for phase in Phase::ALL {
                assert_eq!(
                    tel.sum_dur_named("timing.phase", phase.label()),
                    breakdown.get(phase).as_secs_f64(),
                    "{mode:?}: {phase:?} rollup != breakdown"
                );
            }
        }
    }

    #[test]
    fn tracing_below_spans_level_records_nothing() {
        let report = time_inference(&SystemConfig::xeon_e5_2697_v3(), &inception_v3());
        for tel in [Telemetry::disabled(), Telemetry::enabled(Level::Summary)] {
            trace_inference_report(&tel, &report);
            assert_eq!(tel.total_spans(), 0);
        }
    }
}
