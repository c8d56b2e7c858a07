//! Trace and rollup exporters: Chrome trace-event JSON (Perfetto-loadable)
//! and the `TELEMETRY.json` rollup artifact.
//!
//! Both are hand-rolled `writeln!` JSON, matching the workspace's
//! vendored-offline policy (no serde).

use std::fmt::Write as _;

use crate::{Level, State, Value};

/// Escapes a string for a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` as a JSON number (JSON has no NaN/Inf; clamp to null).
fn number(v: f64) -> String {
    if v.is_finite() {
        // Shortest round-trip formatting keeps the artifact exact.
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') || s.contains("inf") {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_owned()
    }
}

fn args_json(args: &[(&'static str, Value)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value)) in args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": ", escape(name));
        match value {
            Value::U64(u) => {
                let _ = write!(out, "{u}");
            }
            Value::F64(f) => out.push_str(&number(*f)),
            Value::Str(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
        }
    }
    out.push('}');
    out
}

/// Renders the state as Chrome trace-event JSON: `ph:"M"` metadata naming
/// each track, `ph:"X"` complete events for spans, `ph:"i"` instants.
/// Timestamps are microseconds (the trace-event unit); seconds-scale
/// simulated time keeps full precision through the 1e6 scale.
pub(crate) fn chrome_trace(state: &State) -> String {
    let mut events: Vec<String> = Vec::new();

    // Track metadata: one process per distinct process name, one thread row
    // per track. pid/tid are 1-based indices (Perfetto dislikes pid 0).
    let mut processes: Vec<&str> = Vec::new();
    for t in &state.tracks {
        if !processes.contains(&t.process.as_str()) {
            processes.push(&t.process);
        }
    }
    for (pi, p) in processes.iter().enumerate() {
        events.push(format!(
            "{{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": {}, \"tid\": 0, \
             \"args\": {{\"name\": \"{}\"}}}}",
            pi + 1,
            escape(p)
        ));
    }
    let track_ids: Vec<(usize, usize)> = state
        .tracks
        .iter()
        .enumerate()
        .map(|(ti, t)| {
            let pid = processes.iter().position(|p| *p == t.process).unwrap_or(0) + 1;
            (pid, ti + 1)
        })
        .collect();
    for (ti, t) in state.tracks.iter().enumerate() {
        let (pid, tid) = track_ids[ti];
        events.push(format!(
            "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": {pid}, \"tid\": {tid}, \
             \"args\": {{\"name\": \"{}\"}}}}",
            escape(&t.thread)
        ));
    }

    for sp in &state.spans {
        let (pid, tid) = track_ids.get(sp.track).copied().unwrap_or((1, 1));
        events.push(format!(
            "{{\"ph\": \"X\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {}, \"dur\": {}, \
             \"name\": \"{}\", \"cat\": \"{}\", \"args\": {}}}",
            number(sp.start_s * 1e6),
            number(sp.dur_s * 1e6),
            escape(&sp.name),
            escape(sp.cat),
            args_json(&sp.args)
        ));
    }
    for i in &state.instants {
        let (pid, tid) = track_ids.get(i.track).copied().unwrap_or((1, 1));
        events.push(format!(
            "{{\"ph\": \"i\", \"s\": \"t\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {}, \
             \"name\": \"{}\", \"cat\": \"{}\", \"args\": {}}}",
            number(i.t_s * 1e6),
            escape(&i.name),
            escape(i.cat),
            args_json(&i.args)
        ));
    }

    let mut out = String::from("{\n  \"traceEvents\": [\n");
    for (i, e) in events.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {e}{}",
            if i + 1 < events.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"displayTimeUnit\": \"ms\"\n}\n");
    out
}

/// Renders the `TELEMETRY.json` rollup: level, per-category span/instant
/// rollups (count, exact duration fold, u64-arg sums), counters, gauges,
/// histogram snapshots.
pub(crate) fn rollup_json(state: &State, level: Level) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"level\": \"{}\",", level.name());
    let _ = writeln!(out, "  \"spans\": {},", state.spans.len());
    let _ = writeln!(out, "  \"instants\": {},", state.instants.len());

    // Per-category rollup, in first-appearance order.
    let mut cats: Vec<&'static str> = Vec::new();
    for sp in &state.spans {
        if !cats.contains(&sp.cat) {
            cats.push(sp.cat);
        }
    }
    for i in &state.instants {
        if !cats.contains(&i.cat) {
            cats.push(i.cat);
        }
    }
    out.push_str("  \"categories\": {\n");
    for (ci, cat) in cats.iter().enumerate() {
        let span_count = state.spans.iter().filter(|sp| sp.cat == *cat).count();
        let instant_count = state.instants.iter().filter(|i| i.cat == *cat).count();
        let dur: f64 = state
            .spans
            .iter()
            .filter(|sp| sp.cat == *cat)
            .fold(0.0, |acc, sp| acc + sp.dur_s);
        let mut arg_names: Vec<&'static str> = Vec::new();
        for sp in state.spans.iter().filter(|sp| sp.cat == *cat) {
            for (name, value) in &sp.args {
                if matches!(value, Value::U64(_)) && !arg_names.contains(name) {
                    arg_names.push(name);
                }
            }
        }
        let _ = writeln!(out, "    \"{}\": {{", escape(cat));
        let _ = writeln!(out, "      \"spans\": {span_count},");
        let _ = writeln!(out, "      \"instants\": {instant_count},");
        let _ = writeln!(out, "      \"total_dur_s\": {},", number(dur));
        out.push_str("      \"u64_arg_sums\": {");
        for (ai, arg) in arg_names.iter().enumerate() {
            let sum: u64 = state
                .spans
                .iter()
                .filter(|sp| sp.cat == *cat)
                .flat_map(|sp| &sp.args)
                .filter(|(n, _)| n == arg)
                .map(|(_, v)| if let Value::U64(u) = v { *u } else { 0 })
                .sum();
            if ai > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {sum}", escape(arg));
        }
        out.push_str("}\n");
        let _ = writeln!(out, "    }}{}", if ci + 1 < cats.len() { "," } else { "" });
    }
    out.push_str("  },\n");

    out.push_str("  \"counters\": {");
    for (i, (name, v)) in state.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": {v}", escape(name));
    }
    out.push_str(if state.counters.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });

    out.push_str("  \"gauges\": {");
    for (i, (name, v)) in state.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": {}", escape(name), number(*v));
    }
    out.push_str(if state.gauges.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });

    out.push_str("  \"histograms\": {\n");
    for (i, (name, h)) in state.histograms.iter().enumerate() {
        let _ = writeln!(out, "    \"{}\": {{", escape(name));
        let _ = writeln!(out, "      \"count\": {},", h.count());
        let _ = writeln!(out, "      \"sum\": {},", number(h.sum()));
        let _ = writeln!(out, "      \"mean\": {},", number(h.mean()));
        let _ = writeln!(out, "      \"min\": {},", number(h.min()));
        let _ = writeln!(out, "      \"max\": {},", number(h.max()));
        out.push_str("      \"log2_buckets\": {");
        for (bi, (bucket, count)) in h.buckets().iter().enumerate() {
            if bi > 0 {
                out.push_str(", ");
            }
            let label = if *bucket == crate::ZERO_BUCKET {
                "zero".to_owned()
            } else {
                format!("{bucket}")
            };
            let _ = write!(out, "\"{label}\": {count}");
        }
        out.push_str("}\n");
        let _ = writeln!(
            out,
            "    }}{}",
            if i + 1 < state.histograms.len() {
                ","
            } else {
                ""
            }
        );
    }
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Telemetry, TrackMeta};

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("line\nbreak\t"), "line\\nbreak\\t");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn number_is_json_safe() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(2.0), "2.0");
        assert_eq!(number(0.0), "0.0");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(1e-12), "0.000000000001");
    }

    #[test]
    fn chrome_trace_names_tracks_and_events() {
        let tel = Telemetry::enabled(crate::Level::Spans);
        let t0 = tel.track("sim", "layers");
        let t1 = tel.track("serving", "slice0");
        tel.span(
            t0,
            "timing.layer",
            "conv1",
            0.0,
            1e-3,
            vec![("cycles", Value::U64(42))],
        );
        tel.instant(t1, "serving.event", "arrive", 2e-3, vec![]);
        let json = tel.to_chrome_trace();
        assert!(json.starts_with("{\n  \"traceEvents\": ["));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\": \"sim\""));
        assert!(json.contains("\"name\": \"slice0\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"dur\": 1000"));
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("\"cycles\": 42"));
        assert!(json.ends_with("}\n"));
        // Spans that reference a track use 1-based pids/tids.
        assert!(!json.contains("\"pid\": 0"));
    }

    #[test]
    fn rollup_reports_categories_and_registry() {
        let tel = Telemetry::enabled(crate::Level::Detail);
        let t = tel.track("sim", "layers");
        tel.span(
            t,
            "functional.layer",
            "conv1",
            0.0,
            0.25,
            vec![("mul_rounds", Value::U64(5))],
        );
        tel.span(
            t,
            "functional.layer",
            "conv2",
            0.25,
            0.5,
            vec![("mul_rounds", Value::U64(7))],
        );
        tel.counter_add("sram.mac_rounds", 12);
        tel.gauge_set("engine.wall_s", 0.75);
        tel.histogram_record("engine.shard_seconds", 0.001);
        let json = tel.to_rollup_json();
        assert!(json.contains("\"level\": \"detail\""));
        assert!(json.contains("\"functional.layer\""));
        assert!(json.contains("\"mul_rounds\": 12"));
        assert!(json.contains("\"total_dur_s\": 0.75"));
        assert!(json.contains("\"sram.mac_rounds\": 12"));
        assert!(json.contains("\"engine.wall_s\": 0.75"));
        assert!(json.contains("\"engine.shard_seconds\""));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn empty_state_renders_valid_documents() {
        let json = rollup_json(&crate::State::default(), Level::Off);
        assert!(json.contains("\"level\": \"off\""));
        assert!(json.ends_with("}\n"));
        let mut s = crate::State::default();
        s.tracks.push(TrackMeta {
            process: "p".into(),
            thread: "t".into(),
        });
        assert!(chrome_trace(&s).contains("process_name"));
    }
}
