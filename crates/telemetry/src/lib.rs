//! Workspace telemetry: a span-based tracer keyed on **simulated time**, a
//! metrics registry, and Perfetto-exportable timelines for the Neural Cache
//! (ISCA 2018) reproduction.
//!
//! The paper's headline results are *attribution* claims — Figure 13's
//! per-layer latency, Figure 14's compute/load/dump breakdown, Figure 16's
//! throughput under batching — and this crate turns the counters the rest
//! of the workspace already proves correct (`CycleStats`, `LayerTiming`,
//! `PoolStats`, `ServingTrace`) into an inspectable timeline. The design
//! contract that makes it more than logging: every rollup derivable from a
//! trace must reconcile **exactly** (integer-exact for cycle counters,
//! bit-exact for simulated-time folds) against the counters the simulators
//! report, so the trace is a faithful second witness, enforced by unit tests
//! and proptests in `neural-cache`/`nc-serve`.
//!
//! Three pieces:
//!
//! - [`Telemetry`]: a cloneable handle that is either a recording sink or a
//!   **no-op sink** ([`Telemetry::disabled`]). The disabled handle holds no
//!   allocation and every record call is a single branch on an `Option`, so
//!   instrumented hot paths cost nothing when telemetry is off (the default
//!   everywhere). A [`Level`] filter, chosen when the sink is created,
//!   gates how much detail an enabled sink records.
//! - A metrics registry on the same handle: named monotonic counters,
//!   gauges, log2-bucketed [`Histogram`]s, and the time-weighted
//!   [`TimeWeightedHistogram`] the serving queue-depth report feeds.
//! - Exporters: [`Telemetry::to_chrome_trace`] renders the Chrome
//!   trace-event JSON that Perfetto (<https://ui.perfetto.dev>) loads
//!   directly, and [`Telemetry::to_rollup_json`] renders the
//!   `TELEMETRY.json` rollup artifact CI uploads.
//!
//! Spans carry their duration **verbatim** (never recomputed as
//! `end - start`), and the rollup queries ([`Telemetry::sum_dur`],
//! [`Telemetry::sum_u64_arg`], ...) fold records in insertion order, so a
//! caller that stores the simulator's own per-layer values reproduces the
//! simulator's own totals bit-for-bit. No external dependencies, per the
//! workspace's vendored-offline policy.

#![warn(missing_docs)]

use std::sync::{Arc, Mutex};

mod export;
mod registry;

pub use registry::{bucket_floor, log2_bucket, Histogram, TimeWeightedHistogram, ZERO_BUCKET};

/// How much an enabled sink records, in increasing detail.
///
/// Ordered so `level >= Level::Spans` style comparisons read naturally;
/// [`Level::Off`] is the level of the disabled handle (an enabled sink
/// always has a level above `Off`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Level {
    /// Record nothing (disabled handle).
    #[default]
    Off,
    /// Metrics registry only: counters, gauges, histograms.
    Summary,
    /// Metrics plus per-layer / per-event spans.
    Spans,
    /// Everything: per-op and per-shard spans too (what the bench
    /// binaries' `--trace-out` records).
    Detail,
}

impl Level {
    /// Stable lowercase name (the `"level"` field of the rollup JSON).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Summary => "summary",
            Level::Spans => "spans",
            Level::Detail => "detail",
        }
    }
}

/// A span/instant argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (cycle counters, counts, ids). Summed exactly by
    /// [`Telemetry::sum_u64_arg`].
    U64(u64),
    /// Floating-point (times, fractions).
    F64(f64),
    /// Free-form label.
    Str(String),
}

/// Identifies an interned (process, thread) timeline row in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrackId(usize);

#[derive(Debug, Clone)]
pub(crate) struct TrackMeta {
    pub process: String,
    pub thread: String,
}

#[derive(Debug, Clone)]
pub(crate) struct SpanRecord {
    pub track: usize,
    pub cat: &'static str,
    pub name: String,
    pub start_s: f64,
    pub dur_s: f64,
    pub args: Vec<(&'static str, Value)>,
}

#[derive(Debug, Clone)]
pub(crate) struct InstantRecord {
    pub track: usize,
    pub cat: &'static str,
    pub name: String,
    pub t_s: f64,
    pub args: Vec<(&'static str, Value)>,
}

#[derive(Debug, Default)]
pub(crate) struct State {
    pub tracks: Vec<TrackMeta>,
    pub spans: Vec<SpanRecord>,
    pub instants: Vec<InstantRecord>,
    pub counters: std::collections::BTreeMap<String, u64>,
    pub gauges: std::collections::BTreeMap<String, f64>,
    pub histograms: std::collections::BTreeMap<String, Histogram>,
}

#[derive(Debug)]
struct Inner {
    level: Level,
    state: Mutex<State>,
}

/// The telemetry handle: either a recording sink or a free no-op.
///
/// Cloning is cheap (an `Arc` bump, or nothing when disabled); clones share
/// one record store, so a handle can be threaded through the functional
/// executor, the timing model, and the serving simulator and the resulting
/// trace lands in one timeline.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// The no-op sink: records nothing, allocates nothing, every call is
    /// one branch. This is the default everywhere.
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A recording sink at `level` ([`Level::Off`] gives the no-op sink).
    #[must_use]
    pub fn enabled(level: Level) -> Self {
        if level == Level::Off {
            return Telemetry::disabled();
        }
        Telemetry {
            inner: Some(Arc::new(Inner {
                level,
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// Whether this handle records anything at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The recording level ([`Level::Off`] for the no-op sink).
    #[must_use]
    pub fn level(&self) -> Level {
        self.inner.as_ref().map_or(Level::Off, |i| i.level)
    }

    /// Whether records at `level` detail should be produced. Callers use
    /// this to skip building span arguments entirely when they would be
    /// dropped.
    #[must_use]
    pub fn at(&self, level: Level) -> bool {
        self.level() >= level
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut State) -> R) -> Option<R> {
        self.inner
            .as_ref()
            .map(|i| f(&mut i.state.lock().expect("telemetry state poisoned")))
    }

    /// Interns a `(process, thread)` timeline row and returns its id.
    /// Repeated calls with the same pair return the same id.
    #[must_use]
    pub fn track(&self, process: &str, thread: &str) -> TrackId {
        self.with_state(|s| {
            if let Some(i) = s
                .tracks
                .iter()
                .position(|t| t.process == process && t.thread == thread)
            {
                return TrackId(i);
            }
            s.tracks.push(TrackMeta {
                process: process.to_owned(),
                thread: thread.to_owned(),
            });
            TrackId(s.tracks.len() - 1)
        })
        .unwrap_or(TrackId(0))
    }

    /// Records a complete span. `start_s`/`dur_s` are seconds on the
    /// caller's time axis (simulated or wall — use separate tracks for
    /// separate axes); `dur_s` is stored verbatim so rollups can reproduce
    /// the caller's own folds bit-exactly.
    pub fn span(
        &self,
        track: TrackId,
        cat: &'static str,
        name: &str,
        start_s: f64,
        dur_s: f64,
        args: Vec<(&'static str, Value)>,
    ) {
        self.with_state(|s| {
            s.spans.push(SpanRecord {
                track: track.0,
                cat,
                name: name.to_owned(),
                start_s,
                dur_s,
                args,
            });
        });
    }

    /// Records an instantaneous event.
    pub fn instant(
        &self,
        track: TrackId,
        cat: &'static str,
        name: &str,
        t_s: f64,
        args: Vec<(&'static str, Value)>,
    ) {
        self.with_state(|s| {
            s.instants.push(InstantRecord {
                track: track.0,
                cat,
                name: name.to_owned(),
                t_s,
                args,
            });
        });
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.with_state(|s| {
            *s.counters.entry(name.to_owned()).or_insert(0) += delta;
        });
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.with_state(|s| {
            s.gauges.insert(name.to_owned(), value);
        });
    }

    /// Records one sample into the named log2-bucketed histogram.
    pub fn histogram_record(&self, name: &str, value: f64) {
        self.with_state(|s| {
            s.histograms
                .entry(name.to_owned())
                .or_default()
                .record(value);
        });
    }

    // --- rollup queries -------------------------------------------------

    /// Number of spans in category `cat`.
    #[must_use]
    pub fn span_count(&self, cat: &str) -> usize {
        self.with_state(|s| s.spans.iter().filter(|sp| sp.cat == cat).count())
            .unwrap_or(0)
    }

    /// Number of records (spans **and** instants) in category `cat`.
    #[must_use]
    pub fn record_count(&self, cat: &str) -> usize {
        self.with_state(|s| {
            s.spans.iter().filter(|sp| sp.cat == cat).count()
                + s.instants.iter().filter(|i| i.cat == cat).count()
        })
        .unwrap_or(0)
    }

    /// Exact sum of the `U64` argument `arg` over every span in `cat`
    /// (spans without the argument contribute 0).
    #[must_use]
    pub fn sum_u64_arg(&self, cat: &str, arg: &str) -> u64 {
        self.sum_u64_arg_where(cat, None, arg)
    }

    /// [`Telemetry::sum_u64_arg`] over the spans in `cat` whose name is
    /// `name`.
    #[must_use]
    pub fn sum_u64_arg_named(&self, cat: &str, name: &str, arg: &str) -> u64 {
        self.sum_u64_arg_where(cat, Some(name), arg)
    }

    fn sum_u64_arg_where(&self, cat: &str, name: Option<&str>, arg: &str) -> u64 {
        self.with_state(|s| {
            s.spans
                .iter()
                .filter(|sp| sp.cat == cat && name.is_none_or(|n| sp.name == n))
                .flat_map(|sp| &sp.args)
                .filter(|(n, _)| *n == arg)
                .map(|(_, v)| if let Value::U64(u) = v { *u } else { 0 })
                .sum()
        })
        .unwrap_or(0)
    }

    /// Sum of span durations in `cat`, folded in insertion order (so a
    /// trace that stores a simulator's per-item values verbatim reproduces
    /// the simulator's own `f64` total bit-for-bit).
    #[must_use]
    pub fn sum_dur(&self, cat: &str) -> f64 {
        self.with_state(|s| {
            s.spans
                .iter()
                .filter(|sp| sp.cat == cat)
                .fold(0.0, |acc, sp| acc + sp.dur_s)
        })
        .unwrap_or(0.0)
    }

    /// Sum of span durations in `cat` whose name is `name`, folded in
    /// insertion order.
    #[must_use]
    pub fn sum_dur_named(&self, cat: &str, name: &str) -> f64 {
        self.with_state(|s| {
            s.spans
                .iter()
                .filter(|sp| sp.cat == cat && sp.name == name)
                .fold(0.0, |acc, sp| acc + sp.dur_s)
        })
        .unwrap_or(0.0)
    }

    /// Distinct span names in `cat`, in first-appearance order.
    #[must_use]
    pub fn span_names(&self, cat: &str) -> Vec<String> {
        self.with_state(|s| {
            let mut names: Vec<String> = Vec::new();
            for sp in s.spans.iter().filter(|sp| sp.cat == cat) {
                if !names.contains(&sp.name) {
                    names.push(sp.name.clone());
                }
            }
            names
        })
        .unwrap_or_default()
    }

    /// Current value of the named counter (0 when absent or disabled).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.with_state(|s| s.counters.get(name).copied().unwrap_or(0))
            .unwrap_or(0)
    }

    /// Current value of the named gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.with_state(|s| s.gauges.get(name).copied()).flatten()
    }

    /// All counters, sorted by name.
    #[must_use]
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.with_state(|s| s.counters.iter().map(|(k, &v)| (k.clone(), v)).collect())
            .unwrap_or_default()
    }

    /// All gauges, sorted by name.
    #[must_use]
    pub fn gauges(&self) -> Vec<(String, f64)> {
        self.with_state(|s| s.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect())
            .unwrap_or_default()
    }

    /// A snapshot of the named histogram.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.with_state(|s| s.histograms.get(name).cloned())
            .flatten()
    }

    /// Names of all histograms, sorted.
    #[must_use]
    pub fn histogram_names(&self) -> Vec<String> {
        self.with_state(|s| s.histograms.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Total number of spans across all categories.
    #[must_use]
    pub fn total_spans(&self) -> usize {
        self.with_state(|s| s.spans.len()).unwrap_or(0)
    }

    /// Total number of instants across all categories.
    #[must_use]
    pub fn total_instants(&self) -> usize {
        self.with_state(|s| s.instants.len()).unwrap_or(0)
    }

    /// Renders the trace as Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` form), loadable directly by Perfetto.
    /// Returns an empty-trace document for the no-op sink.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        self.with_state(|s| export::chrome_trace(s))
            .unwrap_or_else(|| String::from("{\n  \"traceEvents\": []\n}\n"))
    }

    /// Renders the `TELEMETRY.json` rollup artifact: level, per-category
    /// span rollups, counters, gauges, histogram snapshots.
    #[must_use]
    pub fn to_rollup_json(&self) -> String {
        let level = self.level();
        self.with_state(|s| export::rollup_json(s, level))
            .unwrap_or_else(|| export::rollup_json(&State::default(), Level::Off))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_round_trips_and_defaults_off() {
        let levels = [Level::Off, Level::Summary, Level::Spans, Level::Detail];
        let names: Vec<&str> = levels.iter().map(|l| l.name()).collect();
        assert_eq!(names, ["off", "summary", "spans", "detail"]);
        // Ordered by detail, so `tel.at(level)` is a plain comparison.
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
        // A sink reports the level it was created with; Off is the default
        // and the level of the disabled handle.
        for l in levels {
            assert_eq!(Telemetry::enabled(l).level(), l);
        }
        assert_eq!(Level::default(), Level::Off);
        assert_eq!(Telemetry::default().level(), Level::Off);
    }

    #[test]
    fn disabled_sink_records_and_returns_nothing() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        assert!(!tel.at(Level::Summary));
        let track = tel.track("p", "t");
        tel.span(track, "cat", "s", 0.0, 1.0, vec![]);
        tel.instant(track, "cat", "i", 0.5, vec![]);
        tel.counter_add("c", 3);
        tel.gauge_set("g", 1.0);
        tel.histogram_record("h", 2.0);
        assert_eq!(tel.span_count("cat"), 0);
        assert_eq!(tel.record_count("cat"), 0);
        assert_eq!(tel.counter("c"), 0);
        assert_eq!(tel.gauge("g"), None);
        assert!(tel.histogram("h").is_none());
        assert_eq!(tel.sum_dur("cat"), 0.0);
        assert!(tel.to_chrome_trace().contains("traceEvents"));
        assert!(!Telemetry::enabled(Level::Off).is_enabled());
    }

    #[test]
    fn spans_and_rollups_fold_in_insertion_order() {
        let tel = Telemetry::enabled(Level::Detail);
        assert!(tel.at(Level::Spans) && tel.at(Level::Detail));
        let track = tel.track("sim", "layers");
        let durs = [0.1, 0.2, 0.300_000_000_000_000_04, 1e-9];
        let mut expect = 0.0;
        for (i, d) in durs.iter().enumerate() {
            tel.span(
                track,
                "layer",
                &format!("l{i}"),
                expect,
                *d,
                vec![("cycles", Value::U64(i as u64 + 1))],
            );
            expect += d;
        }
        assert_eq!(tel.span_count("layer"), 4);
        assert_eq!(tel.sum_dur("layer"), expect);
        assert_eq!(tel.sum_u64_arg("layer", "cycles"), 1 + 2 + 3 + 4);
        assert_eq!(tel.sum_u64_arg("layer", "absent"), 0);
        assert_eq!(tel.sum_dur_named("layer", "l1"), 0.2);
        assert_eq!(tel.sum_u64_arg_named("layer", "l2", "cycles"), 3);
        assert_eq!(tel.sum_u64_arg_named("layer", "none", "cycles"), 0);
        assert_eq!(tel.span_names("layer"), vec!["l0", "l1", "l2", "l3"]);
        // Same (process, thread) pair interns to the same track.
        assert_eq!(tel.track("sim", "layers"), track);
        assert_ne!(tel.track("sim", "other"), track);
    }

    #[test]
    fn registry_and_clones_share_state() {
        let tel = Telemetry::enabled(Level::Summary);
        let clone = tel.clone();
        clone.counter_add("mac.rounds", 7);
        tel.counter_add("mac.rounds", 5);
        clone.gauge_set("busy", 0.25);
        tel.gauge_set("busy", 0.75);
        tel.histogram_record("shard_s", 0.5);
        clone.histogram_record("shard_s", 2.0);
        assert_eq!(tel.counter("mac.rounds"), 12);
        assert_eq!(tel.gauge("busy"), Some(0.75));
        let h = tel.histogram("shard_s").expect("histogram exists");
        assert_eq!(h.count(), 2);
        assert_eq!(tel.counters(), vec![("mac.rounds".to_owned(), 12)]);
        assert_eq!(tel.histogram_names(), vec!["shard_s".to_owned()]);
    }
}
