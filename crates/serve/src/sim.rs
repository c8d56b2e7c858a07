//! The deterministic discrete-event serving simulator: an admission queue
//! with priority classes, the SLO-adaptive batcher, and a multi-slice
//! scheduler dispatching batches onto independent cache slices, all costed
//! through the calibrated [`BatchCostModel`].
//!
//! Determinism: events order by `(time, sequence number)` with a total
//! order on time, the arrivals are drawn before the first event pops, and
//! the batch cost model times its layers in order on the calling thread, so
//! identical seeds produce byte-identical [`ServingTrace`] logs. No serving
//! path reads `SystemConfig::parallelism`, which selects the engine of the
//! functional executor only.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use nc_geometry::SimTime;
use nc_telemetry::{Level, Telemetry, Value};
use neural_cache::{BatchCostModel, SystemConfig};

use crate::batcher::adaptive_batch;
use crate::metrics::{Completion, MetricsCollector, ServingSummary};
use crate::trace::{Request, TraceConfig};

/// Serving-side configuration: the timing substrate, replica count, the
/// SLO-adaptive batcher's largest batch, admission bound, and the latency
/// SLO.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Timing substrate (geometry, cost model, sparsity).
    pub system: SystemConfig,
    /// Independent cache slices batches dispatch onto. Each slice holds its
    /// own stationary copy of the weights (Section IV-E), pays the filter
    /// load on its first batch, and serves warm batches thereafter.
    pub slices: usize,
    /// Largest batch [`adaptive_batch`] forms.
    pub max_batch: usize,
    /// Admission-queue bound: arrivals beyond this many waiting requests
    /// are dropped.
    pub queue_capacity: usize,
    /// Base latency SLO; each traffic class scales it by its `slo_scale`.
    pub slo: SimTime,
}

impl ServeConfig {
    /// A two-slice serving setup with sane defaults: SLO-adaptive batching
    /// up to 32, a 512-deep admission queue, and a 100 ms base SLO.
    #[must_use]
    pub fn default_two_slice() -> Self {
        ServeConfig {
            system: SystemConfig::xeon_e5_2697_v3(),
            slices: 2,
            max_batch: 32,
            queue_capacity: 512,
            slo: SimTime::from_millis(100.0),
        }
    }
}

/// One record of the deterministic serving log. Times serialize with full
/// bit precision so byte identity means trajectory identity.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A request reached the admission queue.
    Arrive {
        /// Event time.
        t: SimTime,
        /// Request id.
        id: u64,
        /// Traffic-class index.
        class: u8,
    },
    /// A request was dropped at admission (queue full).
    Drop {
        /// Event time.
        t: SimTime,
        /// Request id.
        id: u64,
    },
    /// A batch left the queue for a slice.
    Dispatch {
        /// Event time.
        t: SimTime,
        /// Slice index.
        slice: usize,
        /// Whether this batch pays the one-time filter load.
        cold: bool,
        /// Request ids in dispatch order.
        ids: Vec<u64>,
    },
    /// A batch completed on a slice.
    Complete {
        /// Event time.
        t: SimTime,
        /// Slice index.
        slice: usize,
        /// Request ids in dispatch order.
        ids: Vec<u64>,
    },
}

/// The deterministic event log of one simulation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServingTrace {
    /// Events in simulation order.
    pub events: Vec<TraceEvent>,
}

impl ServingTrace {
    /// Renders the log as text with full-precision times: two runs are
    /// trajectory-identical iff their logs are byte-identical.
    #[must_use]
    pub fn to_log(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let t = |time: SimTime| format!("{:.17e}", time.as_secs_f64());
        for e in &self.events {
            match e {
                TraceEvent::Arrive { t: at, id, class } => {
                    let _ = writeln!(out, "A t={} id={id} class={class}", t(*at));
                }
                TraceEvent::Drop { t: at, id } => {
                    let _ = writeln!(out, "X t={} id={id}", t(*at));
                }
                TraceEvent::Dispatch {
                    t: at,
                    slice,
                    cold,
                    ids,
                } => {
                    let _ = writeln!(
                        out,
                        "B t={} slice={slice} cold={} n={} ids={ids:?}",
                        t(*at),
                        u8::from(*cold),
                        ids.len()
                    );
                }
                TraceEvent::Complete { t: at, slice, ids } => {
                    let _ = writeln!(
                        out,
                        "C t={} slice={slice} n={} ids={ids:?}",
                        t(*at),
                        ids.len()
                    );
                }
            }
        }
        out
    }
}

/// Everything one simulation produces: the metrics summary and the
/// deterministic event log.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingOutcome {
    /// Aggregated serving metrics.
    pub summary: ServingSummary,
    /// Deterministic event log.
    pub trace: ServingTrace,
}

#[derive(Debug)]
enum EventKind {
    Arrival(Request),
    BatchDone { slice: usize },
}

#[derive(Debug)]
struct Event {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: reverse so the earliest (time, seq)
        // pops first. Times are finite and non-negative, so total_cmp is a
        // total order consistent with numeric order.
        self.time
            .as_secs_f64()
            .total_cmp(&other.time.as_secs_f64())
            .then(self.seq.cmp(&other.seq))
            .reverse()
    }
}

#[derive(Debug)]
struct SliceState {
    busy_until: SimTime,
    busy: bool,
    cold: bool,
    busy_time: SimTime,
    dispatched_at: SimTime,
    inflight: Vec<Request>,
}

/// Runs one deterministic serving simulation to completion: every arrival
/// of the trace either completes or is dropped before the simulator
/// returns.
///
/// Plans `model` once via [`BatchCostModel`] and runs [`simulate_traced`]
/// with telemetry off.
///
/// # Panics
///
/// Panics on a zero-slice or zero-capacity configuration, or an empty
/// trace.
#[must_use]
pub fn simulate(
    config: &ServeConfig,
    model: &nc_dnn::Model,
    trace_config: &TraceConfig,
) -> ServingOutcome {
    simulate_traced(
        config,
        &BatchCostModel::new(&config.system, model),
        trace_config,
        &Telemetry::disabled(),
    )
}

/// [`simulate`] against a prebuilt [`BatchCostModel`] with a telemetry sink
/// attached: the simulation itself is **identical** (same trajectory, same
/// summary, byte-identical [`ServingTrace`]) — the sink only observes it.
///
/// The cost model is the sole timing authority here: `config.system` is
/// **not** consulted (only [`simulate`] reads it, to build the cost
/// model), so pass a cost model built from the same system you report the
/// results under.
///
/// At [`Level::Spans`] and above, every [`TraceEvent`] the log records is
/// mirrored by **exactly one** telemetry record in category
/// `serving.event` — `arrive`/`drop` instants on the queue track,
/// `dispatch` instants and a `batch` span (dispatch → completion) on the
/// owning slice's track — so `record_count("serving.event")` equals
/// `trace.events.len()` exactly. At [`Level::Detail`] each dispatched
/// request additionally gets a `serving.request`/`queue-wait` span
/// (arrival → dispatch). Counters (`serving.arrivals` / `.drops` /
/// `.dispatches` / `.completions`), the `serving.batch_size` histogram and
/// end-of-run summary gauges are recorded at every enabled level.
///
/// # Panics
///
/// Panics on a zero-slice or zero-capacity configuration, or an empty
/// trace.
#[must_use]
pub fn simulate_traced(
    config: &ServeConfig,
    cost: &BatchCostModel,
    trace_config: &TraceConfig,
    tel: &Telemetry,
) -> ServingOutcome {
    assert!(config.slices > 0, "need at least one slice");
    assert!(config.queue_capacity > 0, "queue capacity must be positive");
    let spans_on = tel.at(Level::Spans);
    let queue_track = tel.track("serving", "queue");
    let slice_tracks: Vec<_> = (0..config.slices)
        .map(|i| tel.track("serving", &format!("slice {i}")))
        .collect();

    let classes = trace_config.mix.len();
    // Dequeue order: classes sorted by admission priority, stable on index.
    let mut class_order: Vec<usize> = (0..classes).collect();
    class_order.sort_by_key(|&i| (trace_config.mix[i].priority, i));

    let mut events = BinaryHeap::new();
    let mut seq = 0u64;
    let mut push = |events: &mut BinaryHeap<Event>, time: SimTime, kind: EventKind| {
        seq += 1;
        events.push(Event { time, seq, kind });
    };
    for r in trace_config.arrivals() {
        push(&mut events, r.arrival, EventKind::Arrival(r));
    }

    let mut queues: Vec<VecDeque<Request>> = (0..classes).map(|_| VecDeque::new()).collect();
    let mut queued_total = 0usize;
    let mut slices: Vec<SliceState> = (0..config.slices)
        .map(|_| SliceState {
            busy_until: SimTime::ZERO,
            busy: false,
            cold: true,
            busy_time: SimTime::ZERO,
            dispatched_at: SimTime::ZERO,
            inflight: Vec::new(),
        })
        .collect();

    let mut metrics = MetricsCollector::new(config, trace_config);
    let mut log = ServingTrace::default();
    let mut now = SimTime::ZERO;

    while let Some(event) = events.pop() {
        debug_assert!(event.time >= now, "time must not run backwards");
        metrics.observe_queue_depth(queued_total, event.time - now);
        now = event.time;

        match event.kind {
            EventKind::Arrival(r) => {
                metrics.on_arrival(&r);
                log.events.push(TraceEvent::Arrive {
                    t: now,
                    id: r.id,
                    class: r.class,
                });
                if spans_on {
                    tel.instant(
                        queue_track,
                        "serving.event",
                        "arrive",
                        now.as_secs_f64(),
                        vec![
                            ("id", Value::U64(r.id)),
                            ("class", Value::U64(u64::from(r.class))),
                        ],
                    );
                }
                tel.counter_add("serving.arrivals", 1);
                if queued_total >= config.queue_capacity {
                    metrics.on_drop(&r);
                    log.events.push(TraceEvent::Drop { t: now, id: r.id });
                    if spans_on {
                        tel.instant(
                            queue_track,
                            "serving.event",
                            "drop",
                            now.as_secs_f64(),
                            vec![("id", Value::U64(r.id))],
                        );
                    }
                    tel.counter_add("serving.drops", 1);
                } else {
                    queued_total += 1;
                    queues[r.class as usize].push_back(r);
                }
            }
            EventKind::BatchDone { slice } => {
                let s = &mut slices[slice];
                s.busy = false;
                let batch = std::mem::take(&mut s.inflight);
                let ids: Vec<u64> = batch.iter().map(|r| r.id).collect();
                log.events.push(TraceEvent::Complete { t: now, slice, ids });
                if spans_on {
                    // The batch's residency on its slice, dispatch to
                    // completion: in simulated time its duration is exactly
                    // the priced service time (`busy_until - dispatched_at`).
                    tel.span(
                        slice_tracks[slice],
                        "serving.event",
                        "batch",
                        s.dispatched_at.as_secs_f64(),
                        (now - s.dispatched_at).as_secs_f64(),
                        vec![
                            ("slice", Value::U64(slice as u64)),
                            ("n", Value::U64(batch.len() as u64)),
                        ],
                    );
                }
                tel.counter_add("serving.completions", batch.len() as u64);
                for r in batch {
                    metrics.on_completion(Completion {
                        class: r.class,
                        latency: now - r.arrival,
                    });
                }
            }
        }

        // Scheduler: the SLO-adaptive batcher never waits, so every free
        // slice takes a batch while requests queue.
        while queued_total > 0 {
            let Some(slice_idx) = slices.iter().position(|s| !s.busy) else {
                break;
            };
            let oldest = class_order
                .iter()
                .filter_map(|&c| queues[c].front())
                .map(|r| r.arrival)
                .fold(None, |acc: Option<SimTime>, t| {
                    Some(acc.map_or(t, |a| if t < a { t } else { a }))
                })
                .expect("non-empty queue has an oldest request");
            let n = adaptive_batch(
                now,
                queued_total,
                oldest,
                slices[slice_idx].cold,
                config.slo,
                config.max_batch,
                cost,
            );
            let mut batch = Vec::with_capacity(n);
            'take: for &c in &class_order {
                while let Some(r) = queues[c].pop_front() {
                    batch.push(r);
                    queued_total -= 1;
                    if batch.len() == n {
                        break 'take;
                    }
                }
            }
            let s = &mut slices[slice_idx];
            let service = cost.service_time(batch.len(), s.cold);
            let cold = s.cold;
            s.cold = false;
            s.busy = true;
            s.busy_until = now + service;
            s.busy_time += service;
            s.dispatched_at = now;
            s.inflight = batch;
            metrics.on_dispatch(s.inflight.len());
            log.events.push(TraceEvent::Dispatch {
                t: now,
                slice: slice_idx,
                cold,
                ids: s.inflight.iter().map(|r| r.id).collect(),
            });
            if spans_on {
                tel.instant(
                    slice_tracks[slice_idx],
                    "serving.event",
                    "dispatch",
                    now.as_secs_f64(),
                    vec![
                        ("slice", Value::U64(slice_idx as u64)),
                        ("n", Value::U64(s.inflight.len() as u64)),
                        ("cold", Value::U64(u64::from(cold))),
                    ],
                );
                if tel.at(Level::Detail) {
                    for r in &s.inflight {
                        tel.span(
                            queue_track,
                            "serving.request",
                            "queue-wait",
                            r.arrival.as_secs_f64(),
                            (now - r.arrival).as_secs_f64(),
                            vec![
                                ("id", Value::U64(r.id)),
                                ("class", Value::U64(u64::from(r.class))),
                            ],
                        );
                    }
                }
            }
            tel.counter_add("serving.dispatches", 1);
            tel.histogram_record("serving.batch_size", s.inflight.len() as f64);
            push(
                &mut events,
                s.busy_until,
                EventKind::BatchDone { slice: slice_idx },
            );
        }
    }

    debug_assert_eq!(queued_total, 0, "drained simulation leaves no queue");
    // Pending is measured from the simulator's *actual* residual state
    // (queued + in-flight), not derived from the other counters, so the
    // conservation gate can genuinely catch a lost request.
    let pending = queued_total + slices.iter().map(|s| s.inflight.len()).sum::<usize>();
    // Every event is an arrival or a completion, so the last one popped
    // ends the makespan.
    let summary = metrics.finish(
        now,
        pending,
        &slices.iter().map(|s| s.busy_time).collect::<Vec<_>>(),
    );
    tel.gauge_set("serving.makespan_s", summary.makespan_s);
    tel.gauge_set("serving.goodput_rps", summary.goodput_rps);
    tel.gauge_set("serving.mean_queue_depth", summary.mean_queue_depth);
    tel.gauge_set("serving.p99_ms", summary.p99_ms);
    ServingOutcome {
        summary,
        trace: log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_dnn::inception::inception_v3;

    #[test]
    fn simulation_drains_and_conserves_requests() {
        let model = inception_v3();
        let trace = TraceConfig::poisson(300.0, 120, 9);
        let out = simulate(&ServeConfig::default_two_slice(), &model, &trace);
        let s = &out.summary;
        assert_eq!(s.admitted, 120);
        assert_eq!(s.admitted, s.completed + s.dropped + s.pending);
        assert_eq!(s.pending, 0, "drained");
        assert!(s.p99_ms >= s.p50_ms);
        assert!(s.max_ms >= s.p99_ms);
        assert!(s.goodput_rps > 0.0);
        assert!(s.goodput_rps <= s.offered_load_rps + 1e-9);
    }

    #[test]
    fn identical_seeds_are_byte_identical_and_seeds_matter() {
        let model = inception_v3();
        let trace = TraceConfig::poisson(1200.0, 150, 21);
        let config = ServeConfig {
            max_batch: 16,
            ..ServeConfig::default_two_slice()
        };
        let a = simulate(&config, &model, &trace);
        let b = simulate(&config, &model, &trace);
        assert_eq!(a.trace.to_log(), b.trace.to_log());
        assert_eq!(a.summary, b.summary);
        let other = TraceConfig {
            seed: 22,
            ..trace.clone()
        };
        let c = simulate(&config, &model, &other);
        assert_ne!(a.trace.to_log(), c.trace.to_log());
    }

    #[test]
    fn tiny_queue_drops_under_overload() {
        let model = inception_v3();
        // 5000 rps >> capacity; queue of 8.
        let trace = TraceConfig::poisson(5000.0, 200, 5);
        let config = ServeConfig {
            queue_capacity: 8,
            slices: 1,
            ..ServeConfig::default_two_slice()
        };
        let out = simulate(&config, &model, &trace);
        let s = &out.summary;
        assert!(s.dropped > 0, "overload must shed load");
        assert_eq!(s.admitted, s.completed + s.dropped);
        assert!(s.max_queue_depth <= 8);
    }

    #[test]
    fn first_batch_per_slice_is_cold_the_rest_warm() {
        let model = inception_v3();
        let trace = TraceConfig::poisson(800.0, 100, 13);
        let out = simulate(&ServeConfig::default_two_slice(), &model, &trace);
        let mut cold_seen = [false; 2];
        for e in &out.trace.events {
            if let TraceEvent::Dispatch { slice, cold, .. } = e {
                if *cold {
                    assert!(!cold_seen[*slice], "only the first batch is cold");
                    cold_seen[*slice] = true;
                }
            }
        }
        assert!(cold_seen.iter().any(|&c| c), "someone paid the filter load");
    }

    #[test]
    fn latency_grows_with_offered_load() {
        // From underload to overload of the two-slice capacity (~800 rps
        // warm): every point conserves and drains its requests, goodput
        // never exceeds offered load, and mean latency never falls by more
        // than the 2% that percentile granularity can explain.
        let config = ServeConfig::default_two_slice();
        let cost = BatchCostModel::new(&config.system, &inception_v3());
        let sweep: Vec<(f64, ServingSummary)> = [100.0, 300.0, 600.0, 1200.0]
            .into_iter()
            .map(|rps| {
                let trace = TraceConfig::poisson(rps, 300, 2018);
                let out = simulate_traced(&config, &cost, &trace, &Telemetry::disabled());
                (rps, out.summary)
            })
            .collect();
        for (rps, s) in &sweep {
            assert!(s.conservation_holds(), "{rps} rps: conservation broken");
            assert_eq!(s.pending, 0, "{rps} rps: requests left pending");
            assert!(
                s.goodput_bounded(),
                "{rps} rps: goodput {:.1} exceeds offered load {:.1}",
                s.goodput_rps,
                s.offered_load_rps
            );
        }
        for pair in sweep.windows(2) {
            let ((lo_rps, lo), (hi_rps, hi)) = (&pair[0], &pair[1]);
            assert!(
                hi.mean_ms >= lo.mean_ms * 0.98,
                "mean latency fell from {:.2} ms at {lo_rps} rps to {:.2} ms at {hi_rps} rps",
                lo.mean_ms,
                hi.mean_ms
            );
        }
        // Goodput saturates below the overloaded offered load.
        let (_, overloaded) = sweep.last().expect("four load points");
        assert!(overloaded.goodput_rps < 1200.0);
    }

    #[test]
    fn traced_run_mirrors_every_log_event_and_changes_nothing() {
        let model = inception_v3();
        let config = ServeConfig::default_two_slice();
        let cost = BatchCostModel::new(&config.system, &model);
        let trace = TraceConfig::poisson(400.0, 80, 7);
        let plain = simulate(&config, &model, &trace);

        let tel = Telemetry::enabled(Level::Detail);
        let traced = simulate_traced(&config, &cost, &trace, &tel);
        // The sink is a pure observer: trajectory and summary unchanged.
        assert_eq!(plain.trace.to_log(), traced.trace.to_log());
        assert_eq!(plain.summary, traced.summary);
        // Exactly one telemetry record per logged trace event.
        assert_eq!(
            tel.record_count("serving.event"),
            traced.trace.events.len(),
            "serving.event records must mirror the trace log 1:1"
        );
        // Every dispatched request carries a queue-wait span; the run
        // drains, so dispatched == completed.
        assert_eq!(tel.span_count("serving.request"), traced.summary.completed);
        // Counters reconcile with the summary books exactly.
        assert_eq!(
            tel.counter("serving.arrivals") as usize,
            traced.summary.admitted
        );
        assert_eq!(
            tel.counter("serving.drops") as usize,
            traced.summary.dropped
        );
        assert_eq!(
            tel.counter("serving.completions") as usize,
            traced.summary.completed
        );
        assert_eq!(
            tel.counter("serving.dispatches") as usize,
            traced.summary.batches
        );
        let batch_hist = tel
            .histogram("serving.batch_size")
            .expect("batch histogram");
        assert_eq!(batch_hist.count() as usize, traced.summary.batches);
        // Summary gauges are stored verbatim.
        assert_eq!(
            tel.gauge("serving.makespan_s"),
            Some(traced.summary.makespan_s)
        );
        assert_eq!(tel.gauge("serving.p99_ms"), Some(traced.summary.p99_ms));
        // Batch-residency spans fold to the slices' total busy time (the
        // utilization numerator; tolerance covers the ratio round-trip).
        let busy: f64 = traced
            .summary
            .slice_utilization
            .iter()
            .map(|u| u * traced.summary.makespan_s)
            .sum();
        assert!((tel.sum_dur("serving.event") - busy).abs() <= busy * 1e-9 + 1e-12);

        // Summary level keeps the metrics but records no timeline.
        let quiet = Telemetry::enabled(Level::Summary);
        let again = simulate_traced(&config, &cost, &trace, &quiet);
        assert_eq!(again.summary, traced.summary);
        assert_eq!(quiet.total_spans(), 0);
        assert_eq!(quiet.total_instants(), 0);
        assert_eq!(
            quiet.counter("serving.arrivals") as usize,
            traced.summary.admitted
        );
    }

    #[test]
    fn utilization_and_batches_are_tracked_per_slice() {
        let model = inception_v3();
        let trace = TraceConfig::poisson(600.0, 150, 17);
        let out = simulate(&ServeConfig::default_two_slice(), &model, &trace);
        let s = &out.summary;
        assert_eq!(s.slice_utilization.len(), 2);
        for &u in &s.slice_utilization {
            assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {u}");
        }
        assert!(s.slice_utilization.iter().any(|&u| u > 0.0));
        assert!(s.mean_batch >= 1.0);
    }
}
