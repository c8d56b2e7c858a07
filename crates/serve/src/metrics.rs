//! Serving metrics: latency percentiles, queue-depth statistics, goodput
//! vs offered load, SLO violation rates, and the conservation invariants
//! the simulator's tests check.

use nc_geometry::SimTime;
use nc_telemetry::TimeWeightedHistogram;

use crate::sim::ServeConfig;
use crate::trace::{Request, TraceConfig, TrafficClass};

/// One completed request as seen by the collector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Traffic-class index.
    pub class: u8,
    /// Admission-to-completion latency.
    pub latency: SimTime,
}

/// Aggregated result of one serving simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingSummary {
    /// Requests presented at the admission queue.
    pub admitted: usize,
    /// Requests that completed.
    pub completed: usize,
    /// Requests dropped at admission (queue full).
    pub dropped: usize,
    /// Requests neither completed nor dropped when the simulation ended
    /// (0 for drained runs; the conservation gate checks
    /// `admitted == completed + dropped + pending`).
    pub pending: usize,
    /// Time of the last event (seconds from simulation start).
    pub makespan_s: f64,
    /// Offered load: admitted requests over the arrival span from t = 0.
    pub offered_load_rps: f64,
    /// Goodput: completed requests over the makespan. Never exceeds the
    /// offered load (completions trail arrivals).
    pub goodput_rps: f64,
    /// Mean completion latency, milliseconds.
    pub mean_ms: f64,
    /// Median completion latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile completion latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile completion latency, milliseconds.
    pub p99_ms: f64,
    /// Worst completion latency, milliseconds.
    pub max_ms: f64,
    /// Completions whose latency exceeded their class-scaled SLO.
    pub slo_violations: usize,
    /// `slo_violations / completed` (0 when nothing completed).
    pub slo_violation_rate: f64,
    /// Time-weighted mean admission-queue depth.
    pub mean_queue_depth: f64,
    /// Peak admission-queue depth.
    pub max_queue_depth: usize,
    /// Time-weighted admission-queue depth distribution: every constant-
    /// depth span contributes its depth weighted by its duration, so the
    /// histogram's weighted mean over the makespan reproduces
    /// [`ServingSummary::mean_queue_depth`] bit-for-bit (the weighted sum
    /// is the same fold, in the same order, as the depth integral).
    pub queue_depth_hist: TimeWeightedHistogram,
    /// Batches dispatched.
    pub batches: usize,
    /// Mean dispatched batch size.
    pub mean_batch: f64,
    /// Busy fraction of each slice over the makespan.
    pub slice_utilization: Vec<f64>,
    /// Completions per traffic class.
    pub per_class_completed: Vec<usize>,
}

impl ServingSummary {
    /// The request-conservation invariant.
    #[must_use]
    pub fn conservation_holds(&self) -> bool {
        self.admitted == self.completed + self.dropped + self.pending
    }

    /// The goodput bound (goodput can never exceed offered load; tolerance
    /// covers the division).
    #[must_use]
    pub fn goodput_bounded(&self) -> bool {
        self.goodput_rps <= self.offered_load_rps * (1.0 + 1e-9) + 1e-9
    }
}

/// Streaming metrics collector the simulator feeds.
#[derive(Debug)]
pub struct MetricsCollector {
    mix: Vec<TrafficClass>,
    base_slo: SimTime,
    admitted: usize,
    dropped: usize,
    latencies_ms: Vec<f64>,
    per_class_completed: Vec<usize>,
    slo_violations: usize,
    last_arrival: SimTime,
    depth_integral: f64,
    depth_hist: TimeWeightedHistogram,
    max_queue_depth: usize,
    batches: usize,
    batched_requests: usize,
}

impl MetricsCollector {
    /// New collector for one simulation.
    #[must_use]
    pub fn new(config: &ServeConfig, trace: &TraceConfig) -> Self {
        MetricsCollector {
            mix: trace.mix.clone(),
            base_slo: config.slo,
            admitted: 0,
            dropped: 0,
            latencies_ms: Vec::with_capacity(trace.requests),
            per_class_completed: vec![0; trace.mix.len()],
            slo_violations: 0,
            last_arrival: SimTime::ZERO,
            depth_integral: 0.0,
            depth_hist: TimeWeightedHistogram::new(),
            max_queue_depth: 0,
            batches: 0,
            batched_requests: 0,
        }
    }

    /// Records a request reaching the admission queue.
    pub fn on_arrival(&mut self, r: &Request) {
        self.admitted += 1;
        self.last_arrival = self.last_arrival.max(r.arrival);
    }

    /// Records an admission drop.
    pub fn on_drop(&mut self, _r: &Request) {
        self.dropped += 1;
    }

    /// Records a dispatched batch of `n` requests.
    pub fn on_dispatch(&mut self, n: usize) {
        self.batches += 1;
        self.batched_requests += n;
    }

    /// Records one completed request.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite latency: a NaN would silently poison the
    /// percentile ranks downstream (`total_cmp` sorts NaN above every real
    /// latency, so p99/max would report NaN-adjacent garbage), so it is
    /// rejected at the door.
    pub fn on_completion(&mut self, c: Completion) {
        let latency_ms = c.latency.as_millis_f64();
        assert!(
            latency_ms.is_finite(),
            "non-finite completion latency {latency_ms} for class {}",
            c.class
        );
        self.latencies_ms.push(latency_ms);
        if let Some(count) = self.per_class_completed.get_mut(c.class as usize) {
            *count += 1;
        }
        let scale = self
            .mix
            .get(c.class as usize)
            .map_or(1.0, |class| class.slo_scale);
        if c.latency.as_secs_f64() > self.base_slo.as_secs_f64() * scale {
            self.slo_violations += 1;
        }
    }

    /// Accumulates the queue-depth integral over a span at constant depth.
    ///
    /// The same `(depth, span)` sample feeds both the scalar integral and
    /// the time-weighted histogram — identical product, identical addition
    /// order — which is what keeps the histogram's weighted sum equal to
    /// the integral bit-for-bit rather than merely close.
    pub fn observe_queue_depth(&mut self, depth: usize, span: SimTime) {
        self.depth_integral += depth as f64 * span.as_secs_f64();
        self.depth_hist.observe(depth as f64, span.as_secs_f64());
        self.max_queue_depth = self.max_queue_depth.max(depth);
    }

    /// Finalizes the summary at simulation end. `pending` is the
    /// simulator's **measured** residual work (queued + in-flight) rather
    /// than a value derived from the other counters, so
    /// [`ServingSummary::conservation_holds`] can genuinely fail when a
    /// request is lost.
    #[must_use]
    pub fn finish(
        self,
        makespan: SimTime,
        pending: usize,
        slice_busy: &[SimTime],
    ) -> ServingSummary {
        debug_assert_eq!(
            self.depth_hist.weighted_sum(),
            self.depth_integral,
            "histogram weighted sum must reproduce the depth integral bit-for-bit"
        );
        let completed = self.latencies_ms.len();
        let mut sorted = self.latencies_ms;
        sorted.sort_by(f64::total_cmp);
        let makespan_s = makespan.as_secs_f64();
        let arrival_span = self.last_arrival.as_secs_f64();
        ServingSummary {
            admitted: self.admitted,
            completed,
            dropped: self.dropped,
            pending,
            makespan_s,
            offered_load_rps: if arrival_span > 0.0 {
                self.admitted as f64 / arrival_span
            } else {
                0.0
            },
            goodput_rps: if makespan_s > 0.0 {
                completed as f64 / makespan_s
            } else {
                0.0
            },
            mean_ms: if completed == 0 {
                0.0
            } else {
                sorted.iter().sum::<f64>() / completed as f64
            },
            p50_ms: percentile(&sorted, 0.50),
            p95_ms: percentile(&sorted, 0.95),
            p99_ms: percentile(&sorted, 0.99),
            max_ms: sorted.last().copied().unwrap_or(0.0),
            slo_violations: self.slo_violations,
            slo_violation_rate: if completed == 0 {
                0.0
            } else {
                self.slo_violations as f64 / completed as f64
            },
            // The queue is provably empty after the last event (a
            // non-empty queue would schedule more work), so the integral
            // over the whole horizon divided by the makespan is exact.
            mean_queue_depth: if makespan_s > 0.0 {
                self.depth_integral / makespan_s
            } else {
                0.0
            },
            max_queue_depth: self.max_queue_depth,
            queue_depth_hist: self.depth_hist,
            batches: self.batches,
            mean_batch: if self.batches == 0 {
                0.0
            } else {
                self.batched_requests as f64 / self.batches as f64
            },
            slice_utilization: slice_busy
                .iter()
                .map(|b| {
                    if makespan_s > 0.0 {
                        b.as_secs_f64() / makespan_s
                    } else {
                        0.0
                    }
                })
                .collect(),
            per_class_completed: self.per_class_completed,
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// element such that at least `q` of the sample is `<=` it, i.e. element
/// `ceil(q * n)` (1-indexed), clamped into `[1, n]`.
///
/// Edge behavior is **defined**, not incidental:
///
/// - `q <= 0.0` returns the sample **minimum** (rank 0 clamps to 1 — the
///   nearest-rank convention's degenerate "0th percentile");
/// - `q >= 1.0` returns the sample **maximum**;
/// - a single-sample input returns that sample for every `q` (every rank
///   clamps to 1);
/// - an empty sample returns `0.0` (no latency to report);
/// - the sample must be NaN-free: NaNs are rejected upstream by
///   [`MetricsCollector::on_completion`] before `sort_by(total_cmp)` ever
///   sees them (`total_cmp` would sort NaNs to the top and corrupt the
///   high percentiles), and this function asserts the invariant in every
///   build profile.
///
/// # Panics
///
/// Panics if `sorted` contains a NaN or `q` is NaN.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    assert!(
        sorted.iter().all(|l| !l.is_nan()),
        "percentile input contains NaN"
    );
    assert!(!q.is_nan(), "percentile quantile is NaN");
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_edges_are_defined() {
        // q = 0 is the minimum by definition, not an accident of clamping;
        // q past the ends clamps; a single sample answers every q.
        let v = [3.0, 9.0, 27.0];
        assert_eq!(percentile(&v, 0.0), 3.0, "0th percentile = minimum");
        assert_eq!(percentile(&v, -0.5), 3.0, "q below 0 clamps");
        assert_eq!(percentile(&v, 1.5), 27.0, "q above 1 clamps");
        assert_eq!(percentile(&v, 1.0 / 3.0), 3.0, "exact rank boundary");
        assert_eq!(percentile(&v, 0.34), 9.0, "just past the boundary");
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[42.0], q), 42.0, "single sample at q={q}");
        }
        assert_eq!(percentile(&[], 0.0), 0.0);
        assert_eq!(percentile(&[], 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "contains NaN")]
    fn percentile_rejects_nan_samples() {
        // NaN latencies are structurally excluded (SimTime's constructors
        // reject non-finite values, and on_completion asserts finiteness as
        // a second line of defense), but percentile itself still refuses a
        // poisoned sample instead of silently reporting NaN-adjacent ranks.
        let _ = percentile(&[1.0, f64::NAN, 3.0], 0.99);
    }

    #[test]
    fn collector_tracks_conservation_and_depth() {
        let config = ServeConfig::default_two_slice();
        let trace = TraceConfig::poisson(100.0, 10, 1);
        let mut m = MetricsCollector::new(&config, &trace);
        for id in 0..10u64 {
            m.on_arrival(&Request {
                id,
                arrival: SimTime::from_millis(id as f64),
                class: 0,
            });
        }
        m.observe_queue_depth(4, SimTime::from_millis(10.0));
        m.observe_queue_depth(2, SimTime::from_millis(10.0));
        m.on_dispatch(6);
        for _ in 0..6 {
            m.on_completion(Completion {
                class: 0,
                latency: SimTime::from_millis(20.0),
            });
        }
        m.on_drop(&Request {
            id: 99,
            arrival: SimTime::from_millis(1.0),
            class: 0,
        });
        let s = m.finish(SimTime::from_millis(50.0), 3, &[SimTime::from_millis(25.0)]);
        assert_eq!(s.admitted, 10);
        assert_eq!(s.completed, 6);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.pending, 3);
        assert!(s.conservation_holds());
        // A lost request is caught: measured pending disagrees with the
        // counter books.
        let broken = ServingSummary {
            pending: 2,
            ..s.clone()
        };
        assert!(!broken.conservation_holds());
        // Depth integral (4*10ms + 2*10ms = 60 depth-ms) over the 50 ms
        // makespan.
        assert!((s.mean_queue_depth - 1.2).abs() < 1e-12);
        assert_eq!(s.max_queue_depth, 4);
        assert!((s.mean_batch - 6.0).abs() < 1e-12);
        assert!((s.slice_utilization[0] - 0.5).abs() < 1e-12);
        assert!(s.goodput_bounded());
    }

    #[test]
    fn queue_depth_histogram_reconciles_with_the_integral_mean() {
        // Satellite regression: the time-weighted histogram must reproduce
        // the pre-existing scalar integral exactly — weighted samples, not
        // point samples, and the identical fold order.
        let config = ServeConfig::default_two_slice();
        let trace = TraceConfig::poisson(100.0, 10, 1);
        let mut m = MetricsCollector::new(&config, &trace);
        let samples = [
            (4usize, SimTime::from_millis(370.0)),
            (0, SimTime::from_secs(1.1)),
            (2, SimTime::from_millis(10.0)),
            (7, SimTime::from_millis(3.0)),
            (4, SimTime::from_secs(2.0)),
        ];
        let mut integral = 0.0f64;
        for (depth, span) in samples {
            m.observe_queue_depth(depth, span);
            integral += depth as f64 * span.as_secs_f64();
        }
        let makespan = SimTime::from_secs(5.0);
        let s = m.finish(makespan, 0, &[]);
        let h = &s.queue_depth_hist;
        // Bit-exact, not approximate: same products, same addition order.
        assert_eq!(h.weighted_sum(), integral);
        assert_eq!(h.weighted_mean(s.makespan_s), s.mean_queue_depth);
        assert_eq!(h.observations(), samples.len() as u64);
        assert_eq!(
            h.total_weight(),
            samples.iter().map(|(_, w)| w.as_secs_f64()).sum::<f64>()
        );
        assert_eq!(h.max_value(), 7.0);
        assert_eq!(s.max_queue_depth, 7);
        // The zero-depth span carries weight but no depth: it dilutes the
        // mean (a point-sample histogram would miss this entirely).
        assert!(s.mean_queue_depth < 4.0 / 5.0 * 4.0);
    }

    #[test]
    fn slo_violations_scale_per_class() {
        let mut config = ServeConfig::default_two_slice();
        config.slo = SimTime::from_millis(10.0);
        let trace = TraceConfig::poisson(100.0, 4, 1);
        let mut m = MetricsCollector::new(&config, &trace);
        // Class 0 (scale 1.0): 15 ms violates. Class 1 (scale 4.0): 15 ms
        // is fine, 50 ms violates.
        for (class, ms) in [(0u8, 15.0), (0, 5.0), (1, 15.0), (1, 50.0)] {
            m.on_completion(Completion {
                class,
                latency: SimTime::from_millis(ms),
            });
        }
        let s = m.finish(SimTime::from_millis(100.0), 0, &[]);
        assert_eq!(s.slo_violations, 2);
        assert!((s.slo_violation_rate - 0.5).abs() < 1e-12);
        assert_eq!(s.per_class_completed, vec![2, 2]);
    }
}
