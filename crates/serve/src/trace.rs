//! Request arrival traces: open-loop Poisson arrivals generated from an
//! explicitly seeded RNG, so every simulation is reproducible bit-for-bit,
//! and the traffic-class mix each request's class is drawn from.

use nc_geometry::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One traffic class of a serving workload mix: a share of the request
/// stream with an admission priority (lower = served first) and a
/// latency-SLO scale relative to the mix's base SLO (interactive traffic
/// gets a tight budget, best-effort a loose one).
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficClass {
    /// Share of the request stream in `[0, 1]`; a mix's shares sum to 1.
    pub share: f64,
    /// Admission priority: lower values dequeue first.
    pub priority: u8,
    /// Latency-SLO multiplier relative to the mix's base SLO.
    pub slo_scale: f64,
}

/// The default two-class serving mix: 70% latency-sensitive interactive
/// requests served ahead of 30% best-effort batch requests with a 4x looser
/// latency budget.
#[must_use]
pub fn default_traffic_mix() -> Vec<TrafficClass> {
    vec![
        TrafficClass {
            share: 0.7,
            priority: 0,
            slo_scale: 1.0,
        },
        TrafficClass {
            share: 0.3,
            priority: 1,
            slo_scale: 4.0,
        },
    ]
}

/// Draws a class index from `mix` shares using one uniform draw in
/// `[0, 1)` (requests map deterministically from the trace RNG stream).
/// Falls back to the last class when rounding leaves a sliver.
#[must_use]
pub fn draw_class(mix: &[TrafficClass], uniform: f64) -> usize {
    let mut acc = 0.0;
    for (i, class) in mix.iter().enumerate() {
        acc += class.share;
        if uniform < acc {
            return i;
        }
    }
    mix.len().saturating_sub(1)
}

/// One inference request presented to the admission queue.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Issue-order id (unique, dense from 0).
    pub id: u64,
    /// Arrival time at the admission queue.
    pub arrival: SimTime,
    /// Traffic-class index into the trace's [`TrafficClass`] mix.
    pub class: u8,
}

/// A fully specified Poisson trace: arrival rate, request budget, seed, and
/// the traffic-class mix each request's class is drawn from.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Mean arrival rate in requests per second.
    pub rate_rps: f64,
    /// Total requests the trace issues.
    pub requests: usize,
    /// RNG seed; identical seeds give identical traces.
    pub seed: u64,
    /// Traffic-class mix (shares sum to 1; priorities order the queue).
    pub mix: Vec<TrafficClass>,
}

impl TraceConfig {
    /// Poisson trace with the default traffic mix.
    #[must_use]
    pub fn poisson(rate_rps: f64, requests: usize, seed: u64) -> Self {
        TraceConfig {
            rate_rps,
            requests,
            seed,
            mix: default_traffic_mix(),
        }
    }

    /// Every arrival of the trace, sorted by time: for each request, one
    /// uniform draw gives its exponential inter-arrival time and the next
    /// its traffic class.
    ///
    /// # Panics
    ///
    /// Panics on an empty trace (`requests == 0`), an empty mix, or a
    /// non-positive rate.
    #[must_use]
    pub fn arrivals(&self) -> Vec<Request> {
        assert!(self.requests > 0, "trace must issue at least one request");
        assert!(!self.mix.is_empty(), "traffic mix must not be empty");
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut t = 0.0f64;
        (0..self.requests as u64)
            .map(|id| {
                t += exp_from_uniform(rng.gen_range(0.0..1.0), self.rate_rps);
                let class = draw_class(&self.mix, rng.gen_range(0.0..1.0)) as u8;
                Request {
                    id,
                    arrival: SimTime::from_secs(t),
                    class,
                }
            })
            .collect()
    }
}

/// Maps one uniform draw to an exponential inter-event time via inverse
/// transform sampling, guarding the logarithm's pole: a draw at (or
/// rounded to) exactly 1.0 would take `ln(0) = -inf` and produce an
/// **infinite** inter-arrival time, pushing every later arrival past any
/// horizon. The survival term is clamped away from zero, capping the draw
/// at a large-but-finite multiple of the mean (`-ln(MIN_POSITIVE)/rate`
/// ~ 708 means).
fn exp_from_uniform(u: f64, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive");
    let survival = (1.0 - u).max(f64::MIN_POSITIVE);
    -survival.ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_traces_are_seeded_and_sorted() {
        let config = TraceConfig::poisson(500.0, 200, 42);
        let a = config.arrivals();
        let b = config.arrivals();
        assert_eq!(a, b, "same seed, same trace");
        assert_eq!(a.len(), 200);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a.windows(2).all(|w| w[0].id < w[1].id));
        let c = TraceConfig::poisson(500.0, 200, 43).arrivals();
        assert_ne!(a, c, "different seed, different trace");
        // Mean inter-arrival within 20% of 1/rate over 200 draws.
        let span = a.last().unwrap().arrival.as_secs_f64();
        let measured = 200.0 / span;
        assert!((measured / 500.0 - 1.0).abs() < 0.2, "rate {measured:.1}");
    }

    #[test]
    fn classes_follow_the_mix() {
        let config = TraceConfig::poisson(1000.0, 2000, 5);
        let reqs = config.arrivals();
        let interactive = reqs.iter().filter(|r| r.class == 0).count();
        let share = interactive as f64 / reqs.len() as f64;
        assert!((share - 0.7).abs() < 0.05, "interactive share {share:.2}");
        assert!(reqs.iter().all(|r| (r.class as usize) < config.mix.len()));
    }

    #[test]
    fn traffic_mix_shares_sum_to_one_and_draw_covers_classes() {
        let mix = default_traffic_mix();
        let total: f64 = mix.iter().map(|c| c.share).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(mix.windows(2).all(|w| w[0].priority <= w[1].priority));
        assert_eq!(draw_class(&mix, 0.0), 0);
        assert_eq!(draw_class(&mix, 0.699), 0);
        assert_eq!(draw_class(&mix, 0.701), 1);
        assert_eq!(draw_class(&mix, 0.9999), 1);
        // Degenerate draws clamp to the last class.
        assert_eq!(draw_class(&mix, 1.0), 1);
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn empty_traces_are_rejected() {
        let _ = TraceConfig::poisson(10.0, 0, 1).arrivals();
    }

    #[test]
    fn exp_draw_survives_a_boundary_uniform() {
        // Regression: a uniform draw at (or rounded to) exactly 1.0 hits
        // ln(0) = -inf, an infinite inter-arrival time. The clamp caps it
        // at a finite multiple of the mean.
        let worst = exp_from_uniform(1.0, 100.0);
        assert!(worst.is_finite(), "boundary draw must stay finite");
        assert!(worst > 0.0);
        // Even a u past 1.0 (float noise upstream) stays finite.
        assert!(exp_from_uniform(1.0 + 1e-16, 100.0).is_finite());
        // The clamp sits far beyond any plausible draw: ~708 means.
        assert!(worst < 10.0, "708 means at rate 100 is ~7.08 s");
        // Ordinary draws are untouched by the guard.
        assert!((exp_from_uniform(0.5, 2.0) - 0.5f64.ln().abs() / 2.0).abs() < 1e-12);
        assert_eq!(exp_from_uniform(0.0, 5.0), 0.0, "u = 0 is a zero wait");
    }
}
