//! The serving benchmark: drives the `nc-serve` discrete-event simulator
//! over an offered-load sweep and a trace/policy matrix, rendering the
//! `serving_sim` / `run_all` serving table and enforcing its sanity gate
//! (request conservation, latency monotone in offered load, goodput bounded
//! by offered load).

use std::fmt::Write as _;

use nc_dnn::inception::inception_v3;
use nc_geometry::SimTime;
use nc_serve::{simulate_with_cost, BatchPolicy, ServeConfig, ServingSummary, TraceConfig};
use neural_cache::{BatchCostModel, SystemConfig};

/// Slices the serving bench schedules onto (>= 2 per the acceptance gate).
pub const SLICES: usize = 2;

/// Requests per simulated point: enough for stable percentiles, small
/// enough that the whole bench stays sub-second.
pub const REQUESTS_PER_POINT: usize = 300;

/// Offered-load sweep (requests/second) for the Poisson + SLO-adaptive
/// monotonicity gate: well-separated points from underload to overload of
/// the two-slice capacity (~800 rps warm).
pub const LOAD_SWEEP_RPS: [f64; 4] = [100.0, 300.0, 600.0, 1200.0];

/// One simulated serving point.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingPoint {
    /// Trace kind label.
    pub trace: &'static str,
    /// Batch-policy label.
    pub policy: &'static str,
    /// Nominal offered load (requests/second); 0 for closed-loop traces
    /// (their rate emerges from service times).
    pub nominal_rps: f64,
    /// Simulation summary.
    pub summary: ServingSummary,
}

/// The whole serving bench: the monotonicity sweep and the trace/policy
/// matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingBench {
    /// Poisson + SLO-adaptive points at [`LOAD_SWEEP_RPS`], in load order.
    pub load_sweep: Vec<ServingPoint>,
    /// Bursty and closed-loop traces through the other policies.
    pub matrix: Vec<ServingPoint>,
}

impl ServingBench {
    /// Every gate violation, empty when the section is sane.
    #[must_use]
    pub fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for p in self.load_sweep.iter().chain(&self.matrix) {
            let s = &p.summary;
            if !s.conservation_holds() {
                failures.push(format!(
                    "{}/{}: conservation broken (admitted {} != completed {} + dropped {} + pending {})",
                    p.trace, p.policy, s.admitted, s.completed, s.dropped, s.pending
                ));
            }
            if s.pending != 0 {
                failures.push(format!(
                    "{}/{}: {} requests left pending after drain",
                    p.trace, p.policy, s.pending
                ));
            }
            if !s.goodput_bounded() {
                failures.push(format!(
                    "{}/{}: goodput {:.1} rps exceeds offered load {:.1} rps",
                    p.trace, p.policy, s.goodput_rps, s.offered_load_rps
                ));
            }
        }
        // Latency must grow with offered load on the work-conserving
        // adaptive sweep (2% slack absorbs percentile granularity).
        for pair in self.load_sweep.windows(2) {
            let (lo, hi) = (&pair[0].summary, &pair[1].summary);
            if hi.mean_ms < lo.mean_ms * 0.98 {
                failures.push(format!(
                    "latency not monotone in load: mean {:.2} ms at {:.0} rps vs {:.2} ms at {:.0} rps",
                    lo.mean_ms, pair[0].nominal_rps, hi.mean_ms, pair[1].nominal_rps
                ));
            }
        }
        failures
    }

    /// The bench gate: no violations.
    #[must_use]
    pub fn verified(&self) -> bool {
        self.gate_failures().is_empty()
    }
}

fn serve_config(policy: BatchPolicy) -> ServeConfig {
    ServeConfig {
        system: SystemConfig::xeon_e5_2697_v3(),
        slices: SLICES,
        policy,
        queue_capacity: 512,
        slo: SimTime::from_millis(100.0),
    }
}

fn adaptive() -> BatchPolicy {
    BatchPolicy::SloAdaptive { max_batch: 32 }
}

/// Runs the full serving bench.
#[must_use]
pub fn run_serving_bench() -> ServingBench {
    // Every sweep/matrix point shares one plan (same system, same model).
    let cost = BatchCostModel::new(&SystemConfig::xeon_e5_2697_v3(), &inception_v3());

    // Offered-load sweep: Poisson through the work-conserving SLO-adaptive
    // policy (the latency-monotonicity gate rides on this sweep).
    let load_sweep: Vec<ServingPoint> = LOAD_SWEEP_RPS
        .iter()
        .map(|&rps| {
            let trace = TraceConfig::poisson(rps, REQUESTS_PER_POINT, 2018);
            let out = simulate_with_cost(&serve_config(adaptive()), &cost, &trace);
            ServingPoint {
                trace: "poisson",
                policy: adaptive().label(),
                nominal_rps: rps,
                summary: out.summary,
            }
        })
        .collect();

    // Trace/policy matrix: bursty and closed-loop arrivals through the
    // other two policies.
    let mut matrix = Vec::new();
    let bursty = TraceConfig::bursty(100.0, 1500.0, 0.05, REQUESTS_PER_POINT, 2018);
    for policy in [
        BatchPolicy::Fixed { size: 8 },
        BatchPolicy::MaxWait {
            max_batch: 16,
            max_wait: SimTime::from_millis(10.0),
        },
    ] {
        let out = simulate_with_cost(&serve_config(policy), &cost, &bursty);
        matrix.push(ServingPoint {
            trace: "bursty",
            policy: policy.label(),
            nominal_rps: bursty.nominal_rate_rps().unwrap_or(0.0),
            summary: out.summary,
        });
    }
    let closed = TraceConfig::closed_loop(16, 0.02, REQUESTS_PER_POINT, 2018);
    for policy in [
        BatchPolicy::MaxWait {
            max_batch: 16,
            max_wait: SimTime::from_millis(10.0),
        },
        adaptive(),
    ] {
        let out = simulate_with_cost(&serve_config(policy), &cost, &closed);
        matrix.push(ServingPoint {
            trace: "closed-loop",
            policy: policy.label(),
            nominal_rps: 0.0,
            summary: out.summary,
        });
    }

    ServingBench { load_sweep, matrix }
}

/// Renders the bench as human-readable text (the `serving_sim` binary and
/// `run_all` section).
#[must_use]
pub fn render_text(bench: &ServingBench) -> String {
    let mut out = String::from(
        "Serving under load (nc-serve discrete-event simulator, Inception v3, 2 slices)\n",
    );
    let _ = writeln!(
        out,
        "{:<12} {:<13} {:>9} {:>9} {:>8} {:>8} {:>8} {:>7} {:>6} {:>6}",
        "trace",
        "policy",
        "offered",
        "goodput",
        "p50/ms",
        "p99/ms",
        "mean/ms",
        "viol%",
        "drop",
        "batch"
    );
    for p in bench.load_sweep.iter().chain(&bench.matrix) {
        let s = &p.summary;
        let offered = if p.nominal_rps > 0.0 {
            format!("{:.0}", p.nominal_rps)
        } else {
            format!("({:.0})", s.offered_load_rps)
        };
        let _ = writeln!(
            out,
            "{:<12} {:<13} {:>9} {:>9.1} {:>8.2} {:>8.2} {:>8.2} {:>7.1} {:>6} {:>6.1}",
            p.trace,
            p.policy,
            offered,
            s.goodput_rps,
            s.p50_ms,
            s.p99_ms,
            s.mean_ms,
            100.0 * s.slo_violation_rate,
            s.dropped,
            s.mean_batch
        );
    }
    let _ = writeln!(
        out,
        "sanity gate: {}",
        if bench.verified() { "ok" } else { "FAILED" }
    );
    for f in bench.gate_failures() {
        let _ = writeln!(out, "GATE FAILURE: {f}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_bench_verifies_and_renders() {
        let bench = run_serving_bench();
        assert_eq!(bench.load_sweep.len(), LOAD_SWEEP_RPS.len());
        assert_eq!(bench.matrix.len(), 4);
        assert!(
            bench.verified(),
            "gate failures: {:?}",
            bench.gate_failures()
        );
        // Overload shows up as rising latency across the sweep ends.
        let first = &bench.load_sweep.first().unwrap().summary;
        let last = &bench.load_sweep.last().unwrap().summary;
        assert!(last.mean_ms > first.mean_ms, "load must cost latency");
        // Goodput saturates below the overloaded offered load.
        assert!(last.goodput_rps < 1200.0);

        let text = render_text(&bench);
        assert!(text.contains("Serving under load"));
        assert!(text.contains("slo-adaptive"));
        assert!(text.contains("closed-loop"));
        assert!(text.contains("sanity gate: ok"));
    }

    #[test]
    fn gate_catches_a_broken_sweep() {
        let mut bench = run_serving_bench();
        // Corrupt the sweep: swap the extreme points so latency "falls".
        let n = bench.load_sweep.len();
        bench.load_sweep.swap(0, n - 1);
        assert!(!bench.verified(), "swapped sweep must trip the gate");
        assert!(bench
            .gate_failures()
            .iter()
            .any(|f| f.contains("not monotone")));
        // And a conservation break trips it too.
        let mut bench2 = run_serving_bench();
        bench2.matrix[0].summary.completed += 1;
        assert!(!bench2.verified());
    }
}
