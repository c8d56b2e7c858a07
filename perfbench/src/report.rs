//! Metric catalogue, sample statistics and the one-line JSON result.
//!
//! Every metric the benchmark can print is declared here with its unit, so
//! the names in `BENCHMARK.json` and the names the program prints come from
//! one list (a unit test compares the two).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics of an untraced run (`--trace 0`), in print order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("host_ref_ms_p50", "ref_ms"),
    ("host_ref_ms_tail", "ref_ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "cycles"),
    ("paper_err_latency_pct", "%"),
    ("paper_err_throughput_pct", "%"),
    ("paper_err_energy_pct", "%"),
    ("paper_err_filter_load_pts", "pts"),
];

/// `nc-sram` micro-ops probed on one full 256-lane array; the flag says
/// whether the op charges array cycles (loader pokes/peeks charge none, so
/// they have no ns-per-cycle figure).
pub const SRAM_OPS: [(&str, bool); 7] = [
    ("mul8", true),
    ("add32", true),
    ("reduce", true),
    ("mul_skip_both", true),
    ("poke8", false),
    ("peek32", false),
    ("transpose8", true),
];

/// Top-level layers of `mini_inception`, which both functional workloads
/// execute.
pub const MINI_LAYERS: [&str; 5] = ["mini_a", "mini_r", "mini_c", "mini_gap", "mini_logits"];

/// Names of the executor's Detail-level `functional.op` spans (one per
/// in-cache pass kind).
pub const PASSES: [&str; 6] = [
    "mac-reduce",
    "ranging",
    "requantize",
    "code-requant",
    "pool-max",
    "pool-avg",
];

/// Batch sizes of the Figure 16 sweep.
pub const SWEEP_BATCHES: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Every per-layer metric of a traced run (`--trace 1`), in print order.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![("host.kernel_ms".into(), "ms")];
    for (op, charges_cycles) in SRAM_OPS {
        m.push((format!("sram.{op}.ns"), "ns"));
        if charges_cycles {
            m.push((format!("sram.{op}.ns_per_cycle"), "ns/cycle"));
        }
    }
    for layer in MINI_LAYERS {
        m.push((format!("functional.{layer}.host_ms"), "ms"));
        m.push((format!("functional.{layer}.sim_cycles"), "cycles"));
        m.push((format!("functional.{layer}.ns_per_cycle"), "ns/cycle"));
    }
    m.push(("functional.unattributed_ms".into(), "ms"));
    m.push(("functional.ns_per_cycle".into(), "ns/cycle"));
    for pass in PASSES {
        m.push((format!("functional.pass.{pass}.sim_cycles"), "cycles"));
    }
    m.push(("functional.skip_fraction".into(), "fraction"));
    m.push(("functional.input_skip_fraction".into(), "fraction"));
    m.push(("functional.detect_cycles".into(), "cycles"));
    m.push(("functional.pool_acquires".into(), "count"));
    m.push(("engine.busy_fraction".into(), "fraction"));
    m.push(("engine.imbalance".into(), "ratio"));
    m.push(("engine.shards".into(), "count"));
    m.push(("engine.shard_ms_max".into(), "ms"));
    m.push(("engine.speedup".into(), "x"));
    m.push(("verify.check_model_ms".into(), "ms"));
    m.push(("verify.diagnostics".into(), "count"));
    m.push(("mapping.plan_us".into(), "us"));
    m.push(("timing.time_inference_us".into(), "us"));
    m.push(("timing.latency_ms".into(), "ms"));
    for phase in neural_cache::Phase::ALL {
        m.push((format!("timing.share.{}", phase.label()), "%"));
    }
    m.push(("energy.total_j".into(), "J"));
    m.push(("energy.avg_power_w".into(), "W"));
    m.push(("batching.sweep_us".into(), "us"));
    for b in SWEEP_BATCHES {
        m.push((format!("batching.ips.b{b}"), "inf/s"));
    }
    m.push(("batching.max_ips".into(), "inf/s"));
    m.push(("serve.simulate_ms".into(), "ms"));
    m.push(("serve.p50_ms".into(), "ms"));
    m.push(("serve.p99_ms".into(), "ms"));
    m.push(("serve.goodput_rps".into(), "1/s"));
    m.push(("serve.drop_rate".into(), "fraction"));
    m.push(("telemetry.overhead_pct".into(), "%"));
    m
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for even lengths); `None` when
/// empty.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        f64::midpoint(v[n / 2 - 1], v[n / 2])
    })
}

/// The highest percentile of a sample that still has [`TAIL_BEYOND`]
/// samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile, `100 * (1 - TAIL_BEYOND / samples)`.
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Sample count it was taken from.
    pub samples: usize,
}

/// Picks the tail: with `n` samples the value of nearest rank `n - 10`,
/// i.e. the 11th largest, which is percentile `100 * (1 - 10 / n)`.
/// `None` when fewer than `TAIL_BEYOND + 1` samples exist.
#[must_use]
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        percentile: 100.0 * (1.0 - TAIL_BEYOND as f64 / n as f64),
        value: v[n - TAIL_BEYOND - 1],
        samples: n,
    })
}

/// Attempted/failed unit counts of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Units of work issued.
    pub attempted: u64,
    /// Units whose output check failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one unit and whether it passed its check.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// `failed / attempted` (0 before any attempt).
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Named metric values of one run.
pub type Metrics = BTreeMap<String, f64>;

/// Renders the result line: the `catalogue` metrics in order, each with its
/// unit. A catalogue metric missing from `values`, or a non-finite value,
/// is a benchmark bug: it is reported as 0 and marks the run incorrect.
#[must_use]
pub fn render_result(
    mut correct: bool,
    tally: Tally,
    catalogue: &[(String, &str)],
    values: &Metrics,
) -> String {
    let mut body = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = match values.get(name) {
            Some(v) if v.is_finite() => *v,
            _ => {
                eprintln!("nc-perfbench: metric {name} missing or not finite");
                correct = false;
                0.0
            }
        };
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.attempted, tally.failed
    )
}

/// [`END_TO_END`] as an owned catalogue.
#[must_use]
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).expect("enough samples");
        assert_eq!(t.samples, 1000);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);

        // Order-independent, and the percentile drops as samples shrink.
        let mut shuffled: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        shuffled.swap(3, 27);
        let t = tail(&shuffled).expect("enough samples");
        assert_eq!((t.value, t.percentile), (30.0, 75.0));
        assert_eq!(
            shuffled.iter().filter(|&&x| x > t.value).count(),
            TAIL_BEYOND
        );

        // Eleven samples is the least that leaves ten beyond the tail.
        assert!(tail(&[1.0; 10]).is_none());
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven).expect("eleven").value, 0.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        t.record(true);
        t.record(false);
        t.record(true);
        t.record(true);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.error_rate(), 0.25);
    }

    #[test]
    fn result_line_has_every_metric_with_its_unit() {
        let catalogue = end_to_end();
        let values: Metrics = catalogue
            .iter()
            .enumerate()
            .map(|(i, (n, _))| (n.clone(), 1.5 + i as f64))
            .collect();
        let line = render_result(
            true,
            Tally {
                attempted: 7,
                failed: 0,
            },
            &catalogue,
            &values,
        );
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, "));
        assert!(line.contains("\"host_ref_ms_p50\": {\"value\": 1.5, \"unit\": \"ref_ms\"}"));
        assert!(line.contains("\"paper_err_filter_load_pts\": {\"value\": 9.5, \"unit\": \"pts\"}"));
        assert!(!line.contains('\n'));

        // A missing metric is a benchmark bug: the run turns incorrect.
        let mut partial = values.clone();
        partial.remove("setup_s");
        let line = render_result(true, Tally::default(), &catalogue, &partial);
        assert!(line.starts_with("{\"correct\": false"));
    }

    /// The names and units the program prints are exactly the ones
    /// `BENCHMARK.json` declares, in both sections.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = json
                .find(&format!("\"{section}\""))
                .unwrap_or_else(|| panic!("section {section} missing"));
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|chunk| {
                    let name = chunk[..chunk.find('"').expect("name closes")].to_owned();
                    let unit_at = chunk.find("\"unit\": \"").expect("unit present") + 9;
                    let unit = &chunk[unit_at..];
                    (
                        name,
                        unit[..unit.find('"').expect("unit closes")].to_owned(),
                    )
                })
                .collect()
        };
        let own = |c: Vec<(String, &str)>| -> Vec<(String, String)> {
            c.into_iter().map(|(n, u)| (n, u.to_owned())).collect()
        };
        assert_eq!(declared("end_to_end"), own(end_to_end()));
        assert_eq!(declared("per_layer"), own(per_layer()));
        for (name, _) in declared("end_to_end").iter().chain(&declared("per_layer")) {
            assert!(name.len() <= 64, "{name} too long");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} has a character outside the allowed set"
            );
        }
    }
}
