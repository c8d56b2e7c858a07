//! The paper's four Inception v3 headline numbers (arXiv 1805.03718) and
//! the error of the simulated values against them.

use neural_cache::{EnergyReport, InferenceReport, Phase};

use crate::report::SWEEP_BATCHES;

/// How an anchor's error is formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// `100 * |simulated - paper| / paper`, in percent.
    RelativePct,
    /// `|simulated - paper|` of a value that is itself a percentage, in
    /// percentage points.
    Points,
}

/// One headline number of the paper.
#[derive(Debug, Clone, Copy)]
pub struct Anchor {
    /// End-to-end metric that reports the error.
    pub metric: &'static str,
    /// What is compared.
    pub what: &'static str,
    /// Figure or table of the paper the value comes from.
    pub source: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// Unit of `paper` and of the simulated value.
    pub unit: &'static str,
    /// Error formula.
    pub kind: ErrorKind,
}

/// The four anchors. Throughput is read at batch 256, the end of the
/// Figure 16 sweep, although the simulated sweep peaks earlier (see
/// `batching.max_ips`).
pub const ANCHORS: [Anchor; 4] = [
    Anchor {
        metric: "paper_err_latency_pct",
        what: "Inception v3 latency, batch 1",
        source: "Fig. 15",
        paper: 4.72,
        unit: "ms",
        kind: ErrorKind::RelativePct,
    },
    Anchor {
        metric: "paper_err_throughput_pct",
        what: "Inception v3 throughput, batch 256",
        source: "Fig. 16",
        paper: 604.0,
        unit: "inf/s",
        kind: ErrorKind::RelativePct,
    },
    Anchor {
        metric: "paper_err_energy_pct",
        what: "energy per inference",
        source: "Table III",
        paper: 0.246,
        unit: "J",
        kind: ErrorKind::RelativePct,
    },
    Anchor {
        metric: "paper_err_filter_load_pts",
        what: "filter-load share of latency",
        source: "Fig. 14",
        paper: 46.0,
        unit: "%",
        kind: ErrorKind::Points,
    },
];

impl Anchor {
    /// Error of `simulated` against the paper's value.
    #[must_use]
    pub fn error(&self, simulated: f64) -> f64 {
        match self.kind {
            ErrorKind::RelativePct => 100.0 * (simulated - self.paper).abs() / self.paper,
            ErrorKind::Points => (simulated - self.paper).abs(),
        }
    }
}

/// The simulated counterparts of [`ANCHORS`], in the same order.
#[must_use]
pub fn simulated(report: &InferenceReport, energy: &EnergyReport, sweep_ips: &[f64]) -> [f64; 4] {
    debug_assert_eq!(sweep_ips.len(), SWEEP_BATCHES.len());
    [
        report.total().as_millis_f64(),
        *sweep_ips.last().expect("non-empty sweep"),
        energy.total_j(),
        100.0 * report.breakdown().fraction(Phase::FilterLoad),
    ]
}

/// Renders the anchor table (simulated, paper and error side by side) plus
/// the sweep peak, for the human-readable part of the output.
#[must_use]
pub fn table(sim: &[f64; 4], sweep_ips: &[f64]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("paper anchors (arXiv 1805.03718):\n");
    for (a, &s) in ANCHORS.iter().zip(sim) {
        let formula = match a.kind {
            ErrorKind::RelativePct => "|sim - paper| / paper",
            ErrorKind::Points => "|sim - paper| (points)",
        };
        let _ = writeln!(
            out,
            "  {:<36} {:>9} simulated {:>10.4} {:<5} paper {:>8} -> {} = {:.3} [{formula}]",
            a.what,
            a.source,
            s,
            a.unit,
            a.paper,
            a.metric,
            a.error(s)
        );
    }
    let (peak_batch, peak_ips) =
        SWEEP_BATCHES
            .iter()
            .zip(sweep_ips)
            .fold(
                (0, 0.0f64),
                |best, (&b, &ips)| if ips > best.1 { (b, ips) } else { best },
            );
    let _ = writeln!(
        out,
        "  Fig. 16 sweep peaks at batch {peak_batch} ({peak_ips:.1} inf/s); the anchor reads batch 256"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_follow_their_formulas() {
        let latency = &ANCHORS[0];
        assert!((latency.error(4.72) - 0.0).abs() < 1e-12);
        assert!((latency.error(4.248) - 10.0).abs() < 1e-9);
        assert!((latency.error(5.192) - 10.0).abs() < 1e-9);
        let share = &ANCHORS[3];
        assert!((share.error(50.7) - 4.7).abs() < 1e-9);
        assert!((share.error(41.3) - 4.7).abs() < 1e-9);
    }
}
