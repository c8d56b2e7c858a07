//! The paper's published numbers (arXiv 1805.03718, Sections I-VI) that
//! the artifacts cite: one table of anchors, each compared with a measured
//! value under a tolerance, and the CPU/GPU measurements the comparisons
//! divide by.
//!
//! Each tolerance is the anchor's deviation when the table was written,
//! rounded up to two significant figures, so a gate on it catches drift
//! and a fidelity change tightens it. An anchor is [`Kind::Fitted`] when a
//! model constant was tuned until it came out: its deviation is that
//! fit's residual, not evidence of agreement.

use Kind::{Exact, Fitted, Predicted};

/// How an anchor's measured value relates to the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A count the model reproduces exactly (tolerance 0).
    Exact,
    /// An output no model constant was tuned to.
    Predicted,
    /// An output the named constant was tuned to hit.
    Fitted(&'static str),
}

/// One published value and how far the measured one may drift from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Anchor {
    /// What is compared.
    pub name: &'static str,
    /// Section, figure or table of the paper the value comes from.
    pub source: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// Unit of the paper's and the measured value.
    pub unit: &'static str,
    /// Largest allowed `|measured - paper|`, in `unit`.
    pub tolerance: f64,
    /// Exact, predicted or fitted.
    pub kind: Kind,
}

impl Anchor {
    /// `|measured - paper|`, in the anchor's unit.
    #[must_use]
    pub fn deviation(&self, measured: f64) -> f64 {
        (measured - self.paper).abs()
    }

    /// Whether `measured` lies within the tolerance.
    #[must_use]
    pub fn holds(&self, measured: f64) -> bool {
        self.deviation(measured) <= self.tolerance
    }
}

const fn row(
    name: &'static str,
    source: &'static str,
    paper: f64,
    unit: &'static str,
    tolerance: f64,
    kind: Kind,
) -> Anchor {
    Anchor {
        name,
        source,
        paper,
        unit,
        tolerance,
        kind,
    }
}

/// Every anchor, one row each: name, source, paper value, unit, tolerance
/// and kind. The Fig. 14 shares are named `"<phase label> share"`.
#[rustfmt::skip]
pub const ANCHORS: [Anchor; 24] = [
    row("bit-serial ALU slots",       "Sec. I",      1_146_880.0, "",       0.0,    Exact),
    row("4-bit add cycles",           "Fig. 4",      5.0,         "cycles", 0.0,    Exact),
    row("2-bit multiply cycles",      "Fig. 6",      12.0,        "cycles", 0.0,    Exact),
    row("Conv2d_1a_3x3 convolutions", "Table I",     710_432.0,   "",       0.0,    Exact),
    row("Conv2d_2b_3x3 convolutions", "Table I",     1_382_976.0, "",       0.0,    Exact),
    row("Mixed_5b convolutions",      "Table I",     568_400.0,   "",       0.0,    Exact),
    row("Mixed_7a convolutions",      "Table I",     254_720.0,   "",       0.0,    Exact),
    row("Mixed_7b convolutions",      "Table I",     208_896.0,   "",       0.0,    Exact),
    row("peak 8-bit throughput",      "Sec. I, III", 28.0,        "TOP/s",  0.11,   Fitted("204-cycle MAC in nc_bench::headlines")),
    row("array area overhead",        "Fig. 12",     7.5,         "%",      0.0028, Predicted),
    row("FSM area",                   "Fig. 12",     0.23,        "mm^2",   0.0016, Predicted),
    row("latency",                    "Fig. 15",     4.72,        "ms",     0.46,   Predicted),
    row("latency at 45 MB",           "Table IV",    4.12,        "ms",     0.29,   Predicted),
    row("latency at 60 MB",           "Table IV",    3.79,        "ms",     0.24,   Predicted),
    row("throughput at batch 256",    "Fig. 16",     604.0,       "inf/s",  130.0,  Predicted),
    row("energy per inference",       "Table III",   0.246,       "J",      0.033,  Predicted),
    row("average power",              "Table III",   52.92,       "W",      3.0,    Fitted("energy::BACKGROUND_WATTS")),
    row("filter-load share",          "Fig. 14",     46.0,        "%",      4.8,    Fitted("DramModel::paper_calibrated")),
    row("input-stream share",         "Fig. 14",     15.0,        "%",      1.5,    Fitted("timing::INPUT_DELIVERY_SERIALIZATION")),
    row("mac share",                  "Fig. 14",     20.0,        "%",      2.0,    Predicted),
    row("reduce share",               "Fig. 14",     10.0,        "%",      1.5,    Predicted),
    row("quantize share",             "Fig. 14",     5.0,         "%",      1.1,    Fitted("PaperCostModel::requant_cycles")),
    row("pool share",                 "Fig. 14",     0.04,        "%",      0.034,  Predicted),
    row("output-xfer share",          "Fig. 14",     4.0,         "%",      0.95,   Fitted("timing::OUTPUT_SET_WALK_FACTOR")),
];

/// The anchor named `name`.
///
/// # Panics
///
/// Panics if no anchor has that name.
#[must_use]
pub fn anchor(name: &str) -> &'static Anchor {
    ANCHORS
        .iter()
        .find(|a| a.name == name)
        .unwrap_or_else(|| panic!("no paper anchor named {name:?}"))
}

/// One baseline machine's published Inception v3 measurements: TensorFlow
/// on the real hardware, RAPL or nvidia-smi power (Section V). The paper
/// gives most of them as Neural Cache's ratio over the machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// Platform label.
    pub name: &'static str,
    /// Batch-1 latency, ms.
    pub latency_ms: f64,
    /// Neural Cache's latency speedup over the machine (Fig. 15).
    pub speedup: f64,
    /// Neural Cache's batch-256 throughput over the machine's peak
    /// (Fig. 16).
    pub throughput_ratio: f64,
    /// Energy per inference, J (Table III).
    pub energy_j: f64,
    /// Average power, W (Table III).
    pub power_w: f64,
}

impl Machine {
    /// Peak throughput, inferences/s: the paper's Neural Cache batch-256
    /// throughput over [`Machine::throughput_ratio`].
    #[must_use]
    pub fn peak_ips(&self) -> f64 {
        anchor("throughput at batch 256").paper / self.throughput_ratio
    }

    /// Neural Cache's energy efficiency over the machine as the paper
    /// prints it (Table III).
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        self.energy_j / anchor("energy per inference").paper
    }
}

/// The dual-socket Xeon E5-2697 v3: 86 ms is stated in Section V.
pub const CPU: Machine = Machine {
    name: "CPU (Xeon E5)",
    latency_ms: 86.0,
    speedup: 18.3,
    throughput_ratio: 12.4,
    energy_j: 9.137,
    power_w: 105.56,
};

/// The Titan Xp. Its latency is not printed; it follows from the same
/// run's 18.3x and 7.7x speedups.
pub const GPU: Machine = Machine {
    name: "GPU (Titan Xp)",
    latency_ms: 86.0 * 7.7 / 18.3,
    speedup: 7.7,
    throughput_ratio: 2.2,
    energy_j: 4.087,
    power_w: 112.87,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_exact_anchors_have_no_tolerance() {
        for (i, a) in ANCHORS.iter().enumerate() {
            assert!(
                ANCHORS[..i].iter().all(|b| b.name != a.name),
                "{} listed twice",
                a.name
            );
            assert_eq!(a.kind == Kind::Exact, a.tolerance == 0.0, "{}", a.name);
        }
    }
}
