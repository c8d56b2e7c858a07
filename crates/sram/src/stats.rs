//! Cycle accounting and the paper's per-cycle timing/energy constants.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// Cycle counters for one compute array (or an aggregate of arrays).
///
/// Neural Cache distinguishes two cycle types with different delay and
/// energy (paper Section V):
///
/// - **compute cycles**: two-row activation + write-back (1022 ps, 15.4 pJ at
///   22 nm for 256 bit lines);
/// - **access cycles**: conventional single-row SRAM reads/writes used for
///   data streaming (654 ps, 8.6 pJ at 22 nm).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct CycleStats {
    /// Number of two-row compute cycles executed.
    pub compute_cycles: u64,
    /// Number of conventional access cycles executed.
    pub access_cycles: u64,
    /// Multiplier-bit rounds scheduled by vector multiplications (one per
    /// multiplier bit per [`crate::ComputeArray::mul`]-family call).
    pub mul_rounds: u64,
    /// Multiplier-bit rounds elided because the **weight** bit-slice row
    /// was zero on every lane ([`crate::ComputeArray::mul_skip_zero_rows`]);
    /// always `<= mul_rounds`, and 0 under dense execution.
    pub skipped_rounds: u64,
    /// Compute cycles the dense round schedule would have spent on work
    /// that was elided — whole skipped rounds (weight- or input-side) plus
    /// the add-chain cycles truncated by
    /// [`crate::ComputeArray::mul_skip_both`]. **Not** included in
    /// `compute_cycles`, which only counts cycles actually executed.
    pub skipped_cycles: u64,
    /// Tag-latch wired-NOR zero-detect cycles spent probing dynamic
    /// (input) multiplier bit-slices — one per scheduled round of
    /// [`crate::ComputeArray::mul_skip_both`]. These are
    /// real executed cycles (also counted in `compute_cycles`): the dense
    /// schedule never pays them, so they offset the input-skip savings.
    pub detect_cycles: u64,
    /// Multiplier-bit rounds elided because the **input** bit-slice row
    /// was detected zero on every lane at run time; always `<= mul_rounds`,
    /// and 0 under dense or weight-only-skip execution.
    pub input_rounds_skipped: u64,
}

impl CycleStats {
    /// A zeroed counter set.
    #[must_use]
    pub const fn new() -> Self {
        CycleStats {
            compute_cycles: 0,
            access_cycles: 0,
            mul_rounds: 0,
            skipped_rounds: 0,
            skipped_cycles: 0,
            detect_cycles: 0,
            input_rounds_skipped: 0,
        }
    }

    /// Fraction of scheduled multiplier-bit rounds elided for weight
    /// sparsity (0 when no vector multiply ran).
    #[must_use]
    pub fn skip_fraction(&self) -> f64 {
        if self.mul_rounds == 0 {
            0.0
        } else {
            self.skipped_rounds as f64 / self.mul_rounds as f64
        }
    }

    /// Fraction of scheduled multiplier-bit rounds elided by the dynamic
    /// input-bit zero detect (0 when no vector multiply ran).
    #[must_use]
    pub fn input_skip_fraction(&self) -> f64 {
        if self.mul_rounds == 0 {
            0.0
        } else {
            self.input_rounds_skipped as f64 / self.mul_rounds as f64
        }
    }

    /// Total cycles of either kind.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.compute_cycles + self.access_cycles
    }

    /// Wall-clock seconds under the given timing model, with every cycle
    /// issued at the compute-mode frequency (the conservative clock Neural
    /// Cache runs while any array is computing).
    #[must_use]
    pub fn seconds(&self, timings: &ArrayTimings) -> f64 {
        self.total_cycles() as f64 / timings.compute_freq_hz
    }

    /// Energy in joules consumed by this many cycles of one array under the
    /// given energy model.
    #[must_use]
    pub fn energy_joules(&self, energy: &ArrayEnergy) -> f64 {
        (self.compute_cycles as f64 * energy.compute_cycle_pj
            + self.access_cycles as f64 * energy.access_cycle_pj)
            * 1e-12
    }
}

impl Add for CycleStats {
    type Output = CycleStats;
    fn add(self, rhs: CycleStats) -> CycleStats {
        CycleStats {
            compute_cycles: self.compute_cycles + rhs.compute_cycles,
            access_cycles: self.access_cycles + rhs.access_cycles,
            mul_rounds: self.mul_rounds + rhs.mul_rounds,
            skipped_rounds: self.skipped_rounds + rhs.skipped_rounds,
            skipped_cycles: self.skipped_cycles + rhs.skipped_cycles,
            detect_cycles: self.detect_cycles + rhs.detect_cycles,
            input_rounds_skipped: self.input_rounds_skipped + rhs.input_rounds_skipped,
        }
    }
}

impl AddAssign for CycleStats {
    fn add_assign(&mut self, rhs: CycleStats) {
        *self = *self + rhs;
    }
}

impl Sub for CycleStats {
    type Output = CycleStats;
    /// Difference between two counter snapshots (used to report the cycles a
    /// single high-level operation consumed).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is not an earlier snapshot of `self`.
    fn sub(self, rhs: CycleStats) -> CycleStats {
        debug_assert!(self.compute_cycles >= rhs.compute_cycles);
        debug_assert!(self.access_cycles >= rhs.access_cycles);
        debug_assert!(self.mul_rounds >= rhs.mul_rounds);
        debug_assert!(self.skipped_rounds >= rhs.skipped_rounds);
        debug_assert!(self.skipped_cycles >= rhs.skipped_cycles);
        debug_assert!(self.detect_cycles >= rhs.detect_cycles);
        debug_assert!(self.input_rounds_skipped >= rhs.input_rounds_skipped);
        CycleStats {
            compute_cycles: self.compute_cycles - rhs.compute_cycles,
            access_cycles: self.access_cycles - rhs.access_cycles,
            mul_rounds: self.mul_rounds - rhs.mul_rounds,
            skipped_rounds: self.skipped_rounds - rhs.skipped_rounds,
            skipped_cycles: self.skipped_cycles - rhs.skipped_cycles,
            detect_cycles: self.detect_cycles - rhs.detect_cycles,
            input_rounds_skipped: self.input_rounds_skipped - rhs.input_rounds_skipped,
        }
    }
}

impl Mul<u64> for CycleStats {
    type Output = CycleStats;
    /// The counters of `n` runs that each count `self`.
    fn mul(self, n: u64) -> CycleStats {
        CycleStats {
            compute_cycles: self.compute_cycles * n,
            access_cycles: self.access_cycles * n,
            mul_rounds: self.mul_rounds * n,
            skipped_rounds: self.skipped_rounds * n,
            skipped_cycles: self.skipped_cycles * n,
            detect_cycles: self.detect_cycles * n,
            input_rounds_skipped: self.input_rounds_skipped * n,
        }
    }
}

impl fmt::Display for CycleStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} compute + {} access cycles",
            self.compute_cycles, self.access_cycles
        )?;
        if self.skipped_rounds > 0 || self.input_rounds_skipped > 0 {
            write!(
                f,
                " ({} of {} mul rounds skipped, {} cycles saved",
                self.skipped_rounds + self.input_rounds_skipped,
                self.mul_rounds,
                self.skipped_cycles
            )?;
            if self.detect_cycles > 0 {
                write!(f, ", {} detect cycles charged", self.detect_cycles)?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// Running minimum/maximum of signed accumulator values observed during
/// execution.
///
/// The value-range certifier in `nc-verify` proves static per-layer
/// accumulator intervals; both execution engines track the values actually
/// materialised so the static claim can be reconciled against reality.
/// `observe`/`merge` are order-independent, which keeps the tracker exact
/// under the threaded engine's nondeterministic shard completion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValueStats {
    /// Smallest value observed, or `i64::MAX` if nothing was observed yet.
    pub min: i64,
    /// Largest value observed, or `i64::MIN` if nothing was observed yet.
    pub max: i64,
}

impl ValueStats {
    /// An empty tracker (identity element of [`ValueStats::merge`]).
    #[must_use]
    pub const fn new() -> Self {
        ValueStats {
            min: i64::MAX,
            max: i64::MIN,
        }
    }

    /// `true` until the first [`ValueStats::observe`] call.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.min > self.max
    }

    /// Fold one observed value into the running extrema.
    pub const fn observe(&mut self, value: i64) {
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Combine two trackers (commutative and associative).
    #[must_use]
    pub const fn merge(self, rhs: ValueStats) -> ValueStats {
        ValueStats {
            min: if rhs.min < self.min {
                rhs.min
            } else {
                self.min
            },
            max: if rhs.max > self.max {
                rhs.max
            } else {
                self.max
            },
        }
    }
}

impl Default for ValueStats {
    fn default() -> Self {
        ValueStats::new()
    }
}

impl fmt::Display for ValueStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "[empty]")
        } else {
            write!(f, "[{}, {}]", self.min, self.max)
        }
    }
}

/// Per-cycle delay constants for the compute SRAM array.
///
/// The paper's SPICE simulation of the 28 nm computational 8KB array gives a
/// 1022 ps compute cycle (vs. 654 ps for a normal read from the foundry
/// memory compiler — about 1.6x slower), and Neural Cache conservatively
/// clocks compute at 2.5 GHz while the Xeon arrays are rated for 4 GHz
/// normal accesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayTimings {
    /// Clock used while the cache is in compute mode, in hertz.
    pub compute_freq_hz: f64,
    /// Clock of conventional cache accesses, in hertz.
    pub access_freq_hz: f64,
    /// SPICE-simulated compute-cycle latency, picoseconds.
    pub compute_delay_ps: f64,
    /// Foundry-compiler normal read latency, picoseconds.
    pub read_delay_ps: f64,
}

impl ArrayTimings {
    /// The paper's operating point: 2.5 GHz compute, 4 GHz access.
    #[must_use]
    pub const fn paper() -> Self {
        ArrayTimings {
            compute_freq_hz: 2.5e9,
            access_freq_hz: 4.0e9,
            compute_delay_ps: 1022.0,
            read_delay_ps: 654.0,
        }
    }

    /// Ratio of compute-cycle latency to a normal read (paper: ~1.6x).
    #[must_use]
    pub fn compute_slowdown(&self) -> f64 {
        self.compute_delay_ps / self.read_delay_ps
    }
}

impl Default for ArrayTimings {
    fn default() -> Self {
        ArrayTimings::paper()
    }
}

/// Per-cycle energy constants for one 256-bit-line array operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayEnergy {
    /// Energy of one compute cycle over 256 bit lines, picojoules.
    pub compute_cycle_pj: f64,
    /// Energy of one conventional 256-bit access cycle, picojoules.
    pub access_cycle_pj: f64,
}

impl ArrayEnergy {
    /// SPICE-simulated values at the 28 nm test-chip node.
    #[must_use]
    pub const fn node_28nm() -> Self {
        ArrayEnergy {
            compute_cycle_pj: 25.7,
            access_cycle_pj: 13.9,
        }
    }

    /// Values scaled to the Xeon E5-2697 v3's 22 nm node (used for all
    /// Neural Cache results in the paper).
    #[must_use]
    pub const fn node_22nm() -> Self {
        ArrayEnergy {
            compute_cycle_pj: 15.4,
            access_cycle_pj: 8.6,
        }
    }
}

impl Default for ArrayEnergy {
    fn default() -> Self {
        ArrayEnergy::node_22nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate() {
        let mut s = CycleStats::new();
        s += CycleStats {
            compute_cycles: 10,
            access_cycles: 2,
            ..CycleStats::new()
        };
        let t = s + CycleStats {
            compute_cycles: 5,
            access_cycles: 0,
            ..CycleStats::new()
        };
        assert_eq!(t.compute_cycles, 15);
        assert_eq!(t.access_cycles, 2);
        assert_eq!(t.total_cycles(), 17);
    }

    #[test]
    fn scaling_equals_repeated_addition() {
        let run = CycleStats {
            compute_cycles: 136,
            access_cycles: 3,
            mul_rounds: 8,
            skipped_rounds: 2,
            skipped_cycles: 21,
            detect_cycles: 8,
            input_rounds_skipped: 1,
        };
        for n in [0, 1, 5] {
            let added = (0..n).fold(CycleStats::new(), |sum, _| sum + run);
            assert_eq!(run * n, added, "{n} runs");
        }
    }

    #[test]
    fn skip_counters_accumulate_and_report() {
        let mut s = CycleStats::new();
        assert_eq!(s.skip_fraction(), 0.0, "no multiplies yet");
        s += CycleStats {
            mul_rounds: 8,
            skipped_rounds: 6,
            skipped_cycles: 60,
            ..CycleStats::new()
        };
        s += CycleStats {
            mul_rounds: 8,
            compute_cycles: 96,
            ..CycleStats::new()
        };
        assert_eq!(s.mul_rounds, 16);
        assert_eq!(s.skipped_rounds, 6);
        assert!((s.skip_fraction() - 6.0 / 16.0).abs() < 1e-12);
        assert_eq!(s.total_cycles(), 96, "saved cycles are not executed cycles");
        let text = s.to_string();
        assert!(text.contains("6 of 16 mul rounds skipped"));
        assert!(text.contains("60 cycles saved"));
        assert!(!CycleStats::new().to_string().contains("skipped"));
    }

    #[test]
    fn dynamic_input_counters_accumulate_and_report() {
        let mut s = CycleStats::new();
        assert_eq!(s.input_skip_fraction(), 0.0, "no multiplies yet");
        s += CycleStats {
            compute_cycles: 48,
            mul_rounds: 8,
            input_rounds_skipped: 5,
            skipped_cycles: 50,
            detect_cycles: 8,
            ..CycleStats::new()
        };
        s += CycleStats {
            compute_cycles: 96,
            mul_rounds: 8,
            ..CycleStats::new()
        };
        assert_eq!(s.detect_cycles, 8);
        assert_eq!(s.input_rounds_skipped, 5);
        assert!((s.input_skip_fraction() - 5.0 / 16.0).abs() < 1e-12);
        assert_eq!(s.skip_fraction(), 0.0, "weight skips stay separate");
        let text = s.to_string();
        assert!(text.contains("5 of 16 mul rounds skipped"));
        assert!(text.contains("8 detect cycles charged"));
        let diff = s - CycleStats {
            compute_cycles: 48,
            mul_rounds: 8,
            input_rounds_skipped: 5,
            skipped_cycles: 50,
            detect_cycles: 8,
            ..CycleStats::new()
        };
        assert_eq!(diff.detect_cycles, 0);
        assert_eq!(diff.input_rounds_skipped, 0);
    }

    #[test]
    fn value_stats_merge_is_order_independent() {
        let mut a = ValueStats::new();
        assert!(a.is_empty());
        assert_eq!(a.to_string(), "[empty]");
        a.observe(-3);
        a.observe(17);
        let mut b = ValueStats::new();
        b.observe(5);
        b.observe(-40);
        assert_eq!(a.merge(b), b.merge(a));
        let m = a.merge(b);
        assert_eq!((m.min, m.max), (-40, 17));
        assert_eq!(m.merge(ValueStats::new()), m, "empty is the identity");
        assert_eq!(m.to_string(), "[-40, 17]");
    }

    #[test]
    fn paper_constants() {
        let t = ArrayTimings::paper();
        assert!((t.compute_slowdown() - 1.5627).abs() < 1e-3);
        let e22 = ArrayEnergy::node_22nm();
        assert_eq!(e22.compute_cycle_pj, 15.4);
        assert_eq!(e22.access_cycle_pj, 8.6);
        let e28 = ArrayEnergy::node_28nm();
        assert!(e28.compute_cycle_pj > e22.compute_cycle_pj);
    }

    #[test]
    fn energy_and_time_conversions() {
        let s = CycleStats {
            compute_cycles: 1_000_000,
            access_cycles: 0,
            ..CycleStats::new()
        };
        let e = s.energy_joules(&ArrayEnergy::node_22nm());
        assert!((e - 15.4e-6).abs() < 1e-12);
        let secs = s.seconds(&ArrayTimings::paper());
        assert!((secs - 4.0e-4).abs() < 1e-9);
    }
}
