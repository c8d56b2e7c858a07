//! Recorded micro-op schedules: per-cycle word-line read/write sets.
//!
//! A [`Schedule`] is the straight-line sequence of [`Step`]s one or more
//! operations issued on a [`ComputeArray`](crate::ComputeArray), one step
//! per array cycle, recording only which word lines each cycle activates —
//! no data. Schedules are never re-derived: the array appends a step from
//! inside every single-cycle micro-op while recording is on
//! ([`ComputeArray::start_recording`](crate::ComputeArray::start_recording)),
//! so a schedule is exactly the micro-op stream that ran. Static checkers
//! (`nc-verify`) prove port-safety properties over it.
//!
//! A recorded step is a small `Copy` value (at most 40 bytes) that owns no
//! heap memory: a micro-op senses at most two word lines and drives at
//! most one, and a [`WordLines`] set holds up to three rows inline, as
//! `u16`s. Recording a step is one push onto the step vector, whose
//! amortized growth is the only heap traffic, and dropping a schedule frees
//! that one buffer.

use std::fmt;
use std::ops::{Deref, DerefMut};

use crate::CycleStats;

/// Whether a cycle uses the compute path (two-row activation through the
/// bit-line peripherals) or the conventional access path (streaming
/// reads/writes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Bit-line compute cycle (counted in `compute_cycles`).
    Compute,
    /// Conventional access cycle (counted in `access_cycles`).
    Access,
}

/// Rows a [`WordLines`] set holds: one past the read-port budget of a
/// compute cycle, so a checker can still see a three-row sense.
const CAPACITY: usize = 3;

/// The word lines one cycle activates, in issue order.
///
/// Derefs to `[u16]`. A set holds up to three rows inline, one past the
/// two-row read-port budget, so every set a micro-op records and every
/// hazard a checker must see (a three-row sense, a two-row write) fits
/// without allocating. Building a longer set, or one with a row past
/// `u16::MAX`, panics: nothing is truncated. Two sets are equal when their
/// rows are, and `{:?}` prints them as a list, as a `Vec` does.
#[derive(Clone, Copy)]
pub struct WordLines {
    len: u8,
    rows: [u16; CAPACITY],
}

impl From<&[usize]> for WordLines {
    /// # Panics
    ///
    /// Panics if `rows` holds more than three rows or a row past
    /// `u16::MAX`.
    #[inline]
    fn from(rows: &[usize]) -> Self {
        assert!(
            rows.len() <= CAPACITY,
            "a word-line set holds at most {CAPACITY} rows, not {rows:?}"
        );
        let mut set = WordLines {
            len: rows.len() as u8,
            rows: [0; CAPACITY],
        };
        for (slot, &row) in set.rows.iter_mut().zip(rows) {
            *slot = u16::try_from(row).unwrap_or_else(|_| {
                panic!(
                    "word line {row} is past the largest row a set holds, {}",
                    u16::MAX
                )
            });
        }
        set
    }
}

impl From<Vec<usize>> for WordLines {
    fn from(rows: Vec<usize>) -> Self {
        WordLines::from(rows.as_slice())
    }
}

impl Deref for WordLines {
    type Target = [u16];

    // Inlined across the crate boundary: checkers read every step's sets.
    #[inline]
    fn deref(&self) -> &[u16] {
        &self.rows[..usize::from(self.len)]
    }
}

impl DerefMut for WordLines {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u16] {
        &mut self.rows[..usize::from(self.len)]
    }
}

impl PartialEq for WordLines {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for WordLines {}

impl fmt::Debug for WordLines {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// One array cycle: the word lines it senses and the word lines it drives
/// for write-back.
///
/// The hardware activates at most **two** read word lines per compute
/// cycle (the two-row sense of Figure 7) and commits at most **one** write
/// word line. Reading and writing the *same* row in one cycle is legal —
/// the sense phase completes before write-back (this is how in-place adds
/// work) — but sensing one row twice is not. Both sets are [`WordLines`],
/// so a step is a `Copy` value of at most 40 bytes that owns no heap
/// memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Compute or access path.
    pub kind: StepKind,
    /// Word lines sensed this cycle (hardware port budget: 2).
    pub reads: WordLines,
    /// Word lines driven for write-back this cycle (hardware port
    /// budget: 1).
    pub writes: WordLines,
    /// Micro-op that issued the cycle, for diagnostics.
    pub label: &'static str,
}

/// A recorded per-cycle schedule plus the [`CycleStats`] the array charged
/// while it was recorded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    /// Per-cycle steps, in issue order.
    pub steps: Vec<Step>,
    /// Counters charged over the recording (rounds, skips, detects, ...).
    pub stats: CycleStats,
}

impl Schedule {
    /// Compute steps in the schedule (its length on the compute path).
    #[must_use]
    pub fn compute_cycles(&self) -> u64 {
        self.count(StepKind::Compute)
    }

    /// Access steps in the schedule.
    #[must_use]
    pub fn access_cycles(&self) -> u64 {
        self.count(StepKind::Access)
    }

    fn count(&self, kind: StepKind) -> u64 {
        self.steps.iter().filter(|s| s.kind == kind).count() as u64
    }

    /// Appends one step; kept out of line so the micro-ops' recording-off
    /// path stays a single branch.
    #[cold]
    #[inline(never)]
    pub(crate) fn push(
        &mut self,
        kind: StepKind,
        reads: &[usize],
        writes: &[usize],
        label: &'static str,
    ) {
        self.steps.push(Step {
            kind,
            reads: reads.into(),
            writes: writes.into(),
            label,
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::ops::{copy_lanes_between, LogicOp};
    use crate::{ComputeArray, CycleStats, Operand, Predicate, Result, Schedule, Step, WordLines};

    const DUMP: usize = 250;

    fn op(base: usize, bits: usize) -> Operand {
        Operand::new(base, bits).unwrap()
    }

    /// An array whose 8-bit operands `x` (rows 0..8) and `y` (rows 8..16)
    /// hold 3-live-bit multiplicands and low-nibble multipliers, so every
    /// sparse multiply variant takes both its skip and its execute paths.
    fn seeded() -> ComputeArray {
        let mut a = ComputeArray::with_zero_row(255).unwrap();
        for (lane, (x, y)) in [(5, 9), (7, 0), (3, 15), (1, 8)].into_iter().enumerate() {
            a.poke_lane(lane, op(0, 8), x);
            a.poke_lane(lane, op(8, 8), y);
        }
        a
    }

    /// One op family member, run over `x`, `y` and a free 8-bit region `z`.
    type Case = (
        &'static str,
        fn(&mut ComputeArray, Operand, Operand, Operand) -> Result<CycleStats>,
    );

    /// Asserts the schedule's step counts equal the cycles the op charged.
    fn assert_coherent(name: &str, s: &Schedule, charged: CycleStats) {
        assert_eq!(
            s.compute_cycles(),
            charged.compute_cycles,
            "{name}: compute"
        );
        assert_eq!(s.access_cycles(), charged.access_cycles, "{name}: access");
    }

    /// Every op family: the recorded step counts must equal the cycles the
    /// op charged, so no micro-op path can charge without recording.
    #[test]
    fn recorded_steps_match_charged_cycles_for_every_op_family() {
        let (w24, w32, v32) = (op(40, 24), op(64, 32), op(96, 32));
        let cases: &[Case] = &[
            ("add", |a, x, y, _| a.add(x, y, op(16, 9))),
            ("add/wrap", |a, x, y, z| a.add(x, y, z)),
            ("add_assign", |a, x, _, _| a.add_assign(op(40, 24), x)),
            ("add_scalar", |a, _, _, z| a.add_scalar(z, 77)),
            ("add_scalar_signed", |a, _, _, z| a.add_scalar_signed(z, -5)),
            ("sub", |a, x, y, z| a.sub(x, y, z, op(24, 8))),
            ("zero", |a, _, _, z| a.zero(z)),
            ("broadcast_scalar", |a, _, _, z| a.broadcast_scalar(z, 170)),
            ("copy", |a, x, _, z| a.copy(x, z, Predicate::Always)),
            ("copy/self", |a, x, _, _| a.copy(x, x, Predicate::Always)),
            ("copy_zext", |a, x, _, _| a.copy_zext(x, op(24, 16))),
            ("not_region", |a, x, _, z| a.not_region(x, z)),
            ("and", |a, x, y, z| a.logic_region(LogicOp::And, x, y, z)),
            ("or", |a, x, y, z| a.logic_region(LogicOp::Or, x, y, z)),
            ("xor", |a, x, y, z| a.logic_region(LogicOp::Xor, x, y, z)),
            ("nor", |a, x, y, z| a.logic_region(LogicOp::Nor, x, y, z)),
            ("search_eq_scalar", |a, x, _, _| a.search_eq_scalar(x, 42)),
            ("mul", |a, x, y, _| a.mul(x, y, op(16, 16))),
            ("mul_skip_zero_rows", |a, x, y, _| {
                a.mul_skip_zero_rows(x, y, op(16, 16))
            }),
            ("mul_skip_both", |a, x, y, _| {
                a.mul_skip_both(x, y, op(16, 16))
            }),
            ("mul_scalar", |a, x, _, _| a.mul_scalar(x, 181, op(32, 24))),
            ("compare_ge", |a, x, y, z| a.compare_ge(x, y, z, DUMP)),
            ("max_assign", |a, x, y, z| a.max_assign(x, y, z, DUMP)),
            ("min_assign", |a, x, y, z| a.min_assign(x, y, z, DUMP)),
            ("relu", |a, x, _, _| a.relu(x)),
            ("clamp_max_scalar", |a, x, _, _| {
                a.clamp_max_scalar(x, 100, DUMP)
            }),
            ("move_lanes", |a, x, _, z| a.move_lanes(x, z, 8, 8)),
            ("move_lanes_grouped", |a, x, _, z| {
                a.move_lanes_grouped(x, z, 4, 4, 8, 4)
            }),
            ("reduce_sum", |a, x, _, z| a.reduce_sum(x, z, 16)),
            ("reduce_sum_grouped", |a, x, _, z| {
                a.reduce_sum_grouped(x, z, 8, 16)
            }),
            ("reduce_max", |a, x, y, z| a.reduce_max(x, y, z, DUMP, 8)),
            ("reduce_min", |a, x, y, z| a.reduce_min(x, y, z, DUMP, 8)),
            ("div", |a, x, y, z| {
                a.div(x, y, z, op(24, 9), op(33, 9), op(42, 9))
            }),
            ("div_scalar", |a, x, _, z| {
                a.div_scalar(x, 3, z, op(24, 9), op(33, 9))
            }),
        ];
        for (name, run) in cases {
            let mut a = seeded();
            a.start_recording();
            let charged = run(&mut a, op(0, 8), op(8, 8), op(16, 8)).unwrap();
            let s = a.take_recording().unwrap();
            assert_coherent(name, &s, charged);
            assert_eq!(s.stats, charged, "{name}: counters");
        }
        // Wide-operand forms of the accumulate and reduce paths.
        let mut a = seeded();
        a.start_recording();
        let charged = a.add_assign(w24, op(0, 16)).unwrap() + a.reduce_sum(w32, v32, 64).unwrap();
        assert_coherent("wide", &a.take_recording().unwrap(), charged);
    }

    /// Inter-array transfers record their reads on the source array and
    /// their writes on the destination array.
    #[test]
    fn transfers_record_on_both_arrays() {
        let (mut src, mut dst) = (seeded(), seeded());
        src.start_recording();
        dst.start_recording();
        let charged = copy_lanes_between(&mut src, op(0, 8), &mut dst, op(16, 8), 0, 16).unwrap();
        let (mut s, written) = (src.take_recording().unwrap(), dst.take_recording().unwrap());
        assert!(s.steps.iter().all(|s| s.writes.is_empty()));
        assert!(written.steps.iter().all(|s| s.reads.is_empty()));
        s.steps.extend(written.steps);
        assert_coherent("copy_lanes_between", &s, charged);
    }

    #[test]
    fn recording_is_off_by_default_and_stops_when_taken() {
        let mut a = seeded();
        a.add(op(0, 8), op(8, 8), op(16, 9)).unwrap();
        assert_eq!(a.take_recording(), None);
        a.start_recording();
        a.add(op(0, 8), op(8, 8), op(16, 9)).unwrap();
        let s = a.take_recording().unwrap();
        assert_eq!(s.steps.len(), 9);
        assert_eq!(*s.steps[0].reads, [0, 8]);
        assert_eq!(*s.steps[0].writes, [16]);
        assert_eq!(s.steps[8].label, "op_write_carry");
        assert_eq!(a.take_recording(), None);
    }

    /// Sets of every length up to three read, edit, compare and print as
    /// the rows they hold.
    #[test]
    fn word_line_sets_behave_as_their_rows() {
        let rows = [3, 1, 4];
        for len in 0..=3 {
            let set = WordLines::from(&rows[..len]);
            let held: Vec<usize> = set.iter().map(|&row| usize::from(row)).collect();
            assert_eq!(held, rows[..len], "length {len}");
            assert_eq!(set, WordLines::from(rows[..len].to_vec()), "length {len}");
        }
        let (mut pair, mut triple) = (WordLines::from(&rows[..2]), WordLines::from(&rows[..3]));
        pair[1] = 9;
        triple[2] = 9;
        assert_eq!(*pair, [3, 9]);
        assert_eq!(*triple, [3, 1, 9]);
        assert_ne!(pair, WordLines::from(&rows[..2]));
        assert_eq!(format!("{:?}", WordLines::from(vec![0, 8])), "[0, 8]");
    }

    #[test]
    #[should_panic(expected = "at most 3 rows, not [0, 1, 2, 3]")]
    fn word_line_sets_reject_a_fourth_row() {
        let _ = WordLines::from(vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "word line 65536 is past")]
    fn word_line_sets_reject_rows_past_u16() {
        let _ = WordLines::from(vec![0, 65_536]);
    }

    /// A step stays a small `Copy` value: a field that re-inflates it, or
    /// gives it drop glue, fails here.
    #[test]
    fn steps_are_small_copy_values() {
        fn copy<T: Copy>() {}
        copy::<Step>();
        assert!(std::mem::size_of::<Step>() <= 40);
    }
}
