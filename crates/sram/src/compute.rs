//! The compute array: SRAM storage + column peripherals + cycle accounting.
//!
//! This module defines the single-cycle **micro-ops** that the hardware
//! column peripheral of Figure 7 can execute. Everything more complex
//! (multi-bit add, multiply, reduction, ...) is composed from these micro-ops
//! in [`crate::ops`], so the cycle count of every high-level operation is the
//! length of its micro-op sequence — derived, not asserted.
//!
//! Every operation is a check, then one run of steps. The check rejects
//! what the cycles could not do (a row past the array, a row sensed
//! against itself, a write-back into the zero row, and the widths and
//! overlaps of [`crate::ops`]) before the first cycle, so a rejected
//! operation leaves cells, latches and counters untouched and no cycle
//! repeats a check. The run ([`Run`]) is a short-lived view of the array
//! that keeps the carry and tag latches and the counters it charges in
//! locals, as the hardware keeps them in the column peripherals across the
//! cycles of an add or a multiply. Each step is one cycle, defined once on
//! the run: it cannot fail, and it charges its cycle and appends its
//! word-line [`Step`](crate::Step) while recording is on. When the
//! operation ends, the run commits the latches, adds its counters to the
//! array's and returns them as the operation's [`CycleStats`] delta. A
//! public single-cycle `op_*` method is a run of one step.
//!
//! Operands enter and leave the array through the zero-cost loader,
//! [`ComputeArray::poke_lanes`] and [`ComputeArray::peek_lanes`]: one row
//! update per operand bit, through the bit packing of the
//! [`TransposeUnit`](crate::TransposeUnit), and no cycle charged, because the
//! data-movement model prices moving operands into the arrays.
//! [`ComputeArray::load_rows`] loads an operand packed ahead of time
//! ([`pack_lanes`](crate::pack_lanes)) as whole rows, for operands that
//! enter many arrays.

use crate::ops::LogicOp;
use crate::sram::{check_row, check_sense};
use crate::transpose::{gather_lanes, scatter_lanes};
use crate::{
    BitRow, CycleStats, Operand, Result, Schedule, SramArray, SramError, Step, StepKind, COLS,
};

/// Write-back predication mode for a compute cycle.
///
/// The tag latch `T` drives the enable of the bit-line write driver
/// (Figure 7): when predicated, only columns whose tag bit is set commit the
/// result, and the carry latch update is likewise gated (`C_EN`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Predicate {
    /// Write on every column.
    #[default]
    Always,
    /// Write only on columns whose tag latch holds `1`.
    Tag,
}

/// One 8KB SRAM array augmented with the Neural Cache column peripherals.
///
/// Holds the 256x256 cell array, the per-column **carry** and **tag**
/// latches, an optional dedicated all-zero row (needed by operations that
/// must sense a complement or zero-extend an operand), the cycle
/// counters, and an optional [`Schedule`] recorder (off by default; see
/// [`ComputeArray::start_recording`]).
///
/// # Example
///
/// ```
/// use nc_sram::{ComputeArray, Operand};
///
/// let mut array = ComputeArray::new();
/// let x = Operand::new(0, 8)?;
/// array.poke_lane(0, x, 0b1010_1010);
/// array.op_load_tag(x.msb_row())?; // tag <- MSB of x on every lane
/// assert!(array.tag().get(0));
/// # Ok::<(), nc_sram::SramError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ComputeArray {
    array: SramArray,
    carry: BitRow,
    tag: BitRow,
    zero_row: Option<usize>,
    stats: CycleStats,
    /// Counters at `start_recording` plus the steps issued since.
    recording: Option<Box<(CycleStats, Schedule)>>,
}

impl ComputeArray {
    /// Creates a cleared compute array with no zero row configured.
    #[must_use]
    pub fn new() -> Self {
        ComputeArray {
            array: SramArray::new(),
            carry: BitRow::zero(),
            tag: BitRow::zero(),
            zero_row: None,
            stats: CycleStats::new(),
            recording: None,
        }
    }

    /// Creates a cleared compute array with `row` reserved as the dedicated
    /// all-zero row.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::RowOutOfRange`] if `row` is out of range.
    pub fn with_zero_row(row: usize) -> Result<Self> {
        let mut a = ComputeArray::new();
        a.set_zero_row(row)?;
        Ok(a)
    }

    /// Declares `row` as the dedicated all-zero row and clears it.
    ///
    /// Several bit-serial operations (complement, zero extension, tag
    /// inversion) sense an operand against a known-zero word line; the
    /// mapping layer reserves one row per array for this purpose.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::RowOutOfRange`] if `row` is out of range.
    pub fn set_zero_row(&mut self, row: usize) -> Result<()> {
        self.array.write_row(row, BitRow::zero())?;
        self.zero_row = Some(row);
        Ok(())
    }

    /// The configured zero row, if any.
    #[must_use]
    pub fn zero_row(&self) -> Option<usize> {
        self.zero_row
    }

    /// Cycle counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> CycleStats {
        self.stats
    }

    /// Resets the cycle counters (the stored data is untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CycleStats::new();
    }

    /// Restores the array to its just-constructed state: all cells cleared,
    /// carry and tag latches dropped, cycle counters zeroed, recording off.
    /// The zero-row configuration is kept (the cleared cells already
    /// satisfy it).
    ///
    /// This is how [`crate::ArrayPool`] recycles arrays between shard jobs
    /// instead of reallocating the 256x256 cell storage.
    pub fn reset(&mut self) {
        self.array.clear();
        self.carry = BitRow::zero();
        self.tag = BitRow::zero();
        self.stats = CycleStats::new();
        self.recording = None;
    }

    /// Starts recording the micro-op stream: from now on every cycle the
    /// array charges also appends one [`Step`](crate::Step) with the word
    /// lines it reads and writes. Discards any recording in progress.
    ///
    /// While recording is off (the default) no step is built and nothing is
    /// allocated. While it is on, a cycle costs one push of a `Copy` step of
    /// at most 40 bytes, whose word-line sets
    /// ([`WordLines`](crate::WordLines)) are held inline, so the only
    /// allocations are the step vector's amortized growth.
    pub fn start_recording(&mut self) {
        self.recording = Some(Box::new((self.stats, Schedule::default())));
    }

    /// Stops recording and returns every step issued since
    /// [`ComputeArray::start_recording`], with the counters charged
    /// meanwhile in [`Schedule::stats`]. `None` when recording was off.
    pub fn take_recording(&mut self) -> Option<Schedule> {
        let (start, mut schedule) = *self.recording.take()?;
        schedule.stats = self.stats - start;
        Some(schedule)
    }

    /// Current contents of the per-column carry latches.
    #[must_use]
    pub fn carry(&self) -> &BitRow {
        &self.carry
    }

    /// Current contents of the per-column tag latches.
    #[must_use]
    pub fn tag(&self) -> &BitRow {
        &self.tag
    }

    /// Immutable access to the raw cell array.
    #[must_use]
    pub fn cells(&self) -> &SramArray {
        &self.array
    }

    // ------------------------------------------------------------------
    // Latch presets (control signals, not counted as array cycles)
    // ------------------------------------------------------------------

    /// Clears every carry latch. Latch presets are driven by the control FSM
    /// and do not occupy an array cycle.
    pub fn preset_carry(&mut self, value: bool) {
        self.carry = splat(value);
    }

    /// Sets every tag latch to `value` (control-FSM preset, zero cycles).
    pub fn preset_tag(&mut self, value: bool) {
        self.tag = splat(value);
    }

    // ------------------------------------------------------------------
    // Single-cycle compute micro-ops: check, then a run of one step
    // ------------------------------------------------------------------

    /// Compute cycle: copies row `src` to row `dst` (optionally tag-gated).
    ///
    /// Compute Cache performs in-array copies in a single cycle: the source
    /// word line is sensed and the write word line stores the result back in
    /// the second half of the cycle.
    ///
    /// # Errors
    ///
    /// Propagates row-range errors and refuses to clobber the zero row.
    pub fn op_copy(&mut self, src: usize, dst: usize, pred: Predicate) -> Result<()> {
        check_row(src)?;
        self.check_write(dst)?;
        self.run(|run| run.copy(src, dst, pred));
        Ok(())
    }

    /// Compute cycle: writes the column-wise complement of `src` to `dst`.
    ///
    /// Realized by sensing `src` against the dedicated zero row: the bit-line
    /// complement then carries `!src & !0 = !src`.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::MissingZeroRow`] when no zero row is configured.
    pub fn op_not(&mut self, src: usize, dst: usize, pred: Predicate) -> Result<()> {
        let zero = self.require_zero_row()?;
        check_sense(src, zero)?;
        self.check_write(dst)?;
        self.run(|run| run.not(src, zero, dst, pred));
        Ok(())
    }

    /// Compute cycle: `dst <- a AND b` (bit-line output of a two-row sense).
    ///
    /// # Errors
    ///
    /// Propagates sensing and write-back errors.
    pub fn op_and(&mut self, a: usize, b: usize, dst: usize, pred: Predicate) -> Result<()> {
        self.op_logic(LogicOp::And, a, b, dst, pred)
    }

    /// Compute cycle: `dst <- a NOR b` (bit-line-complement output).
    ///
    /// # Errors
    ///
    /// Propagates sensing and write-back errors.
    pub fn op_nor(&mut self, a: usize, b: usize, dst: usize, pred: Predicate) -> Result<()> {
        self.op_logic(LogicOp::Nor, a, b, dst, pred)
    }

    /// Compute cycle: `dst <- a OR b` (complement of the NOR output).
    ///
    /// # Errors
    ///
    /// Propagates sensing and write-back errors.
    pub fn op_or(&mut self, a: usize, b: usize, dst: usize, pred: Predicate) -> Result<()> {
        self.op_logic(LogicOp::Or, a, b, dst, pred)
    }

    /// Compute cycle: `dst <- a XOR b` (peripheral NOR of the two sense-amp
    /// outputs).
    ///
    /// # Errors
    ///
    /// Propagates sensing and write-back errors.
    pub fn op_xor(&mut self, a: usize, b: usize, dst: usize, pred: Predicate) -> Result<()> {
        self.op_logic(LogicOp::Xor, a, b, dst, pred)
    }

    /// The checks and the cycle of a two-row logic micro-op.
    fn op_logic(
        &mut self,
        op: LogicOp,
        a: usize,
        b: usize,
        dst: usize,
        pred: Predicate,
    ) -> Result<()> {
        self.check_logic(a, b, dst)?;
        self.run(|run| run.logic(op, a, b, dst, pred));
        Ok(())
    }

    /// Compute cycle: full-adder step over rows `a` and `b` with the carry
    /// latch as carry-in; writes `sum = a ^ b ^ c` to `dst` and latches
    /// `carry = a&b | (a^b)&c`.
    ///
    /// With [`Predicate::Tag`] both the write-back **and** the carry-latch
    /// update are gated per column (the `C_EN` signal of Figure 7), which is
    /// what makes predicated multiplication work.
    ///
    /// # Errors
    ///
    /// Propagates sensing and write-back errors.
    pub fn op_full_add(&mut self, a: usize, b: usize, dst: usize, pred: Predicate) -> Result<()> {
        self.check_logic(a, b, dst)?;
        self.run(|run| run.full_add(a, b, dst, pred));
        Ok(())
    }

    /// Compute cycle: full-adder step where the second operand is a
    /// *broadcast constant bit* `kbit` driven from the instruction bus via
    /// the peripheral's data-in path (the same path used for external
    /// writes). Used by scalar-broadcast arithmetic such as the
    /// requantization constants of Section IV-D.
    ///
    /// # Errors
    ///
    /// Propagates row-range and write-back errors.
    pub fn op_full_add_const(
        &mut self,
        a: usize,
        kbit: bool,
        dst: usize,
        pred: Predicate,
    ) -> Result<()> {
        check_row(a)?;
        self.check_write(dst)?;
        self.run(|run| run.full_add_const(a, kbit, dst, pred));
        Ok(())
    }

    /// Compute cycle: loads the tag latches from row `src`.
    ///
    /// # Errors
    ///
    /// Propagates row-range errors.
    pub fn op_load_tag(&mut self, src: usize) -> Result<()> {
        check_row(src)?;
        self.run(|run| run.load_tag(src));
        Ok(())
    }

    /// Compute cycle: loads the tag latches from row `src` and reports
    /// whether **every** tag bit is zero — the tag-latch wired-NOR the
    /// paper's search accelerator uses to detect an all-miss in one cycle
    /// (Compute Caches, Section III). This is the dynamic zero-detect
    /// behind input-bit round skipping: the control FSM senses the
    /// multiplier bit-slice into the tags and the wired-NOR tells it in the
    /// same cycle whether the round can be elided. The cycle is counted in
    /// both `compute_cycles` and the dedicated
    /// [`CycleStats::detect_cycles`] counter.
    ///
    /// # Errors
    ///
    /// Propagates row-range errors.
    pub fn op_detect_zero(&mut self, src: usize) -> Result<bool> {
        check_row(src)?;
        let mut zero = false;
        self.run(|run| zero = run.detect_zero(src));
        Ok(zero)
    }

    /// Compute cycle: loads the tag latches with the complement of row
    /// `src` (sensed against the zero row).
    ///
    /// # Errors
    ///
    /// Returns [`SramError::MissingZeroRow`] when no zero row is configured.
    pub fn op_load_tag_not(&mut self, src: usize) -> Result<()> {
        let zero = self.require_zero_row()?;
        check_sense(src, zero)?;
        self.run(|run| run.load_tag_not(src, zero));
        Ok(())
    }

    /// Compute cycle: ANDs row `src` (or its complement) into the tag
    /// latches — the accumulation step of bit-serial equality search.
    ///
    /// # Errors
    ///
    /// Complement form requires the zero row.
    pub fn op_and_tag(&mut self, src: usize, complement: bool) -> Result<()> {
        let zero = if complement {
            let zero = self.require_zero_row()?;
            check_sense(src, zero)?;
            Some(zero)
        } else {
            check_row(src)?;
            None
        };
        self.run(|run| run.and_tag(src, zero));
        Ok(())
    }

    /// Compute cycle: writes the carry latches to row `dst`.
    ///
    /// # Errors
    ///
    /// Propagates write-back errors.
    pub fn op_write_carry(&mut self, dst: usize, pred: Predicate) -> Result<()> {
        self.check_write(dst)?;
        self.run(|run| run.write_carry(dst, pred));
        Ok(())
    }

    /// Compute cycle: writes the tag latches to row `dst`.
    ///
    /// # Errors
    ///
    /// Propagates write-back errors.
    pub fn op_write_tag(&mut self, dst: usize, pred: Predicate) -> Result<()> {
        self.check_write(dst)?;
        self.run(|run| run.write_tag(dst, pred));
        Ok(())
    }

    /// Compute cycle: writes an all-zero (or all-one) row to `dst`,
    /// optionally tag-gated. `ReLU` uses the tag-gated zero write.
    ///
    /// # Errors
    ///
    /// Propagates write-back errors.
    pub fn op_write_const(&mut self, dst: usize, bit: bool, pred: Predicate) -> Result<()> {
        self.check_write(dst)?;
        self.run(|run| run.write_const(dst, bit, pred));
        Ok(())
    }

    // ------------------------------------------------------------------
    // Access-cycle operations (conventional reads/writes, for streaming)
    // ------------------------------------------------------------------

    /// Access cycle: conventional read of a full row (e.g. streaming data out
    /// to the intra-slice bus).
    ///
    /// # Errors
    ///
    /// Propagates row-range errors.
    pub fn access_read_row(&mut self, row: usize) -> Result<BitRow> {
        check_row(row)?;
        let mut value = BitRow::zero();
        self.run(|run| value = run.read_row(StepKind::Access, row, "access_read_row"));
        Ok(value)
    }

    /// Access cycle: conventional write of a full row (e.g. streaming data in
    /// from the intra-slice bus or a transpose unit).
    ///
    /// # Errors
    ///
    /// Propagates row-range errors and refuses to clobber the zero row.
    pub fn access_write_row(&mut self, row: usize, value: BitRow) -> Result<()> {
        if self.zero_row == Some(row) && !value.is_zero() {
            return Err(SramError::ZeroRowClobbered { row });
        }
        check_row(row)?;
        self.run(|run| {
            run.cells.set_row(row, value);
            run.tick(StepKind::Access, &[], &[row], "access_write_row");
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Zero-cost loader (no cycles charged; see the module docs)
    // ------------------------------------------------------------------

    /// Writes `values[i]` into lane `first_lane + i` of the transposed
    /// operand `op` — one row update per operand bit, through the
    /// [`TransposeUnit`](crate::TransposeUnit)'s bit packing — without
    /// charging cycles: the data-movement model prices moving operands into
    /// the arrays, so staging them here is free
    /// ([`ComputeArray::access_write_row`] is the charged row write). Rows
    /// past bit 63 are zero-filled; lanes outside the run keep their
    /// contents.
    ///
    /// # Errors
    ///
    /// Every check runs before the first row changes, so a rejected call
    /// leaves the array untouched:
    /// [`SramError::ColOutOfRange`] when the run ends past the last lane,
    /// [`SramError::DestinationTooNarrow`] when a value is wider than `op`,
    /// and [`SramError::ZeroRowClobbered`] when `op` covers the zero row.
    pub fn poke_lanes(&mut self, first_lane: usize, op: Operand, values: &[u64]) -> Result<()> {
        check_lanes(first_lane, values.len())?;
        if let Some(&wide) = values.iter().find(|&&v| v > op.max_value()) {
            return Err(SramError::DestinationTooNarrow {
                needed: 64 - wide.leading_zeros() as usize,
                available: op.bits(),
            });
        }
        self.guard_zero_row(&op)?;
        scatter_lanes(self.array.rows_mut(op.rows()), first_lane, values);
        Ok(())
    }

    /// Reads lanes `first_lane..first_lane + out.len()` of the transposed
    /// operand `op` into `out` (truncated to the low 64 bits), one row read
    /// per operand bit, without charging cycles.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::ColOutOfRange`], leaving `out` untouched, when
    /// the run ends past the last lane.
    pub fn peek_lanes(&self, first_lane: usize, op: Operand, out: &mut [u64]) -> Result<()> {
        self.peek_lanes_strided(first_lane, 1, op, out)
    }

    /// Reads `out.len()` lanes of the transposed operand `op`, one every
    /// `stride` lanes from `first_lane`, into `out` (truncated to the low
    /// 64 bits), without charging cycles: [`ComputeArray::peek_lanes`] over
    /// lanes spaced apart, such as the first lane of every group a grouped
    /// reduction leaves its sums on, reading no lane in between.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::ColOutOfRange`], leaving `out` untouched, when
    /// the last lane read is past the last lane.
    pub fn peek_lanes_strided(
        &self,
        first_lane: usize,
        stride: usize,
        op: Operand,
        out: &mut [u64],
    ) -> Result<()> {
        let lanes = out
            .len()
            .checked_sub(1)
            .map_or(0, |last| last.saturating_mul(stride).saturating_add(1));
        check_lanes(first_lane, lanes)?;
        gather_lanes(self.array.rows(op.rows()), first_lane, stride, out);
        Ok(())
    }

    /// Writes `rows` into the word lines of `op`, operand bit `b` from
    /// `rows[b]`, without charging cycles: the whole-row form of
    /// [`ComputeArray::poke_lanes`], for operand planes packed once
    /// ([`pack_lanes`](crate::pack_lanes)) and loaded many times. The rows
    /// of `op` past `rows.len()` are cleared.
    ///
    /// # Errors
    ///
    /// Every check runs before the first row changes, so a rejected call
    /// leaves the array untouched:
    /// [`SramError::DestinationTooNarrow`] when `rows` holds more bits than
    /// `op`, and [`SramError::ZeroRowClobbered`] when `op` covers the zero
    /// row.
    pub fn load_rows(&mut self, op: Operand, rows: &[BitRow]) -> Result<()> {
        if rows.len() > op.bits() {
            return Err(SramError::DestinationTooNarrow {
                needed: rows.len(),
                available: op.bits(),
            });
        }
        self.guard_zero_row(&op)?;
        let (head, tail) = self.array.rows_mut(op.rows()).split_at_mut(rows.len());
        head.copy_from_slice(rows);
        tail.fill(BitRow::zero());
        Ok(())
    }

    /// Writes `value` into `lane`'s transposed operand without charging
    /// cycles: the one-lane case of [`ComputeArray::poke_lanes`].
    ///
    /// # Panics
    ///
    /// Panics where `poke_lanes` returns an error: the lane is out of
    /// range, the operand is narrower than the significant bits of `value`,
    /// or the operand overlaps the zero row.
    pub fn poke_lane(&mut self, lane: usize, op: Operand, value: u64) {
        self.poke_lanes(lane, op, &[value])
            .unwrap_or_else(|e| panic!("poke_lane({lane}, {op}, {value}): {e}"));
    }

    /// Reads `lane`'s transposed operand without charging cycles (result
    /// truncated to 64 bits): the one-lane case of
    /// [`ComputeArray::peek_lanes`].
    ///
    /// # Panics
    ///
    /// Panics if the lane is out of range.
    #[must_use]
    pub fn peek_lane(&self, lane: usize, op: Operand) -> u64 {
        let mut value = [0];
        self.peek_lanes(lane, op, &mut value)
            .unwrap_or_else(|e| panic!("peek_lane({lane}, {op}): {e}"));
        value[0]
    }

    /// Reads `lane`'s transposed operand as a sign-extended two's-complement
    /// integer ([`Operand::signed_value`]; test-harness convenience).
    ///
    /// # Panics
    ///
    /// Panics if the lane is out of range or the operand is wider than 64
    /// bits.
    #[must_use]
    pub fn peek_lane_signed(&self, lane: usize, op: Operand) -> i64 {
        assert!(op.bits() <= 64, "operand wider than 64 bits");
        op.signed_value(self.peek_lane(lane, op))
    }

    /// Writes a two's-complement value into `lane`'s operand
    /// ([`Operand::signed_code`]; test-harness convenience).
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in `op.bits()` two's-complement bits,
    /// the operand is wider than 64 bits, or `poke_lane` panics.
    pub fn poke_lane_signed(&mut self, lane: usize, op: Operand, value: i64) {
        assert!(op.bits() <= 64, "operand wider than 64 bits");
        let code = op
            .signed_code(value)
            .unwrap_or_else(|e| panic!("poke_lane_signed({lane}, {op}, {value}): {e}"));
        self.poke_lane(lane, op, code);
    }

    // ------------------------------------------------------------------
    // Checks
    // ------------------------------------------------------------------

    pub(crate) fn require_zero_row(&self) -> Result<usize> {
        self.zero_row.ok_or(SramError::MissingZeroRow)
    }

    /// The zero row, once `src` may be sensed against it on every bit (the
    /// complement senses of `op_not`, `op_load_tag_not` and `op_and_tag`).
    pub(crate) fn zero_for_complement(&self, src: &Operand) -> Result<usize> {
        let zero = self.require_zero_row()?;
        if src.contains_row(zero) {
            return Err(SramError::SelfActivation { row: zero });
        }
        Ok(zero)
    }

    /// Rejects a write-back into `dst`: the zero row or a row past the
    /// array, in the order a cycle's write-back meets them.
    pub(crate) fn check_write(&self, dst: usize) -> Result<()> {
        if self.zero_row == Some(dst) {
            return Err(SramError::ZeroRowClobbered { row: dst });
        }
        check_row(dst)
    }

    /// The checks of a cycle that senses `a` and `b` and writes `dst`.
    fn check_logic(&self, a: usize, b: usize, dst: usize) -> Result<()> {
        check_sense(a, b)?;
        self.check_write(dst)
    }

    pub(crate) fn guard_zero_row(&self, op: &Operand) -> Result<()> {
        if let Some(z) = self.zero_row {
            if op.contains_row(z) {
                return Err(SramError::ZeroRowClobbered { row: z });
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Runs
    // ------------------------------------------------------------------

    /// Runs `steps` as one operation, for a caller that checked every row
    /// the steps touch: the steps see this array's latches, charge a zeroed
    /// delta and record into the schedule in progress, if any. Afterwards
    /// the latches are committed and the delta, which is returned, is added
    /// to the array's counters.
    #[inline]
    pub(crate) fn run(&mut self, steps: impl FnOnce(&mut Run<'_>)) -> CycleStats {
        let mut run = Run {
            cells: &mut self.array,
            recording: self.recording.as_deref_mut().map(|(_, schedule)| schedule),
            zero_row: self.zero_row,
            carry: self.carry,
            tag: self.tag,
            stats: CycleStats::new(),
        };
        steps(&mut run);
        let Run {
            carry, tag, stats, ..
        } = run;
        self.carry = carry;
        self.tag = tag;
        self.stats += stats;
        stats
    }
}

/// Every column set to `bit`.
#[inline]
fn splat(bit: bool) -> BitRow {
    if bit {
        BitRow::ones()
    } else {
        BitRow::zero()
    }
}

/// One operation's cycles on a [`ComputeArray`] ([`ComputeArray::run`]):
/// the array's cells and recorder, borrowed, and its carry and tag latches
/// and the counters charged so far, held here until the operation ends.
///
/// Each step method is one cycle. It trusts that the caller checked every
/// row it passes, charges its cycle, and appends its [`Step`](crate::Step)
/// with the label of the micro-op that issues it while recording is on.
pub(crate) struct Run<'a> {
    cells: &'a mut SramArray,
    recording: Option<&'a mut Schedule>,
    zero_row: Option<usize>,
    carry: BitRow,
    tag: BitRow,
    stats: CycleStats,
}

// The steps and the helpers they call, here and in `crate::ops`, are
// `#[inline(always)]`, so each operation compiles to one loop nest that
// keeps its run's latches and counters in registers. Against steps that
// latched and charged through the array on every cycle, perfbench's
// `mini_inception_dense` read a median `host_ref_ms_p50` of 2.58 ref ms
// against 3.20 (10 alternating 20 s pairs on a 2-core x86-64 host, seeds
// 6101-6110, lower in 10 of 10), with the accumulating full add below.
#[allow(clippy::inline_always)]
impl Run<'_> {
    /// The cells, for the control FSM's knowledge of which operand rows
    /// are zero on every lane (it reads no cycle).
    pub(crate) fn cells(&self) -> &SramArray {
        self.cells
    }

    /// Presets every carry latch (control FSM, no cycle).
    #[inline(always)]
    pub(crate) fn preset_carry(&mut self, value: bool) {
        self.carry = splat(value);
    }

    /// Presets every tag latch (control FSM, no cycle).
    #[inline(always)]
    pub(crate) fn preset_tag(&mut self, value: bool) {
        self.tag = splat(value);
    }

    /// Counts one scheduled multiplier-bit round (dense or skipped).
    #[inline(always)]
    pub(crate) fn note_mul_round(&mut self) {
        self.stats.mul_rounds += 1;
    }

    /// Counts one elided multiplier-bit round and the compute cycles the
    /// dense schedule would have spent on it.
    #[inline(always)]
    pub(crate) fn note_skipped_round(&mut self, saved_cycles: u64) {
        self.stats.skipped_rounds += 1;
        self.stats.skipped_cycles += saved_cycles;
    }

    /// Counts one dynamically elided input-bit round and the compute
    /// cycles the dense schedule would have spent on it.
    #[inline(always)]
    pub(crate) fn note_input_round_skipped(&mut self, saved_cycles: u64) {
        self.stats.input_rounds_skipped += 1;
        self.stats.skipped_cycles += saved_cycles;
    }

    /// Counts add-chain cycles elided by static multiplicand truncation
    /// (no round is skipped; the dense schedule would have executed them).
    #[inline(always)]
    pub(crate) fn note_truncated_cycles(&mut self, saved_cycles: u64) {
        self.stats.skipped_cycles += saved_cycles;
    }

    /// The [`ComputeArray::op_copy`] cycle.
    #[inline(always)]
    pub(crate) fn copy(&mut self, src: usize, dst: usize, pred: Predicate) {
        let value = self.cells.row(src);
        self.compute(&[src], dst, value, pred, "op_copy");
    }

    /// The [`ComputeArray::op_not`] cycle; `zero` is the zero row.
    #[inline(always)]
    pub(crate) fn not(&mut self, src: usize, zero: usize, dst: usize, pred: Predicate) {
        let out = self.cells.sense_rows(src, zero).nor;
        self.compute(&[src, zero], dst, out, pred, "op_not");
    }

    /// The cycle of [`ComputeArray::op_and`], `op_or`, `op_xor` or `op_nor`.
    #[inline(always)]
    pub(crate) fn logic(&mut self, op: LogicOp, a: usize, b: usize, dst: usize, pred: Predicate) {
        let sensed = self.cells.sense_rows(a, b);
        let (out, label) = match op {
            LogicOp::And => (sensed.and, "op_and"),
            LogicOp::Or => (sensed.nor.not(), "op_or"),
            LogicOp::Xor => (sensed.xor, "op_xor"),
            LogicOp::Nor => (sensed.nor, "op_nor"),
        };
        self.compute(&[a, b], dst, out, pred, label);
    }

    /// The [`ComputeArray::op_full_add`] cycle.
    #[inline(always)]
    pub(crate) fn full_add(&mut self, a: usize, b: usize, dst: usize, pred: Predicate) {
        debug_assert_ne!(a, b, "two-row sense of word line {a} against itself");
        let (ra, rb) = (self.cells.row(a), self.cells.row(b));
        self.add(ra, rb, dst == b, &[a, b], dst, pred, "op_full_add");
    }

    /// The [`ComputeArray::op_full_add_const`] cycle.
    #[inline(always)]
    pub(crate) fn full_add_const(&mut self, a: usize, kbit: bool, dst: usize, pred: Predicate) {
        let ra = self.cells.row(a);
        self.add(
            splat(kbit),
            ra,
            dst == a,
            &[a],
            dst,
            pred,
            "op_full_add_const",
        );
    }

    /// The [`ComputeArray::op_write_const`] cycle.
    #[inline(always)]
    pub(crate) fn write_const(&mut self, dst: usize, bit: bool, pred: Predicate) {
        self.compute(&[], dst, splat(bit), pred, "op_write_const");
    }

    /// The [`ComputeArray::op_write_carry`] cycle.
    #[inline(always)]
    pub(crate) fn write_carry(&mut self, dst: usize, pred: Predicate) {
        self.compute(&[], dst, self.carry, pred, "op_write_carry");
    }

    /// The [`ComputeArray::op_write_tag`] cycle.
    #[inline(always)]
    pub(crate) fn write_tag(&mut self, dst: usize, pred: Predicate) {
        self.compute(&[], dst, self.tag, pred, "op_write_tag");
    }

    /// The [`ComputeArray::op_load_tag`] cycle.
    #[inline(always)]
    pub(crate) fn load_tag(&mut self, src: usize) {
        self.tag = self.cells.row(src);
        self.tick(StepKind::Compute, &[src], &[], "op_load_tag");
    }

    /// The [`ComputeArray::op_detect_zero`] cycle.
    #[inline(always)]
    pub(crate) fn detect_zero(&mut self, src: usize) -> bool {
        self.tag = self.cells.row(src);
        self.tick(StepKind::Compute, &[src], &[], "op_detect_zero");
        self.stats.detect_cycles += 1;
        self.tag.is_zero()
    }

    /// The [`ComputeArray::op_load_tag_not`] cycle; `zero` is the zero row.
    #[inline(always)]
    pub(crate) fn load_tag_not(&mut self, src: usize, zero: usize) {
        self.tag = self.cells.sense_rows(src, zero).nor;
        self.tick(StepKind::Compute, &[src, zero], &[], "op_load_tag_not");
    }

    /// The [`ComputeArray::op_and_tag`] cycle: the complement form senses
    /// `src` against the zero row `Some(zero)`.
    #[inline(always)]
    pub(crate) fn and_tag(&mut self, src: usize, complement_against: Option<usize>) {
        if let Some(zero) = complement_against {
            self.tag = self.tag.and(&self.cells.sense_rows(src, zero).nor);
            self.tick(StepKind::Compute, &[src, zero], &[], "op_and_tag");
        } else {
            self.tag = self.tag.and(&self.cells.row(src));
            self.tick(StepKind::Compute, &[src], &[], "op_and_tag");
        }
    }

    /// A cycle of `kind` that reads `row` out: a lane move's read (a
    /// compute cycle through the column mux), [`ComputeArray::access_read_row`]
    /// or an inter-array transfer's read-out (access cycles).
    #[inline(always)]
    pub(crate) fn read_row(&mut self, kind: StepKind, row: usize, label: &'static str) -> BitRow {
        self.tick(kind, &[row], &[], label);
        self.cells.row(row)
    }

    /// A cycle of `kind` that senses `reads` and writes `value` into `dst`
    /// on the lanes of `mask`: a lane move's read-modify-write (a compute
    /// cycle that senses `dst`) or an inter-array transfer's write-in (an
    /// access cycle).
    #[inline(always)]
    pub(crate) fn write_lanes(
        &mut self,
        kind: StepKind,
        reads: &[usize],
        dst: usize,
        value: BitRow,
        mask: &BitRow,
        label: &'static str,
    ) {
        let merged = value.select(&self.cells.row(dst), mask);
        self.cells.set_row(dst, merged);
        self.tick(kind, reads, &[dst], label);
    }

    /// A full-adder cycle over the operand rows `x` and `y` with the carry
    /// latch as carry-in: writes the sum to `dst` and latches the
    /// carry-out, both gated per column under [`Predicate::Tag`].
    /// `y_is_dst` says that `dst` is `y`'s row, the accumulating form.
    ///
    /// With `t = x ^ c`, the sum is `y ^ t` and the carry-out
    /// `c ^ (t & (y ^ c))`, the majority of the three bits. So on the
    /// columns the cycle writes, `flip` (`t`, under the tag) is where the
    /// sum differs from `y` and, with `y ^ c`, where the carry changes,
    /// and an accumulating write is `y ^ flip` without reading the row
    /// back for the merge.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn add(
        &mut self,
        x: BitRow,
        y: BitRow,
        y_is_dst: bool,
        reads: &[usize],
        dst: usize,
        pred: Predicate,
        label: &'static str,
    ) {
        let t = x.xor(&self.carry);
        let flip = match pred {
            Predicate::Always => t,
            Predicate::Tag => t.and(&self.tag),
        };
        if y_is_dst {
            self.compute(reads, dst, y.xor(&flip), Predicate::Always, label);
        } else {
            self.compute(reads, dst, y.xor(&t), pred, label);
        }
        self.carry = self.carry.xor(&flip.and(&y.xor(&self.carry)));
    }

    /// A compute cycle that senses `reads` and commits `value` to `dst`.
    /// Only a tag-gated write reads the row it merges into.
    #[inline(always)]
    fn compute(
        &mut self,
        reads: &[usize],
        dst: usize,
        value: BitRow,
        pred: Predicate,
        label: &'static str,
    ) {
        debug_assert_ne!(self.zero_row, Some(dst), "write-back into the zero row");
        let merged = match pred {
            Predicate::Always => value,
            Predicate::Tag => value.select(&self.cells.row(dst), &self.tag),
        };
        self.cells.set_row(dst, merged);
        self.tick(StepKind::Compute, reads, &[dst], label);
    }

    /// Charges one cycle of `kind` that senses `reads` and drives
    /// `writes`, and records it while recording is on.
    #[inline(always)]
    fn tick(&mut self, kind: StepKind, reads: &[usize], writes: &[usize], label: &'static str) {
        match kind {
            StepKind::Compute => self.stats.compute_cycles += 1,
            StepKind::Access => self.stats.access_cycles += 1,
        }
        if let Some(schedule) = &mut self.recording {
            schedule.push(Step {
                kind,
                reads: reads.into(),
                writes: writes.into(),
                label,
            });
        }
    }
}

/// Rejects a lane run `first_lane..first_lane + len` that ends past the last
/// bit line.
fn check_lanes(first_lane: usize, len: usize) -> Result<()> {
    let end = first_lane.saturating_add(len);
    if end > COLS {
        return Err(SramError::ColOutOfRange { col: end });
    }
    Ok(())
}

impl Default for ComputeArray {
    fn default() -> Self {
        ComputeArray::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr() -> ComputeArray {
        ComputeArray::with_zero_row(255).unwrap()
    }

    #[test]
    fn poke_peek_roundtrip() {
        let mut a = arr();
        let op = Operand::new(0, 12).unwrap();
        a.poke_lane(5, op, 0xABC);
        assert_eq!(a.peek_lane(5, op), 0xABC);
        assert_eq!(a.peek_lane(6, op), 0);
        assert_eq!(a.stats().total_cycles(), 0, "poke/peek are free");
    }

    /// Cells, latches and counters: everything a rejected call must leave
    /// as it found it.
    fn snapshot(a: &ComputeArray) -> (SramArray, BitRow, BitRow, CycleStats) {
        (a.cells().clone(), *a.carry(), *a.tag(), a.stats())
    }

    /// An array whose rows 0..64 hold lane-dependent data and whose carry
    /// and tag latches are set.
    fn filled() -> ComputeArray {
        let mut a = arr();
        let op = Operand::new(0, 64).unwrap();
        let values: Vec<u64> = (0..COLS as u64).map(|l| l * 0x9E37_79B9).collect();
        a.poke_lanes(0, op, &values).unwrap();
        a.preset_carry(true);
        a.op_load_tag(3).unwrap();
        a.reset_stats();
        a
    }

    #[test]
    fn poke_lanes_rejects_runs_past_the_last_lane_untouched() {
        let mut a = filled();
        let before = snapshot(&a);
        let op = Operand::new(8, 8).unwrap();
        assert_eq!(
            a.poke_lanes(0, op, &[1; COLS + 1]),
            Err(SramError::ColOutOfRange { col: COLS + 1 })
        );
        assert_eq!(
            a.poke_lanes(250, op, &[1; 7]),
            Err(SramError::ColOutOfRange { col: 257 })
        );
        assert_eq!(snapshot(&a), before);
        let mut out = [7u64; 10];
        assert_eq!(
            a.peek_lanes(250, op, &mut out),
            Err(SramError::ColOutOfRange { col: 260 })
        );
        assert_eq!(out, [7; 10], "a rejected peek leaves its buffer alone");
    }

    #[test]
    fn strided_peeks_read_every_stride_th_lane() {
        let a = filled();
        let op = Operand::new(0, 64).unwrap();
        let mut all = [0u64; COLS];
        a.peek_lanes(0, op, &mut all).unwrap();
        for (first, stride, len) in [(0, 1, 256), (3, 1, 9), (0, 4, 64), (5, 128, 2), (7, 0, 3)] {
            let mut out = vec![0; len];
            a.peek_lanes_strided(first, stride, op, &mut out).unwrap();
            let want: Vec<u64> = (0..len).map(|i| all[first + i * stride]).collect();
            assert_eq!(out, want, "{first} by {stride} x{len}");
        }
        let mut out = [7u64; 3];
        assert_eq!(
            a.peek_lanes_strided(0, 128, op, &mut out),
            Err(SramError::ColOutOfRange { col: 257 })
        );
        assert_eq!(out, [7; 3], "a rejected peek leaves its buffer alone");
    }

    #[test]
    fn poke_lanes_rejects_values_wider_than_the_operand_untouched() {
        let mut a = filled();
        let before = snapshot(&a);
        let op = Operand::new(8, 8).unwrap();
        assert_eq!(
            a.poke_lanes(0, op, &[3, 255, 256, 4]),
            Err(SramError::DestinationTooNarrow {
                needed: 9,
                available: 8
            })
        );
        assert_eq!(snapshot(&a), before);
    }

    #[test]
    fn poke_lanes_rejects_operands_over_the_zero_row_untouched() {
        let mut a = filled();
        let before = snapshot(&a);
        let op = Operand::new(250, 6).unwrap();
        assert_eq!(
            a.poke_lanes(0, op, &[0, 1, 2]),
            Err(SramError::ZeroRowClobbered { row: 255 })
        );
        assert_eq!(snapshot(&a), before);
    }

    #[test]
    fn loaded_planes_equal_poked_lanes() {
        let values: Vec<u64> = (0..200u64).map(|l| (l * 0x9E37) & 0xFF_FFFF).collect();
        let mut rows = [BitRow::ones(); 24];
        crate::pack_lanes(&values, &mut rows).unwrap();
        // A plane narrower than the operand clears the operand's top rows.
        let (op, poked_op) = (Operand::new(40, 32).unwrap(), Operand::new(0, 32).unwrap());
        let mut loaded = filled();
        loaded.load_rows(op, &rows).unwrap();
        let mut poked = filled();
        poked.poke_lanes(0, poked_op, &values).unwrap();
        poked.poke_lanes(200, poked_op, &[0; 56]).unwrap();
        for lane in 0..COLS {
            assert_eq!(loaded.peek_lane(lane, op), poked.peek_lane(lane, poked_op));
        }
        assert_eq!(loaded.stats().total_cycles(), 0, "loading is free");
    }

    #[test]
    fn load_rows_rejects_wide_planes_and_the_zero_row_untouched() {
        let mut a = filled();
        let before = snapshot(&a);
        let rows = [BitRow::ones(); 9];
        assert_eq!(
            a.load_rows(Operand::new(8, 8).unwrap(), &rows),
            Err(SramError::DestinationTooNarrow {
                needed: 9,
                available: 8
            })
        );
        assert_eq!(
            a.load_rows(Operand::new(247, 9).unwrap(), &rows),
            Err(SramError::ZeroRowClobbered { row: 255 })
        );
        assert_eq!(snapshot(&a), before);
    }

    #[test]
    fn pack_lanes_rejects_bad_runs_untouched() {
        let mut rows = [BitRow::ones(); 8];
        assert_eq!(
            crate::pack_lanes(&[0; COLS + 1], &mut rows),
            Err(SramError::ColOutOfRange { col: COLS + 1 })
        );
        assert_eq!(
            crate::pack_lanes(&[1, 256], &mut rows),
            Err(SramError::DestinationTooNarrow {
                needed: 9,
                available: 8
            })
        );
        assert_eq!(rows, [BitRow::ones(); 8]);
    }

    #[test]
    fn poke_lanes_zero_fills_bits_past_64_and_keeps_other_lanes() {
        let mut a = arr();
        let wide = Operand::new(0, 80).unwrap();
        for lane in [9, 10, 11] {
            a.poke_lane(lane, wide, u64::MAX);
        }
        a.op_write_const(70, true, Predicate::Always).unwrap();
        a.poke_lanes(10, wide, &[5]).unwrap();
        assert_eq!(a.peek_lane(10, wide), 5);
        assert!(!a.cells().get(70, 10).unwrap(), "bit 70 of lane 10 cleared");
        assert!(a.cells().get(70, 9).unwrap() && a.cells().get(70, 11).unwrap());
        assert_eq!(a.peek_lane(9, wide), u64::MAX);
    }

    #[test]
    fn signed_roundtrip() {
        let mut a = arr();
        let op = Operand::new(0, 16).unwrap();
        for v in [-32768i64, -1, 0, 1, 32767] {
            a.poke_lane_signed(9, op, v);
            assert_eq!(a.peek_lane_signed(9, op), v);
        }
    }

    #[test]
    fn copy_costs_one_cycle() {
        let mut a = arr();
        a.poke_lane(0, Operand::new(3, 1).unwrap(), 1);
        a.op_copy(3, 10, Predicate::Always).unwrap();
        assert!(a.cells().get(10, 0).unwrap());
        assert_eq!(a.stats().compute_cycles, 1);
    }

    #[test]
    fn predicated_write_respects_tag() {
        let mut a = arr();
        // Row 0 all ones on lanes 0..4.
        for lane in 0..4 {
            a.poke_lane(lane, Operand::new(0, 1).unwrap(), 1);
        }
        // Tag set only on lanes 0 and 2 (stored in row 1).
        a.poke_lane(0, Operand::new(1, 1).unwrap(), 1);
        a.poke_lane(2, Operand::new(1, 1).unwrap(), 1);
        a.op_load_tag(1).unwrap();
        a.op_copy(0, 5, Predicate::Tag).unwrap();
        assert!(a.cells().get(5, 0).unwrap());
        assert!(!a.cells().get(5, 1).unwrap());
        assert!(a.cells().get(5, 2).unwrap());
        assert!(!a.cells().get(5, 3).unwrap());
    }

    #[test]
    fn full_add_updates_carry() {
        let mut a = arr();
        a.poke_lane(0, Operand::new(0, 1).unwrap(), 1);
        a.poke_lane(0, Operand::new(1, 1).unwrap(), 1);
        a.preset_carry(false);
        a.op_full_add(0, 1, 2, Predicate::Always).unwrap();
        // 1 + 1 + 0 = sum 0 carry 1
        assert!(!a.cells().get(2, 0).unwrap());
        assert!(a.carry().get(0));
    }

    #[test]
    fn carry_gating_under_tag() {
        let mut a = arr();
        // lanes 0 and 1 both have a=1, b=1; tag set only on lane 0.
        for lane in 0..2 {
            a.poke_lane(lane, Operand::new(0, 1).unwrap(), 1);
            a.poke_lane(lane, Operand::new(1, 1).unwrap(), 1);
        }
        a.poke_lane(0, Operand::new(2, 1).unwrap(), 1);
        a.op_load_tag(2).unwrap();
        a.preset_carry(false);
        a.op_full_add(0, 1, 3, Predicate::Tag).unwrap();
        assert!(a.carry().get(0), "tagged lane updates carry");
        assert!(!a.carry().get(1), "untagged lane keeps carry");
    }

    #[test]
    fn not_requires_zero_row() {
        let mut a = ComputeArray::new();
        assert_eq!(
            a.op_not(0, 1, Predicate::Always),
            Err(SramError::MissingZeroRow)
        );
    }

    #[test]
    fn zero_row_is_protected() {
        let mut a = arr();
        assert_eq!(
            a.op_write_const(255, true, Predicate::Always),
            Err(SramError::ZeroRowClobbered { row: 255 })
        );
        // Writing zeros through the access path is allowed (it stays zero).
        a.access_write_row(255, BitRow::zero()).unwrap();
    }

    #[test]
    fn access_cycles_are_counted_separately() {
        let mut a = arr();
        let _ = a.access_read_row(0).unwrap();
        a.access_write_row(1, BitRow::ones()).unwrap();
        assert_eq!(a.stats().access_cycles, 2);
        assert_eq!(a.stats().compute_cycles, 0);
    }
}
