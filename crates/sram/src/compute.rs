//! The compute array: SRAM storage + column peripherals + cycle accounting.
//!
//! This module defines the single-cycle **micro-ops** that the hardware
//! column peripheral of Figure 7 can execute. Everything more complex
//! (multi-bit add, multiply, reduction, ...) is composed from these micro-ops
//! in [`crate::ops`], so the cycle count of every high-level operation is the
//! length of its micro-op sequence — derived, not asserted. Every micro-op
//! charges its cycle through one place, which also appends the cycle's
//! word-line [`Step`](crate::Step) while recording is on.

use crate::{BitRow, CycleStats, Operand, Result, Schedule, SramArray, SramError, StepKind, COLS};

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
    /// Counters at `start_recording` plus the steps issued since. Boxed so
    /// the recording-off check in every micro-op is a single pointer test
    /// that leaves the hot latch and counter fields alone.
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
    /// allocated.
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
        self.carry = if value {
            BitRow::ones()
        } else {
            BitRow::zero()
        };
    }

    /// Sets every tag latch to `value` (control-FSM preset, zero cycles).
    pub fn preset_tag(&mut self, value: bool) {
        self.tag = if value {
            BitRow::ones()
        } else {
            BitRow::zero()
        };
    }

    // ------------------------------------------------------------------
    // Single-cycle compute micro-ops
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
        let value = self.array.read_row(src)?;
        self.write_back(dst, value, pred)?;
        self.tick_compute(&[src], &[dst], "op_copy");
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
        let out = self.array.sense(src, zero)?.nor;
        self.write_back(dst, out, pred)?;
        self.tick_compute(&[src, zero], &[dst], "op_not");
        Ok(())
    }

    /// Compute cycle: `dst <- a AND b` (bit-line output of a two-row sense).
    ///
    /// # Errors
    ///
    /// Propagates sensing and write-back errors.
    pub fn op_and(&mut self, a: usize, b: usize, dst: usize, pred: Predicate) -> Result<()> {
        let out = self.array.sense(a, b)?.and;
        self.write_back(dst, out, pred)?;
        self.tick_compute(&[a, b], &[dst], "op_and");
        Ok(())
    }

    /// Compute cycle: `dst <- a NOR b` (bit-line-complement output).
    ///
    /// # Errors
    ///
    /// Propagates sensing and write-back errors.
    pub fn op_nor(&mut self, a: usize, b: usize, dst: usize, pred: Predicate) -> Result<()> {
        let out = self.array.sense(a, b)?.nor;
        self.write_back(dst, out, pred)?;
        self.tick_compute(&[a, b], &[dst], "op_nor");
        Ok(())
    }

    /// Compute cycle: `dst <- a OR b` (complement of the NOR output).
    ///
    /// # Errors
    ///
    /// Propagates sensing and write-back errors.
    pub fn op_or(&mut self, a: usize, b: usize, dst: usize, pred: Predicate) -> Result<()> {
        let out = self.array.sense(a, b)?.nor.not();
        self.write_back(dst, out, pred)?;
        self.tick_compute(&[a, b], &[dst], "op_or");
        Ok(())
    }

    /// Compute cycle: `dst <- a XOR b` (peripheral NOR of the two sense-amp
    /// outputs).
    ///
    /// # Errors
    ///
    /// Propagates sensing and write-back errors.
    pub fn op_xor(&mut self, a: usize, b: usize, dst: usize, pred: Predicate) -> Result<()> {
        let out = self.array.sense(a, b)?.xor;
        self.write_back(dst, out, pred)?;
        self.tick_compute(&[a, b], &[dst], "op_xor");
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
        let sensed = self.array.sense(a, b)?;
        let sum = sensed.xor.xor(&self.carry);
        let carry_out = sensed.and.or(&sensed.xor.and(&self.carry));
        self.write_back(dst, sum, pred)?;
        self.carry = match pred {
            Predicate::Always => carry_out,
            Predicate::Tag => carry_out.select(&self.carry, &self.tag),
        };
        self.tick_compute(&[a, b], &[dst], "op_full_add");
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
        let ra = self.array.read_row(a)?;
        let rb = if kbit { BitRow::ones() } else { BitRow::zero() };
        let xor = ra.xor(&rb);
        let and = ra.and(&rb);
        let sum = xor.xor(&self.carry);
        let carry_out = and.or(&xor.and(&self.carry));
        self.write_back(dst, sum, pred)?;
        self.carry = match pred {
            Predicate::Always => carry_out,
            Predicate::Tag => carry_out.select(&self.carry, &self.tag),
        };
        self.tick_compute(&[a], &[dst], "op_full_add_const");
        Ok(())
    }

    /// Compute cycle: loads the tag latches from row `src`.
    ///
    /// # Errors
    ///
    /// Propagates row-range errors.
    pub fn op_load_tag(&mut self, src: usize) -> Result<()> {
        self.tag = self.array.read_row(src)?;
        self.tick_compute(&[src], &[], "op_load_tag");
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
        self.tag = self.array.read_row(src)?;
        self.tick_compute(&[src], &[], "op_detect_zero");
        self.stats.detect_cycles += 1;
        Ok(self.tag.is_zero())
    }

    /// Compute cycle: loads the tag latches with the complement of row
    /// `src` (sensed against the zero row).
    ///
    /// # Errors
    ///
    /// Returns [`SramError::MissingZeroRow`] when no zero row is configured.
    pub fn op_load_tag_not(&mut self, src: usize) -> Result<()> {
        let zero = self.require_zero_row()?;
        self.tag = self.array.sense(src, zero)?.nor;
        self.tick_compute(&[src, zero], &[], "op_load_tag_not");
        Ok(())
    }

    /// Compute cycle: ANDs row `src` (or its complement) into the tag
    /// latches — the accumulation step of bit-serial equality search.
    ///
    /// # Errors
    ///
    /// Complement form requires the zero row.
    pub fn op_and_tag(&mut self, src: usize, complement: bool) -> Result<()> {
        if complement {
            let zero = self.require_zero_row()?;
            self.tag = self.tag.and(&self.array.sense(src, zero)?.nor);
            self.tick_compute(&[src, zero], &[], "op_and_tag");
        } else {
            self.tag = self.tag.and(&self.array.read_row(src)?);
            self.tick_compute(&[src], &[], "op_and_tag");
        }
        Ok(())
    }

    /// Compute cycle: writes the carry latches to row `dst`.
    ///
    /// # Errors
    ///
    /// Propagates write-back errors.
    pub fn op_write_carry(&mut self, dst: usize, pred: Predicate) -> Result<()> {
        let carry = self.carry;
        self.write_back(dst, carry, pred)?;
        self.tick_compute(&[], &[dst], "op_write_carry");
        Ok(())
    }

    /// Compute cycle: writes the tag latches to row `dst`.
    ///
    /// # Errors
    ///
    /// Propagates write-back errors.
    pub fn op_write_tag(&mut self, dst: usize, pred: Predicate) -> Result<()> {
        let tag = self.tag;
        self.write_back(dst, tag, pred)?;
        self.tick_compute(&[], &[dst], "op_write_tag");
        Ok(())
    }

    /// Compute cycle: writes an all-zero (or all-one) row to `dst`,
    /// optionally tag-gated. `ReLU` uses the tag-gated zero write.
    ///
    /// # Errors
    ///
    /// Propagates write-back errors.
    pub fn op_write_const(&mut self, dst: usize, bit: bool, pred: Predicate) -> Result<()> {
        let value = if bit { BitRow::ones() } else { BitRow::zero() };
        self.write_back(dst, value, pred)?;
        self.tick_compute(&[], &[dst], "op_write_const");
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
        let out = self.array.read_row(row)?;
        self.tick_access(&[row], &[], "access_read_row");
        Ok(out)
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
        self.array.write_row(row, value)?;
        self.tick_access(&[], &[row], "access_write_row");
        Ok(())
    }

    // ------------------------------------------------------------------
    // Zero-cost test/loader accessors (no cycles charged; documented)
    // ------------------------------------------------------------------

    /// Writes `value` into `lane`'s transposed operand without charging
    /// cycles. Test-harness/loader convenience: timing for data placement is
    /// accounted by the data-movement model, not per bit.
    ///
    /// # Panics
    ///
    /// Panics if the lane is out of range, the operand is narrower than the
    /// significant bits of `value`, or the operand overlaps the zero row.
    pub fn poke_lane(&mut self, lane: usize, op: Operand, value: u64) {
        assert!(lane < COLS, "lane {lane} out of range");
        if op.bits() < 64 {
            assert!(
                value <= op.max_value(),
                "value {value} does not fit in {} bits",
                op.bits()
            );
        }
        if let Some(z) = self.zero_row {
            assert!(
                !op.contains_row(z),
                "operand {op} overlaps the zero row {z}"
            );
        }
        for i in 0..op.bits() {
            let bit = if i < 64 { (value >> i) & 1 == 1 } else { false };
            self.array
                .set(op.row(i), lane, bit)
                .expect("validated operand");
        }
    }

    /// Reads `lane`'s transposed operand without charging cycles
    /// (test-harness convenience; result truncated to 64 bits).
    ///
    /// # Panics
    ///
    /// Panics if the lane is out of range.
    #[must_use]
    pub fn peek_lane(&self, lane: usize, op: Operand) -> u64 {
        assert!(lane < COLS, "lane {lane} out of range");
        let mut value = 0u64;
        for i in 0..op.bits().min(64) {
            if self.array.get(op.row(i), lane).expect("validated operand") {
                value |= 1 << i;
            }
        }
        value
    }

    /// Reads `lane`'s transposed operand as a sign-extended two's-complement
    /// integer (test-harness convenience).
    ///
    /// # Panics
    ///
    /// Panics if the lane is out of range or the operand is wider than 64
    /// bits.
    #[must_use]
    pub fn peek_lane_signed(&self, lane: usize, op: Operand) -> i64 {
        assert!(op.bits() <= 64, "operand wider than 64 bits");
        let raw = self.peek_lane(lane, op);
        let bits = op.bits();
        if bits == 64 {
            raw as i64
        } else if raw >> (bits - 1) & 1 == 1 {
            (raw as i64) - (1i64 << bits)
        } else {
            raw as i64
        }
    }

    /// Writes a two's-complement value into `lane`'s operand (test-harness
    /// convenience).
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in `op.bits()` two's-complement bits.
    pub fn poke_lane_signed(&mut self, lane: usize, op: Operand, value: i64) {
        let bits = op.bits();
        assert!(bits <= 64);
        if bits < 64 {
            let lo = -(1i64 << (bits - 1));
            let hi = (1i64 << (bits - 1)) - 1;
            assert!(
                (lo..=hi).contains(&value),
                "value {value} does not fit in {bits} signed bits"
            );
        }
        let mask = if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        self.poke_lane(lane, op, (value as u64) & mask);
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    pub(crate) fn require_zero_row(&self) -> Result<usize> {
        self.zero_row.ok_or(SramError::MissingZeroRow)
    }

    /// Crate-internal raw access for operations that move data across bit
    /// lines (lane moves, inter-array transfers); the caller charges each
    /// cycle through [`ComputeArray::tick_compute`] or
    /// [`ComputeArray::tick_access`].
    pub(crate) fn raw_cells_mut(&mut self) -> &mut SramArray {
        &mut self.array
    }

    /// Records one scheduled multiplier-bit round (dense or skipped).
    pub(crate) fn note_mul_round(&mut self) {
        self.stats.mul_rounds += 1;
    }

    /// Records one elided multiplier-bit round and the compute cycles the
    /// dense schedule would have spent on it.
    pub(crate) fn note_skipped_round(&mut self, saved_cycles: u64) {
        self.stats.skipped_rounds += 1;
        self.stats.skipped_cycles += saved_cycles;
    }

    /// Records one dynamically elided input-bit round and the compute
    /// cycles the dense schedule would have spent on it.
    pub(crate) fn note_input_round_skipped(&mut self, saved_cycles: u64) {
        self.stats.input_rounds_skipped += 1;
        self.stats.skipped_cycles += saved_cycles;
    }

    /// Records add-chain cycles elided by static multiplicand truncation
    /// (no round is skipped; the dense schedule would have executed them).
    pub(crate) fn note_truncated_cycles(&mut self, saved_cycles: u64) {
        self.stats.skipped_cycles += saved_cycles;
    }

    pub(crate) fn guard_zero_row(&self, op: &Operand) -> Result<()> {
        if let Some(z) = self.zero_row {
            if op.contains_row(z) {
                return Err(SramError::ZeroRowClobbered { row: z });
            }
        }
        Ok(())
    }

    fn write_back(&mut self, dst: usize, value: BitRow, pred: Predicate) -> Result<()> {
        if self.zero_row == Some(dst) {
            return Err(SramError::ZeroRowClobbered { row: dst });
        }
        let current = self.array.read_row(dst)?;
        let merged = match pred {
            Predicate::Always => value,
            Predicate::Tag => value.select(&current, &self.tag),
        };
        self.array.write_row(dst, merged)
    }

    /// Charges one compute cycle that senses `reads` and drives `writes`.
    #[inline]
    pub(crate) fn tick_compute(&mut self, reads: &[usize], writes: &[usize], label: &'static str) {
        self.stats.compute_cycles += 1;
        self.record(StepKind::Compute, reads, writes, label);
    }

    /// Charges one access cycle that reads `reads` and writes `writes`.
    #[inline]
    pub(crate) fn tick_access(&mut self, reads: &[usize], writes: &[usize], label: &'static str) {
        self.stats.access_cycles += 1;
        self.record(StepKind::Access, reads, writes, label);
    }

    #[inline]
    fn record(&mut self, kind: StepKind, reads: &[usize], writes: &[usize], label: &'static str) {
        if let Some(recording) = &mut self.recording {
            recording.1.push(kind, reads, writes, label);
        }
    }
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
