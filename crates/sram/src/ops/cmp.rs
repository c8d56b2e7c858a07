//! Comparisons, max/min, `ReLU`, and saturation — the predication-based
//! supporting functions of Section IV-D.

use crate::compute::Run;
use crate::{ComputeArray, CycleStats, Operand, Predicate, Result, SramError};

impl ComputeArray {
    /// Trial subtraction that leaves `a - b`'s **no-borrow flag** in the
    /// carry latch without modifying `a`, `b`, or any named region other
    /// than the single `dump_row` (which receives meaningless sums).
    ///
    /// After the call, lane `l`'s carry is `1` iff `a[l] >= b[l]` unsigned.
    /// Takes `2n` compute cycles (`n` complement + `n` adds).
    ///
    /// Its steps serve [`ComputeArray::max_assign`] and the min/max tree
    /// reductions; the operation itself is only called by tests.
    ///
    /// # Errors
    ///
    /// Requires the zero row, clear of `b`, of the `n` scratch rows and of
    /// `dump_row`; `scratch` must hold `n` bits disjoint from the inputs,
    /// and `dump_row` must lie in the array, outside every named region.
    #[cfg(test)]
    pub(crate) fn compare_ge(
        &mut self,
        a: Operand,
        b: Operand,
        scratch: Operand,
        dump_row: usize,
    ) -> Result<CycleStats> {
        let zero = self.check_compare_ge(a, b, scratch, dump_row)?;
        Ok(self.run(|run| run.compare_ge(a, b, scratch, dump_row, zero)))
    }

    /// The checks of [`ComputeArray::compare_ge`]; returns the zero row.
    fn check_compare_ge(
        &self,
        a: Operand,
        b: Operand,
        scratch: Operand,
        dump_row: usize,
    ) -> Result<usize> {
        let n = a.bits();
        if b.bits() != n {
            return Err(SramError::OverlappingOperands {
                what: "comparison operands must have equal widths",
            });
        }
        if scratch.bits() < n {
            return Err(SramError::DestinationTooNarrow {
                needed: n,
                available: scratch.bits(),
            });
        }
        if scratch.overlaps(&a) || scratch.overlaps(&b) || a.overlaps(&b) {
            return Err(SramError::OverlappingOperands {
                what: "comparison regions must be pairwise disjoint",
            });
        }
        if a.contains_row(dump_row) || b.contains_row(dump_row) || scratch.contains_row(dump_row) {
            return Err(SramError::OverlappingOperands {
                what: "dump row lies inside a comparison region",
            });
        }
        let zero = self.zero_for_complement(&b)?;
        self.guard_zero_row(&scratch.slice(0, n)?)?;
        self.check_write(dump_row)?;
        Ok(zero)
    }

    /// Unsigned lane-wise running maximum: `acc <- max(acc, x)`.
    ///
    /// This is the paper's max dataflow: subtract the candidate from the
    /// temporary maximum, use the borrow as a mask, and selectively copy the
    /// candidate over the maximum (Section IV-D). `3n + 2` compute cycles.
    ///
    /// # Errors
    ///
    /// `x` and `acc` must have equal widths. The comparison needs the zero
    /// row, clear of `x`, of the `n` scratch rows and of `dump_row`;
    /// `scratch` must hold `n` bits disjoint from `acc` and `x`, and
    /// `dump_row` must lie in the array, outside every named region; `acc`
    /// must be clear of the zero row.
    pub fn max_assign(
        &mut self,
        acc: Operand,
        x: Operand,
        scratch: Operand,
        dump_row: usize,
    ) -> Result<CycleStats> {
        let zero = self.check_extremum(acc, x, scratch, dump_row)?;
        Ok(self.run(|run| run.extremum(true, acc, x, scratch, dump_row, zero)))
    }

    /// The checks of [`ComputeArray::max_assign`] and the min/max tree
    /// reductions; returns the zero row.
    pub(crate) fn check_extremum(
        &self,
        acc: Operand,
        x: Operand,
        scratch: Operand,
        dump_row: usize,
    ) -> Result<usize> {
        let zero = self.check_compare_ge(acc, x, scratch, dump_row)?;
        self.check_copy(x, acc)?;
        Ok(zero)
    }

    /// `ReLU` on a two's-complement operand: lanes with a set sign bit are
    /// overwritten with zero, using the MSB as the write-enable mask exactly
    /// as described in Section IV-D. `n + 1` compute cycles.
    ///
    /// # Errors
    ///
    /// Fails if `x` covers the zero row.
    pub fn relu(&mut self, x: Operand) -> Result<CycleStats> {
        self.guard_zero_row(&x)?;
        Ok(self.run(|run| {
            run.load_tag(x.msb_row());
            for i in 0..x.bits() {
                run.write_const(x.row(i), false, Predicate::Tag);
            }
        }))
    }

    /// Saturating clamp against a broadcast constant: lanes whose unsigned
    /// value exceeds `k` are overwritten with `k` (`2n + 2` compute cycles).
    /// Used as the final saturation of the requantization pipeline.
    ///
    /// # Errors
    ///
    /// Fails if `k` does not fit in the operand, `dump_row` lies inside it,
    /// or the operand or `dump_row` covers the zero row.
    pub fn clamp_max_scalar(&mut self, op: Operand, k: u64, dump_row: usize) -> Result<CycleStats> {
        if op.bits() < 64 && k >= op.max_value() {
            // k == max is a no-op clamp; treat "k beyond range" as an error
            // only when it cannot fit at all.
            if k > op.max_value() {
                return Err(SramError::DestinationTooNarrow {
                    needed: 64 - k.leading_zeros() as usize,
                    available: op.bits(),
                });
            }
        }
        if op.contains_row(dump_row) {
            return Err(SramError::OverlappingOperands {
                what: "dump row lies inside the clamped region",
            });
        }
        // carry = (op >= k + 1) = (op > k), via op + ~(k+1) + 1.
        let Some(threshold) = k.checked_add(1) else {
            return Ok(CycleStats::new()); // nothing exceeds u64::MAX
        };
        self.check_write(dump_row)?;
        self.guard_zero_row(&op)?;
        let notk = !threshold;
        Ok(self.run(|run| {
            run.preset_carry(true);
            for i in 0..op.bits() {
                let bit = i < 64 && (notk >> i) & 1 == 1;
                run.full_add_const(op.row(i), bit, dump_row, Predicate::Always);
            }
            run.write_carry(dump_row, Predicate::Always);
            run.load_tag(dump_row);
            for i in 0..op.bits() {
                let bit = i < 64 && (k >> i) & 1 == 1;
                run.write_const(op.row(i), bit, Predicate::Tag);
            }
        }))
    }
}

#[allow(clippy::inline_always)] // see `Run`
impl Run<'_> {
    /// The cycles of a trial subtraction `a - b` that leaves the no-borrow
    /// flag in the carry latch, for callers that ran
    /// `ComputeArray::check_compare_ge`; `zero` is the zero row.
    #[inline(always)]
    fn compare_ge(
        &mut self,
        a: Operand,
        b: Operand,
        scratch: Operand,
        dump_row: usize,
        zero: usize,
    ) {
        for (x, s) in b.rows().zip(scratch.rows()) {
            self.not(x, zero, s, Predicate::Always);
        }
        self.preset_carry(true);
        for (x, s) in a.rows().zip(scratch.rows()) {
            self.full_add(x, s, dump_row, Predicate::Always);
        }
    }

    /// The cycles of `acc <- max(acc, x)` (`max`) or `acc <- min(acc, x)`,
    /// for callers that ran [`ComputeArray::check_extremum`]; `zero` is the
    /// zero row.
    #[inline(always)]
    pub(crate) fn extremum(
        &mut self,
        max: bool,
        acc: Operand,
        x: Operand,
        scratch: Operand,
        dump_row: usize,
        zero: usize,
    ) {
        self.compare_ge(acc, x, scratch, dump_row, zero);
        // carry = (acc >= x): max replaces where acc < x, min where
        // acc >= x (ties copy harmlessly).
        self.write_carry(dump_row, Predicate::Always);
        if max {
            self.load_tag_not(dump_row, zero);
        } else {
            self.load_tag(dump_row);
        }
        self.copy_operand(x, acc, Predicate::Tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr() -> ComputeArray {
        ComputeArray::with_zero_row(255).unwrap()
    }

    const DUMP: usize = 250;

    #[test]
    fn compare_sets_carry_per_lane() {
        let mut a = arr();
        let x = Operand::new(0, 8).unwrap();
        let y = Operand::new(8, 8).unwrap();
        let s = Operand::new(16, 8).unwrap();
        let cases = [(10u64, 20u64), (20, 10), (7, 7), (0, 255)];
        for (lane, (p, q)) in cases.iter().enumerate() {
            a.poke_lane(lane, x, *p);
            a.poke_lane(lane, y, *q);
        }
        a.compare_ge(x, y, s, DUMP).unwrap();
        for (lane, (p, q)) in cases.iter().enumerate() {
            assert_eq!(a.carry().get(lane), p >= q, "{p} >= {q}");
        }
        // Operands unchanged.
        for (lane, (p, q)) in cases.iter().enumerate() {
            assert_eq!(a.peek_lane(lane, x), *p);
            assert_eq!(a.peek_lane(lane, y), *q);
        }
    }

    #[test]
    fn max_assign_running() {
        let mut a = arr();
        let acc = Operand::new(0, 8).unwrap();
        let x = Operand::new(8, 8).unwrap();
        let s = Operand::new(16, 8).unwrap();
        let cases = [(10u64, 20u64), (200, 100), (7, 7)];
        for (lane, (p, q)) in cases.iter().enumerate() {
            a.poke_lane(lane, acc, *p);
            a.poke_lane(lane, x, *q);
        }
        let d = a.max_assign(acc, x, s, DUMP).unwrap();
        assert_eq!(d.compute_cycles, 3 * 8 + 2);
        for (lane, (p, q)) in cases.iter().enumerate() {
            assert_eq!(a.peek_lane(lane, acc), *p.max(q));
        }
    }

    #[test]
    fn relu_zeroes_negative_lanes() {
        let mut a = arr();
        let x = Operand::new(0, 16).unwrap();
        a.poke_lane_signed(0, x, -5);
        a.poke_lane_signed(1, x, 5);
        a.poke_lane_signed(2, x, 0);
        a.poke_lane_signed(3, x, -32768);
        let d = a.relu(x).unwrap();
        assert_eq!(d.compute_cycles, 17);
        assert_eq!(a.peek_lane_signed(0, x), 0);
        assert_eq!(a.peek_lane_signed(1, x), 5);
        assert_eq!(a.peek_lane_signed(2, x), 0);
        assert_eq!(a.peek_lane_signed(3, x), 0);
    }

    #[test]
    fn clamp_saturates() {
        let mut a = arr();
        let x = Operand::new(0, 16).unwrap();
        for (lane, v) in [0u64, 255, 256, 40000].into_iter().enumerate() {
            a.poke_lane(lane, x, v);
        }
        a.clamp_max_scalar(x, 255, DUMP).unwrap();
        for (lane, v) in [0u64, 255, 255, 255].into_iter().enumerate() {
            assert_eq!(a.peek_lane(lane, x), v);
        }
    }
}
