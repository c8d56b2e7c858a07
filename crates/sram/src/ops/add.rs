//! Bit-serial addition and subtraction (paper Section III-B, Figure 4).

use crate::{ComputeArray, CycleStats, Operand, Predicate, Result, SramError};

impl ComputeArray {
    /// Vector addition `dst <- a + b` over every lane.
    ///
    /// `a` and `b` must have equal width `n`; `dst` must be `n` or `n+1`
    /// bits. With an `n+1`-bit destination the final carry is stored in the
    /// extra row, exactly as in Figure 4 — the full operation then takes
    /// `n + 1` compute cycles (the paper's published addition cost). With an
    /// `n`-bit destination the result wraps modulo 2^n in `n` cycles.
    ///
    /// # Errors
    ///
    /// Fails on width mismatch, if `dst` partially overlaps an input
    /// (aliasing `dst == a` exactly is allowed: each cycle reads the operand
    /// row before the write-back phase), or if `dst` covers the zero row.
    pub fn add(&mut self, a: Operand, b: Operand, dst: Operand) -> Result<CycleStats> {
        let n = a.bits();
        if b.bits() != n {
            return Err(SramError::OverlappingOperands {
                what: "addition operands must have equal widths",
            });
        }
        if dst.bits() < n || dst.bits() > n + 1 {
            return Err(SramError::DestinationTooNarrow {
                needed: n,
                available: dst.bits(),
            });
        }
        if a.overlaps(&b) {
            return Err(SramError::OverlappingOperands {
                what: "addition inputs overlap (two-row activation needs distinct rows)",
            });
        }
        let dst_lo = dst.slice(0, n).expect("validated above");
        if (dst_lo.overlaps(&a) && dst_lo != a) || dst.overlaps(&b) {
            return Err(SramError::OverlappingOperands {
                what: "addition destination partially overlaps an input",
            });
        }
        self.guard_zero_row(&dst)?;
        let before = self.stats();
        self.preset_carry(false);
        for i in 0..n {
            self.step_full_add(a.row(i), b.row(i), dst.row(i), Predicate::Always);
        }
        if dst.bits() == n + 1 {
            self.step_write_carry(dst.row(n), Predicate::Always);
        }
        Ok(self.stats() - before)
    }

    /// In-place accumulate `acc <- acc + addend` with zero extension of the
    /// addend, wrapping modulo 2^`acc.bits()`.
    ///
    /// Takes `acc.bits()` compute cycles: full-adder cycles over the addend
    /// bits, then carry propagation through the remaining accumulator bits
    /// via constant-zero adds.
    ///
    /// # Errors
    ///
    /// Fails if the accumulator is narrower than the addend, the regions
    /// overlap, or the accumulator covers the zero row.
    pub fn add_assign(&mut self, acc: Operand, addend: Operand) -> Result<CycleStats> {
        self.check_add_assign(acc, addend)?;
        let before = self.stats();
        self.add_assign_steps(acc, addend);
        Ok(self.stats() - before)
    }

    /// The checks of [`ComputeArray::add_assign`].
    pub(crate) fn check_add_assign(&self, acc: Operand, addend: Operand) -> Result<()> {
        if acc.bits() < addend.bits() {
            return Err(SramError::DestinationTooNarrow {
                needed: addend.bits(),
                available: acc.bits(),
            });
        }
        if acc.overlaps(&addend) {
            return Err(SramError::OverlappingOperands {
                what: "accumulator overlaps addend",
            });
        }
        self.guard_zero_row(&acc)
    }

    /// The cycles of [`ComputeArray::add_assign`], for callers that ran
    /// [`ComputeArray::check_add_assign`].
    pub(crate) fn add_assign_steps(&mut self, acc: Operand, addend: Operand) {
        self.preset_carry(false);
        let carry_from = acc.base() + addend.bits();
        for (x, r) in addend.rows().zip(acc.base()..carry_from) {
            self.step_full_add(x, r, r, Predicate::Always);
        }
        for r in carry_from..acc.rows().end {
            self.step_full_add_const(r, false, r, Predicate::Always);
        }
    }

    /// In-place broadcast-constant addition `op <- op + k` modulo
    /// 2^`op.bits()` (`bits` compute cycles).
    ///
    /// To add a *negative* constant, pass its two's complement truncated to
    /// the operand width (see [`ComputeArray::add_scalar_signed`]).
    ///
    /// # Errors
    ///
    /// Fails if the operand covers the zero row.
    pub fn add_scalar(&mut self, op: Operand, k: u64) -> Result<CycleStats> {
        self.guard_zero_row(&op)?;
        let before = self.stats();
        self.preset_carry(false);
        for i in 0..op.bits() {
            let bit = i < 64 && (k >> i) & 1 == 1;
            self.step_full_add_const(op.row(i), bit, op.row(i), Predicate::Always);
        }
        Ok(self.stats() - before)
    }

    /// In-place signed broadcast-constant addition `op <- op + k` modulo
    /// 2^`op.bits()`, accepting negative constants.
    ///
    /// # Errors
    ///
    /// Fails if `|k|` does not fit in the operand width.
    pub fn add_scalar_signed(&mut self, op: Operand, k: i64) -> Result<CycleStats> {
        let bits = op.bits();
        if bits < 64 {
            let bound = 1i64 << (bits - 1).min(62);
            if k >= bound || k < -bound {
                return Err(SramError::DestinationTooNarrow {
                    needed: 64 - k.unsigned_abs().leading_zeros() as usize + 1,
                    available: bits,
                });
            }
        }
        let mask = if bits >= 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        self.add_scalar(op, (k as u64) & mask)
    }

    /// Vector subtraction `dst <- a - b` (modulo 2^n) via two's complement:
    /// the complement of `b` is materialized in `scratch`, then added to `a`
    /// with the carry latch preset to one.
    ///
    /// Takes `2n` compute cycles (`n` complement + `n` full adds). After the
    /// call the **carry latch holds the no-borrow flag**: lane `l`'s carry is
    /// `1` iff `a[l] >= b[l]` (unsigned) — comparisons and max/min build on
    /// this.
    ///
    /// # Errors
    ///
    /// Requires the zero row, clear of `b`, `dst` and the `n` scratch rows.
    /// All three regions and `scratch` must be pairwise non-overlapping
    /// except that `dst` may alias `a` exactly.
    pub fn sub(
        &mut self,
        a: Operand,
        b: Operand,
        dst: Operand,
        scratch: Operand,
    ) -> Result<CycleStats> {
        let n = a.bits();
        if b.bits() != n || dst.bits() != n {
            return Err(SramError::DestinationTooNarrow {
                needed: n,
                available: dst.bits().min(b.bits()),
            });
        }
        if scratch.bits() < n {
            return Err(SramError::DestinationTooNarrow {
                needed: n,
                available: scratch.bits(),
            });
        }
        let distinct = [
            (a.overlaps(&b), "subtraction inputs overlap"),
            (scratch.overlaps(&a), "scratch overlaps minuend"),
            (scratch.overlaps(&b), "scratch overlaps subtrahend"),
            (scratch.overlaps(&dst), "scratch overlaps destination"),
            (dst.overlaps(&b), "destination overlaps subtrahend"),
            (
                dst.overlaps(&a) && dst != a,
                "destination partially overlaps minuend",
            ),
        ];
        for (bad, what) in distinct {
            if bad {
                return Err(SramError::OverlappingOperands { what });
            }
        }
        let zero = self.zero_for_complement(&b)?;
        self.guard_zero_row(&scratch.slice(0, n)?)?;
        self.guard_zero_row(&dst)?;
        let before = self.stats();
        for i in 0..n {
            self.step_not(b.row(i), zero, scratch.row(i), Predicate::Always);
        }
        self.preset_carry(true);
        for i in 0..n {
            self.step_full_add(a.row(i), scratch.row(i), dst.row(i), Predicate::Always);
        }
        Ok(self.stats() - before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr() -> ComputeArray {
        ComputeArray::with_zero_row(255).unwrap()
    }

    #[test]
    fn add_matches_paper_cost_and_figure4() {
        // Figure 4 adds two vectors of 4-bit words; n-bit addition takes
        // n + 1 cycles including the final carry write.
        let mut a = arr();
        let va = Operand::new(0, 4).unwrap();
        let vb = Operand::new(4, 4).unwrap();
        let sum = Operand::new(8, 5).unwrap();
        let pairs = [(3u64, 5u64), (15, 15), (0, 0), (9, 6)];
        for (lane, (x, y)) in pairs.iter().enumerate() {
            a.poke_lane(lane, va, *x);
            a.poke_lane(lane, vb, *y);
        }
        let d = a.add(va, vb, sum).unwrap();
        assert_eq!(d.compute_cycles, 5, "n+1 cycles for n=4");
        for (lane, (x, y)) in pairs.iter().enumerate() {
            assert_eq!(a.peek_lane(lane, sum), x + y);
        }
    }

    #[test]
    fn add_wrapping_without_carry_row() {
        let mut a = arr();
        let va = Operand::new(0, 8).unwrap();
        let vb = Operand::new(8, 8).unwrap();
        let dst = Operand::new(16, 8).unwrap();
        a.poke_lane(0, va, 200);
        a.poke_lane(0, vb, 100);
        let d = a.add(va, vb, dst).unwrap();
        assert_eq!(d.compute_cycles, 8);
        assert_eq!(a.peek_lane(0, dst), (200 + 100) & 0xFF);
    }

    #[test]
    fn add_in_place_aliasing_allowed() {
        let mut a = arr();
        let va = Operand::new(0, 8).unwrap();
        let vb = Operand::new(8, 8).unwrap();
        a.poke_lane(2, va, 33);
        a.poke_lane(2, vb, 44);
        a.add(va, vb, va).unwrap();
        assert_eq!(a.peek_lane(2, va), 77);
    }

    #[test]
    fn add_assign_zero_extends() {
        let mut a = arr();
        let acc = Operand::new(0, 24).unwrap();
        let x = Operand::new(24, 16).unwrap();
        a.poke_lane(0, acc, 0xFF_FF00);
        a.poke_lane(0, x, 0x0100);
        let d = a.add_assign(acc, x).unwrap();
        assert_eq!(d.compute_cycles, 24);
        assert_eq!(a.peek_lane(0, acc), 0);
        a.poke_lane(1, acc, 1000);
        a.poke_lane(1, x, 65535);
        // lane 0 accumulates garbage now, which is fine; check lane 1 only
        a.add_assign(acc, x).unwrap();
        assert_eq!(a.peek_lane(1, acc), 1000 + 65535);
    }

    #[test]
    fn add_scalar_signed_wraps_two_complement() {
        let mut a = arr();
        let op = Operand::new(0, 32).unwrap();
        a.poke_lane(0, op, 100);
        a.add_scalar_signed(op, -42).unwrap();
        assert_eq!(a.peek_lane_signed(0, op), 58);
        a.add_scalar_signed(op, -100).unwrap();
        assert_eq!(a.peek_lane_signed(0, op), -42);
        a.add_scalar_signed(op, 42).unwrap();
        assert_eq!(a.peek_lane_signed(0, op), 0);
    }

    #[test]
    fn sub_sets_no_borrow_carry() {
        let mut a = arr();
        let va = Operand::new(0, 8).unwrap();
        let vb = Operand::new(8, 8).unwrap();
        let dst = Operand::new(16, 8).unwrap();
        let scratch = Operand::new(24, 8).unwrap();
        a.poke_lane(0, va, 90);
        a.poke_lane(0, vb, 60);
        a.poke_lane(1, va, 60);
        a.poke_lane(1, vb, 90);
        a.poke_lane(2, va, 7);
        a.poke_lane(2, vb, 7);
        let d = a.sub(va, vb, dst, scratch).unwrap();
        assert_eq!(d.compute_cycles, 16, "2n cycles for n=8");
        assert_eq!(a.peek_lane(0, dst), 30);
        assert_eq!(a.peek_lane(1, dst), (60u64.wrapping_sub(90)) & 0xFF);
        assert_eq!(a.peek_lane(2, dst), 0);
        assert!(a.carry().get(0), "90 >= 60");
        assert!(!a.carry().get(1), "60 < 90 borrows");
        assert!(a.carry().get(2), "equal means no borrow");
    }

    #[test]
    fn rejects_overlapping_inputs() {
        let mut a = arr();
        let x = Operand::new(0, 8).unwrap();
        let y = Operand::new(4, 8).unwrap();
        let d = Operand::new(16, 8).unwrap();
        assert!(a.add(x, y, d).is_err());
    }
}
