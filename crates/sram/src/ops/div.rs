//! Bit-serial restoring division (Section III-C mentions division support;
//! Neural Cache uses it for average pooling, where the divisor is the
//! pooling-window size).

use crate::{ComputeArray, CycleStats, Operand, Predicate, Result, SramError};

/// Scratch rows required by [`ComputeArray::div`] and
/// [`ComputeArray::div_scalar`] for a divisor of `d` bits: the remainder
/// register is one bit wider than the divisor, and general division also
/// materializes the divisor's complement and a trial-difference register of
/// the same width.
#[must_use]
pub fn div_scratch_bits(divisor_bits: usize) -> usize {
    divisor_bits + 1
}

impl ComputeArray {
    /// Unsigned restoring division: `quot <- num / den`, `rem <- num % den`,
    /// lane-wise.
    ///
    /// Per quotient bit the remainder is shifted up by one row, the divisor
    /// is trial-subtracted into `trial`, and the no-borrow carry selects
    /// (via the tag latch) whether the trial difference is committed. The
    /// remainder and trial registers are `w = den.bits() + 1` bits wide.
    ///
    /// Derived cycle count: `~n * (3w + 3) + w` for `n = num.bits()` — about
    /// `3n^2` for equal widths, versus the paper's published
    /// `1.5n^2 + 5.5n`; the paper's tighter bound assumes non-restoring
    /// division with fused sign handling, while this implementation favors
    /// the simpler restoring form. The timing model can charge either: the
    /// paper cost model uses the published formula, and the derived one
    /// measures this op as the executor's average-pooling divide.
    ///
    /// Lanes whose divisor is zero produce an all-ones quotient (the
    /// trial subtraction never borrows); no error is raised because idle
    /// lanes legitimately hold zeros.
    ///
    /// # Errors
    ///
    /// Requires the zero row, outside `den`, `quot` and the low `w` rows of
    /// `rem`, `trial` and `notden`, which must each hold `w` bits; all
    /// regions must be pairwise disjoint.
    pub fn div(
        &mut self,
        num: Operand,
        den: Operand,
        quot: Operand,
        rem: Operand,
        trial: Operand,
        notden: Operand,
    ) -> Result<CycleStats> {
        let n = num.bits();
        let w = den.bits() + 1;
        if quot.bits() < n {
            return Err(SramError::DestinationTooNarrow {
                needed: n,
                available: quot.bits(),
            });
        }
        for (reg, name) in [(rem, "remainder"), (trial, "trial"), (notden, "complement")] {
            if reg.bits() < w {
                return Err(SramError::DestinationTooNarrow {
                    needed: w,
                    available: reg.bits(),
                });
            }
            let _ = name;
        }
        let regions = [num, den, quot, rem, trial, notden];
        for i in 0..regions.len() {
            for j in i + 1..regions.len() {
                if regions[i].overlaps(&regions[j]) {
                    return Err(SramError::OverlappingOperands {
                        what: "division register regions must be pairwise disjoint",
                    });
                }
            }
        }
        let zero = self.zero_for_complement(&den)?;
        self.guard_zero_row(&notden.slice(0, w)?)?;
        let rem_w = self.guard_div_registers(quot, rem, trial, w)?;
        Ok(self.run(|run| {
            // notden <- ~den, zero-extended to w bits (so its top bit is 1).
            for i in 0..den.bits() {
                run.not(den.row(i), zero, notden.row(i), Predicate::Always);
            }
            run.write_const(notden.row(w - 1), true, Predicate::Always);
            run.zero(rem_w);

            for i in (0..n).rev() {
                // rem <- (rem << 1) | num[i]
                for k in (1..w).rev() {
                    run.copy(rem.row(k - 1), rem.row(k), Predicate::Always);
                }
                run.copy(num.row(i), rem.row(0), Predicate::Always);
                // trial <- rem - den  (rem + ~den + 1); carry = no borrow.
                run.preset_carry(true);
                for k in 0..w {
                    run.full_add(rem.row(k), notden.row(k), trial.row(k), Predicate::Always);
                }
                // quot[i] <- carry; commit trial where it did not borrow.
                run.write_carry(quot.row(i), Predicate::Always);
                run.load_tag(quot.row(i));
                for k in 0..w {
                    run.copy(trial.row(k), rem.row(k), Predicate::Tag);
                }
            }
            // Zero any excess quotient bits.
            for i in n..quot.bits() {
                run.write_const(quot.row(i), false, Predicate::Always);
            }
        }))
    }

    /// Unsigned restoring division by a broadcast constant `k` (the average
    /// pooling divisor). Identical dataflow to [`ComputeArray::div`] but the
    /// divisor complement is generated by the control FSM, saving the
    /// complement registers.
    ///
    /// # Errors
    ///
    /// Fails if `k == 0`, or on the same region and zero-row constraints as
    /// `div`.
    pub fn div_scalar(
        &mut self,
        num: Operand,
        k: u64,
        quot: Operand,
        rem: Operand,
        trial: Operand,
    ) -> Result<CycleStats> {
        if k == 0 {
            return Err(SramError::DivisionByZero { lane: 0 });
        }
        let n = num.bits();
        let kbits = (64 - k.leading_zeros()) as usize;
        let w = kbits + 1;
        if quot.bits() < n {
            return Err(SramError::DestinationTooNarrow {
                needed: n,
                available: quot.bits(),
            });
        }
        for reg in [rem, trial] {
            if reg.bits() < w {
                return Err(SramError::DestinationTooNarrow {
                    needed: w,
                    available: reg.bits(),
                });
            }
        }
        let regions = [num, quot, rem, trial];
        for i in 0..regions.len() {
            for j in i + 1..regions.len() {
                if regions[i].overlaps(&regions[j]) {
                    return Err(SramError::OverlappingOperands {
                        what: "division register regions must be pairwise disjoint",
                    });
                }
            }
        }
        let rem_w = self.guard_div_registers(quot, rem, trial, w)?;
        let notk = !k; // two's complement add of ~k + 1 subtracts k
        Ok(self.run(|run| {
            run.zero(rem_w);
            for i in (0..n).rev() {
                for r in (1..w).rev() {
                    run.copy(rem.row(r - 1), rem.row(r), Predicate::Always);
                }
                run.copy(num.row(i), rem.row(0), Predicate::Always);
                run.preset_carry(true);
                for r in 0..w {
                    let bit = r < 64 && (notk >> r) & 1 == 1;
                    run.full_add_const(rem.row(r), bit, trial.row(r), Predicate::Always);
                }
                run.write_carry(quot.row(i), Predicate::Always);
                run.load_tag(quot.row(i));
                for r in 0..w {
                    run.copy(trial.row(r), rem.row(r), Predicate::Tag);
                }
            }
            for i in n..quot.bits() {
                run.write_const(quot.row(i), false, Predicate::Always);
            }
        }))
    }

    /// Rejects a division whose `w`-bit remainder or trial register, or
    /// whose quotient, covers the zero row; returns the `w`-bit remainder.
    fn guard_div_registers(
        &self,
        quot: Operand,
        rem: Operand,
        trial: Operand,
        w: usize,
    ) -> Result<Operand> {
        let rem_w = rem.slice(0, w)?;
        self.guard_zero_row(&rem_w)?;
        self.guard_zero_row(&trial.slice(0, w)?)?;
        self.guard_zero_row(&quot)?;
        Ok(rem_w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr() -> ComputeArray {
        ComputeArray::with_zero_row(255).unwrap()
    }

    #[test]
    fn div_lane_wise() {
        let mut a = arr();
        let num = Operand::new(0, 8).unwrap();
        let den = Operand::new(8, 8).unwrap();
        let quot = Operand::new(16, 8).unwrap();
        let rem = Operand::new(24, 9).unwrap();
        let trial = Operand::new(33, 9).unwrap();
        let notden = Operand::new(42, 9).unwrap();
        let cases = [(100u64, 7u64), (255, 1), (5, 9), (81, 9), (0, 3)];
        for (lane, (x, y)) in cases.iter().enumerate() {
            a.poke_lane(lane, num, *x);
            a.poke_lane(lane, den, *y);
        }
        a.div(num, den, quot, rem, trial, notden).unwrap();
        for (lane, (x, y)) in cases.iter().enumerate() {
            assert_eq!(a.peek_lane(lane, quot), x / y, "{x}/{y}");
            assert_eq!(a.peek_lane(lane, rem), x % y, "{x}%{y}");
        }
    }

    #[test]
    fn div_by_zero_lane_saturates() {
        let mut a = arr();
        let num = Operand::new(0, 4).unwrap();
        let den = Operand::new(4, 4).unwrap();
        let quot = Operand::new(8, 4).unwrap();
        let rem = Operand::new(12, 5).unwrap();
        let trial = Operand::new(17, 5).unwrap();
        let notden = Operand::new(22, 5).unwrap();
        a.poke_lane(0, num, 9);
        a.poke_lane(0, den, 0);
        a.div(num, den, quot, rem, trial, notden).unwrap();
        assert_eq!(
            a.peek_lane(0, quot),
            15,
            "zero divisor -> all-ones quotient"
        );
    }

    #[test]
    fn div_scalar_avg_pool_shape() {
        // Average pooling divides a 16-bit window sum by the window size
        // (<= 4 bits in Inception v3, e.g. 9 for 3x3).
        let mut a = arr();
        let num = Operand::new(0, 16).unwrap();
        let quot = Operand::new(16, 16).unwrap();
        let rem = Operand::new(32, 5).unwrap();
        let trial = Operand::new(37, 5).unwrap();
        for (lane, v) in [0u64, 9, 100, 65535, 12345].into_iter().enumerate() {
            a.poke_lane(lane, num, v);
        }
        a.div_scalar(num, 9, quot, rem, trial).unwrap();
        for (lane, v) in [0u64, 9, 100, 65535, 12345].into_iter().enumerate() {
            assert_eq!(a.peek_lane(lane, quot), v / 9);
            assert_eq!(a.peek_lane(lane, rem), v % 9);
        }
        assert!(a.div_scalar(num, 0, quot, rem, trial).is_err());
    }
}
