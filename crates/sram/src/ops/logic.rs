//! Region-wide copies, constants and equality search.

use crate::compute::Run;
use crate::{ComputeArray, CycleStats, Operand, Predicate, Result, SramError};

impl ComputeArray {
    /// Zeroes an operand on every lane (`bits` compute cycles — the bulk
    /// zeroing primitive of Compute Cache).
    ///
    /// # Errors
    ///
    /// Fails if the operand overlaps the dedicated zero row.
    pub fn zero(&mut self, op: Operand) -> Result<CycleStats> {
        self.guard_zero_row(&op)?;
        Ok(self.run(|run| run.zero(op)))
    }

    /// Writes the broadcast constant `k` into the operand on every lane
    /// (`bits` compute cycles, one constant row-write per bit).
    ///
    /// # Errors
    ///
    /// Fails if `k` does not fit in the operand or the operand overlaps the
    /// zero row.
    pub fn broadcast_scalar(&mut self, op: Operand, k: u64) -> Result<CycleStats> {
        if op.bits() < 64 && k > op.max_value() {
            return Err(SramError::DestinationTooNarrow {
                needed: 64 - k.leading_zeros() as usize,
                available: op.bits(),
            });
        }
        self.guard_zero_row(&op)?;
        Ok(self.run(|run| {
            for i in 0..op.bits() {
                let bit = i < 64 && (k >> i) & 1 == 1;
                run.write_const(op.row(i), bit, Predicate::Always);
            }
        }))
    }

    /// Copies operand `src` to `dst` on every lane, optionally tag-gated
    /// (`bits` compute cycles). Widths must match; use
    /// [`ComputeArray::copy_zext`] to widen.
    ///
    /// # Errors
    ///
    /// Fails on width mismatch, partial overlap of the two regions, or a
    /// distinct `dst` that covers the zero row.
    pub fn copy(&mut self, src: Operand, dst: Operand, pred: Predicate) -> Result<CycleStats> {
        self.check_copy(src, dst)?;
        Ok(self.run(|run| run.copy_operand(src, dst, pred)))
    }

    /// The checks of [`ComputeArray::copy`].
    pub(crate) fn check_copy(&self, src: Operand, dst: Operand) -> Result<()> {
        if src.bits() != dst.bits() {
            return Err(SramError::DestinationTooNarrow {
                needed: src.bits(),
                available: dst.bits(),
            });
        }
        if src.overlaps(&dst) && src != dst {
            return Err(SramError::OverlappingOperands {
                what: "copy source and destination partially overlap",
            });
        }
        if src == dst {
            return Ok(()); // no cycle runs
        }
        self.guard_zero_row(&dst)
    }

    /// Copies `src` into the wider `dst`, zero-extending the upper bits
    /// (`dst.bits()` compute cycles).
    ///
    /// # Errors
    ///
    /// Fails if `dst` is narrower than `src`, the regions overlap, or `dst`
    /// covers the zero row.
    pub fn copy_zext(&mut self, src: Operand, dst: Operand) -> Result<CycleStats> {
        if dst.bits() < src.bits() {
            return Err(SramError::DestinationTooNarrow {
                needed: src.bits(),
                available: dst.bits(),
            });
        }
        if src.overlaps(&dst) {
            return Err(SramError::OverlappingOperands {
                what: "zero-extending copy source and destination overlap",
            });
        }
        self.guard_zero_row(&dst)?;
        Ok(self.run(|run| {
            for i in 0..src.bits() {
                run.copy(src.row(i), dst.row(i), Predicate::Always);
            }
            for i in src.bits()..dst.bits() {
                run.write_const(dst.row(i), false, Predicate::Always);
            }
        }))
    }

    /// Bit-serial equality search against a broadcast constant: after the
    /// call, the tag latch holds `1` exactly on lanes whose operand equals
    /// `k` (`bits` compute cycles). This is the Compute Cache search
    /// primitive.
    ///
    /// # Errors
    ///
    /// Requires the zero row for the complement senses of `k`'s zero bits,
    /// clear of the rows they sense; fails if `k` does not fit.
    pub fn search_eq_scalar(&mut self, op: Operand, k: u64) -> Result<CycleStats> {
        if op.bits() < 64 && k > op.max_value() {
            return Err(SramError::DestinationTooNarrow {
                needed: 64 - k.leading_zeros() as usize,
                available: op.bits(),
            });
        }
        let want_one = |i: usize| i < 64 && (k >> i) & 1 == 1;
        let zero = if (0..op.bits()).all(want_one) {
            None
        } else {
            let zero = self.require_zero_row()?;
            if op.contains_row(zero) && !want_one(zero - op.base()) {
                return Err(SramError::SelfActivation { row: zero });
            }
            Some(zero)
        };
        Ok(self.run(|run| {
            run.preset_tag(true);
            for i in 0..op.bits() {
                let complement_against = if want_one(i) { None } else { zero };
                run.and_tag(op.row(i), complement_against);
            }
        }))
    }
}

#[allow(clippy::inline_always)] // see `Run`
impl Run<'_> {
    /// The cycles of [`ComputeArray::zero`], for callers that checked `op`
    /// against the zero row.
    #[inline(always)]
    pub(crate) fn zero(&mut self, op: Operand) {
        for r in op.rows() {
            self.write_const(r, false, Predicate::Always);
        }
    }

    /// The cycles of [`ComputeArray::copy`], for callers that ran
    /// [`ComputeArray::check_copy`].
    #[inline(always)]
    pub(crate) fn copy_operand(&mut self, src: Operand, dst: Operand, pred: Predicate) {
        if src != dst {
            for (s, d) in src.rows().zip(dst.rows()) {
                self.copy(s, d, pred);
            }
        }
    }
}

/// The output a two-row logic micro-op ([`ComputeArray::op_and`],
/// `op_or`, `op_xor`, `op_nor`) writes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LogicOp {
    /// Column-wise AND (direct bit-line sense).
    And,
    /// Column-wise OR (complement of the NOR sense).
    Or,
    /// Column-wise XOR (peripheral combination of both senses).
    Xor,
    /// Column-wise NOR (direct bit-line-complement sense).
    Nor,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr() -> ComputeArray {
        ComputeArray::with_zero_row(255).unwrap()
    }

    #[test]
    fn zero_and_broadcast() {
        let mut a = arr();
        let op = Operand::new(0, 16).unwrap();
        a.poke_lane(3, op, 0xFFFF);
        let d = a.zero(op).unwrap();
        assert_eq!(d.compute_cycles, 16);
        assert_eq!(a.peek_lane(3, op), 0);
        let d = a.broadcast_scalar(op, 0xBEEF).unwrap();
        assert_eq!(d.compute_cycles, 16);
        for lane in [0, 100, 255] {
            assert_eq!(a.peek_lane(lane, op), 0xBEEF);
        }
        assert!(a.broadcast_scalar(Operand::new(0, 4).unwrap(), 16).is_err());
    }

    #[test]
    fn copy_and_zext() {
        let mut a = arr();
        let src = Operand::new(0, 8).unwrap();
        let dst = Operand::new(8, 8).unwrap();
        let wide = Operand::new(16, 12).unwrap();
        a.poke_lane(7, src, 0xA5);
        a.copy(src, dst, Predicate::Always).unwrap();
        assert_eq!(a.peek_lane(7, dst), 0xA5);
        let d = a.copy_zext(src, wide).unwrap();
        assert_eq!(d.compute_cycles, 12);
        assert_eq!(a.peek_lane(7, wide), 0xA5);
        // Partial overlap is rejected.
        let overlap = Operand::new(4, 8).unwrap();
        assert!(a.copy(src, overlap, Predicate::Always).is_err());
    }

    #[test]
    fn search_finds_matching_lanes() {
        let mut a = arr();
        let op = Operand::new(0, 8).unwrap();
        a.poke_lane(1, op, 42);
        a.poke_lane(2, op, 43);
        a.poke_lane(3, op, 42);
        let d = a.search_eq_scalar(op, 42).unwrap();
        assert_eq!(d.compute_cycles, 8);
        assert!(!a.tag().get(0), "lane 0 holds 0 != 42");
        assert!(a.tag().get(1));
        assert!(!a.tag().get(2));
        assert!(a.tag().get(3));
    }

    #[test]
    fn search_for_zero_matches_empty_lanes() {
        let mut a = arr();
        let op = Operand::new(0, 8).unwrap();
        a.poke_lane(9, op, 1);
        a.search_eq_scalar(op, 0).unwrap();
        assert!(a.tag().get(0));
        assert!(!a.tag().get(9));
    }
}
