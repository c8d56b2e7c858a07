//! Transposed operand descriptors.

use std::fmt;

use crate::{Result, SramError, ROWS};

/// A transposed operand: `bits` consecutive word lines starting at `base`.
///
/// In the transpose data layout every bit of a data element is stored on the
/// same bit line (Section III-B of the paper), so an operand is fully
/// described by its first row and its bit width; the *column* selects which
/// lane's element is meant. Row `base` holds the least-significant bit.
///
/// `Operand` is a cheap, copyable descriptor — it does not borrow the array.
///
/// # Examples
///
/// ```
/// use nc_sram::Operand;
///
/// let acc = Operand::new(32, 24)?;
/// assert_eq!(acc.row(0), 32);     // LSB row
/// assert_eq!(acc.msb_row(), 55);  // MSB row
/// // Reinterpret the top 16 bits, i.e. a right shift by 8 for free:
/// let hi = acc.slice(8, 16)?;
/// assert_eq!(hi.row(0), 40);
/// # Ok::<(), nc_sram::SramError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Operand {
    base: usize,
    bits: usize,
}

impl Operand {
    /// Creates an operand descriptor after validating it against the array
    /// geometry.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::EmptyOperand`] for zero-width operands and
    /// [`SramError::OperandOutOfRange`] when the operand would extend past
    /// the 256 word lines.
    pub fn new(base: usize, bits: usize) -> Result<Self> {
        if bits == 0 {
            return Err(SramError::EmptyOperand);
        }
        if base >= ROWS || base + bits > ROWS {
            return Err(SramError::OperandOutOfRange { base, bits });
        }
        Ok(Operand { base, bits })
    }

    /// First (least-significant) row of the operand.
    #[must_use]
    pub fn base(&self) -> usize {
        self.base
    }

    /// Bit width of the operand.
    #[must_use]
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Row holding bit `i` (bit 0 is the LSB).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.bits()`.
    #[must_use]
    pub fn row(&self, i: usize) -> usize {
        assert!(i < self.bits, "bit {i} out of range for {self}");
        self.base + i
    }

    /// Row holding the most-significant bit.
    #[must_use]
    pub fn msb_row(&self) -> usize {
        self.base + self.bits - 1
    }

    /// Reinterprets a sub-range of the operand's bits as a new operand.
    ///
    /// `slice(k, w)` views bits `k..k+w`; because rows are physical, this is
    /// a zero-cost logical right shift by `k` (used for the `>> shift` of the
    /// requantization pipeline).
    ///
    /// # Errors
    ///
    /// Returns [`SramError::OperandOutOfRange`] if the requested bit range
    /// does not lie within this operand, or [`SramError::EmptyOperand`] for a
    /// zero-width slice.
    pub fn slice(&self, from_bit: usize, bits: usize) -> Result<Self> {
        if bits == 0 {
            return Err(SramError::EmptyOperand);
        }
        if from_bit + bits > self.bits {
            return Err(SramError::OperandOutOfRange {
                base: self.base + from_bit,
                bits,
            });
        }
        Ok(Operand {
            base: self.base + from_bit,
            bits,
        })
    }

    /// Returns `true` if the two operands share any word line.
    #[must_use]
    pub fn overlaps(&self, other: &Operand) -> bool {
        self.base < other.base + other.bits && other.base < self.base + self.bits
    }

    /// The half-open range of word lines this operand occupies
    /// (`base..base + bits`), for row-set arithmetic in static checkers.
    #[must_use]
    pub fn rows(&self) -> core::ops::Range<usize> {
        self.base..self.base + self.bits
    }

    /// Returns `true` if `row` lies inside this operand.
    #[must_use]
    pub fn contains_row(&self, row: usize) -> bool {
        (self.base..self.base + self.bits).contains(&row)
    }

    /// Largest value representable in this operand (unsigned), saturating at
    /// `u64::MAX` for operands wider than 64 bits.
    #[must_use]
    pub fn max_value(&self) -> u64 {
        if self.bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        }
    }

    /// The two's-complement code of `value` in this operand: its low
    /// `bits()` bits (all 64 for operands of 64 bits or more).
    ///
    /// # Errors
    ///
    /// Returns [`SramError::DestinationTooNarrow`] when `value` does not fit
    /// in `bits()` two's-complement bits.
    pub fn signed_code(&self, value: i64) -> Result<u64> {
        let needed = 65 - (value ^ (value >> 63)).leading_zeros() as usize;
        if needed > self.bits {
            return Err(SramError::DestinationTooNarrow {
                needed,
                available: self.bits,
            });
        }
        Ok(value as u64 & self.max_value())
    }

    /// The value of the two's-complement code `code`: its low `bits()` bits,
    /// sign-extended (operands of 64 bits or more read all 64).
    #[must_use]
    pub fn signed_value(&self, code: u64) -> i64 {
        let unused = 64 - self.bits.min(64);
        ((code << unused) as i64) >> unused
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rows {}..{} ({} bits)",
            self.base,
            self.base + self.bits,
            self.bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_geometry() {
        assert_eq!(Operand::new(0, 0), Err(SramError::EmptyOperand));
        assert!(matches!(
            Operand::new(250, 8),
            Err(SramError::OperandOutOfRange { .. })
        ));
        assert!(matches!(
            Operand::new(256, 1),
            Err(SramError::OperandOutOfRange { .. })
        ));
        assert!(Operand::new(248, 8).is_ok());
    }

    #[test]
    fn row_addressing() {
        let op = Operand::new(10, 8).unwrap();
        assert_eq!(op.row(0), 10);
        assert_eq!(op.row(7), 17);
        assert_eq!(op.msb_row(), 17);
        assert_eq!(op.max_value(), 255);
    }

    #[test]
    fn slicing_is_a_free_shift() {
        let op = Operand::new(100, 32).unwrap();
        let hi = op.slice(16, 16).unwrap();
        assert_eq!(hi.base(), 116);
        assert_eq!(hi.bits(), 16);
        assert!(op.slice(20, 16).is_err());
        assert!(op.slice(0, 0).is_err());
    }

    #[test]
    fn overlap_detection() {
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let c = Operand::new(4, 8).unwrap();
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(b.overlaps(&c));
        assert!(a.contains_row(7));
        assert!(!a.contains_row(8));
    }

    #[test]
    fn rows_range_matches_overlap_semantics() {
        let a = Operand::new(10, 8).unwrap();
        assert_eq!(a.rows(), 10..18);
        assert_eq!(a.rows().len(), a.bits());
        let b = Operand::new(17, 4).unwrap();
        // Range intersection agrees with overlaps().
        let intersects = a.rows().start < b.rows().end && b.rows().start < a.rows().end;
        assert_eq!(intersects, a.overlaps(&b));
        assert!(a.rows().all(|r| a.contains_row(r)));
    }

    #[test]
    fn signed_codes_round_trip_and_reject_values_that_do_not_fit() {
        let op = Operand::new(0, 8).unwrap();
        for v in [-128i64, -1, 0, 1, 127] {
            let code = op.signed_code(v).unwrap();
            assert!(code <= op.max_value());
            assert_eq!(op.signed_value(code), v);
        }
        assert_eq!(op.signed_code(-1), Ok(0xFF));
        for (v, needed) in [(128, 9), (-129, 9), (i64::MIN, 64)] {
            assert_eq!(
                op.signed_code(v),
                Err(SramError::DestinationTooNarrow {
                    needed,
                    available: 8
                })
            );
        }
        let wide = Operand::new(0, 80).unwrap();
        assert_eq!(wide.signed_code(i64::MIN), Ok(1 << 63));
        assert_eq!(wide.signed_value(1 << 63), i64::MIN);
    }

    #[test]
    fn wide_operand_max_value_saturates() {
        let op = Operand::new(0, 64).unwrap();
        assert_eq!(op.max_value(), u64::MAX);
    }
}
