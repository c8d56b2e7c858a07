//! Raw 256x256 SRAM bit storage with the two-row activation primitive.

use std::fmt;
use std::ops::Range;

use crate::{BitRow, Result, SramError, COLS, ROWS};

/// The analog outputs of a two-row compute activation.
///
/// During the sense phase of a compute cycle, two read word lines are raised
/// at a lowered voltage and the shared bit lines are sensed: the bit line
/// carries `A AND B`, the bit-line complement carries `(NOT A) AND (NOT B)`
/// (= `A NOR B`), and the peripheral NOR gate combines them into `A XOR B`
/// (paper Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SenseOut {
    /// Bit-line output: column-wise `A & B`.
    pub and: BitRow,
    /// Bit-line-complement output: column-wise `!(A | B)`.
    pub nor: BitRow,
    /// Peripheral-derived `A ^ B` (`!and & !nor`).
    pub xor: BitRow,
}

/// Raw storage of one 8KB compute SRAM array: 256 word lines x 256 bit lines.
///
/// `SramArray` models only the cells and the activation rules; peripherals
/// and cycle accounting live in [`ComputeArray`](crate::ComputeArray).
///
/// The fabricated test chip demonstrated corruption-free simultaneous
/// activation of up to 64 word lines, but Neural Cache (like Compute Cache)
/// only ever activates **two** during compute, and this model enforces that
/// discipline: [`SramArray::sense`] takes exactly two distinct rows.
#[derive(Clone, PartialEq, Eq)]
pub struct SramArray {
    rows: Box<[BitRow; ROWS]>,
}

impl SramArray {
    /// Creates an array with all cells cleared.
    #[must_use]
    pub fn new() -> Self {
        SramArray {
            rows: Box::new([BitRow::zero(); ROWS]),
        }
    }

    /// Normal single-word-line read (a conventional SRAM access).
    ///
    /// # Errors
    ///
    /// Returns [`SramError::RowOutOfRange`] for rows past the array.
    pub fn read_row(&self, row: usize) -> Result<BitRow> {
        check_row(row)?;
        Ok(self.row(row))
    }

    /// Normal single-word-line write.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::RowOutOfRange`] for rows past the array.
    pub fn write_row(&mut self, row: usize, value: BitRow) -> Result<()> {
        check_row(row)?;
        self.set_row(row, value);
        Ok(())
    }

    /// Row `row`, for callers that checked it before their first cycle
    /// (indexing still panics on a row past the array).
    #[inline]
    pub(crate) fn row(&self, row: usize) -> BitRow {
        self.rows[row]
    }

    /// Overwrites row `row`; the checked-once counterpart of
    /// [`SramArray::write_row`].
    #[inline]
    pub(crate) fn set_row(&mut self, row: usize, value: BitRow) {
        self.rows[row] = value;
    }

    /// The rows `range`, for callers that checked it.
    pub(crate) fn rows(&self, range: Range<usize>) -> &[BitRow] {
        &self.rows[range]
    }

    /// Mutable [`SramArray::rows`].
    pub(crate) fn rows_mut(&mut self, range: Range<usize>) -> &mut [BitRow] {
        &mut self.rows[range]
    }

    /// Clears every cell (all word lines to zero) without reallocating the
    /// backing storage. Used when recycling arrays through a pool.
    pub fn clear(&mut self) {
        self.rows.fill(BitRow::zero());
    }

    /// Two-row compute activation: senses rows `a` and `b` simultaneously.
    ///
    /// The stored data is unaffected (the lowered read-word-line voltage
    /// biases against accidental writes; Section II-B).
    ///
    /// # Errors
    ///
    /// Returns [`SramError::SelfActivation`] when `a == b` and
    /// [`SramError::RowOutOfRange`] for rows past the array.
    pub fn sense(&self, a: usize, b: usize) -> Result<SenseOut> {
        check_sense(a, b)?;
        Ok(self.sense_rows(a, b))
    }

    /// The two-row activation of [`SramArray::sense`] for callers that
    /// checked `a` and `b` before their first cycle.
    #[inline]
    pub(crate) fn sense_rows(&self, a: usize, b: usize) -> SenseOut {
        debug_assert_ne!(a, b, "two-row sense of word line {a} against itself");
        let (ra, rb) = (self.rows[a], self.rows[b]);
        let and = ra.and(&rb);
        let nor = ra.nor(&rb);
        let xor = and.nor(&nor); // !(and | nor) == a ^ b
        SenseOut { and, nor, xor }
    }

    /// Reads the single bit at (`row`, `col`), a test convenience (the
    /// loader moves whole rows: [`ComputeArray::peek_lanes`](crate::ComputeArray::peek_lanes)).
    ///
    /// # Errors
    ///
    /// Returns an error if the row or column is out of range.
    pub fn get(&self, row: usize, col: usize) -> Result<bool> {
        check_row(row)?;
        if col >= COLS {
            return Err(SramError::ColOutOfRange { col });
        }
        Ok(self.rows[row].get(col))
    }

    /// Writes the single bit at (`row`, `col`), a test convenience (the
    /// loader moves whole rows: [`ComputeArray::poke_lanes`](crate::ComputeArray::poke_lanes)).
    ///
    /// # Errors
    ///
    /// Returns an error if the row or column is out of range.
    pub fn set(&mut self, row: usize, col: usize, bit: bool) -> Result<()> {
        check_row(row)?;
        if col >= COLS {
            return Err(SramError::ColOutOfRange { col });
        }
        self.rows[row].set(col, bit);
        Ok(())
    }
}

/// Rejects a word line past the array.
pub(crate) fn check_row(row: usize) -> Result<()> {
    if row >= ROWS {
        return Err(SramError::RowOutOfRange { row });
    }
    Ok(())
}

/// Rejects a two-row activation the array cannot perform: a row past the
/// array, or one row sensed against itself.
pub(crate) fn check_sense(a: usize, b: usize) -> Result<()> {
    check_row(a)?;
    check_row(b)?;
    if a == b {
        return Err(SramError::SelfActivation { row: a });
    }
    Ok(())
}

impl Default for SramArray {
    fn default() -> Self {
        SramArray::new()
    }
}

impl fmt::Debug for SramArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let populated = self.rows.iter().filter(|r| !r.is_zero()).count();
        write!(
            f,
            "SramArray {{ rows: {ROWS}, cols: {COLS}, non_zero_rows: {populated} }}"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut arr = SramArray::new();
        let row = BitRow::from_fn(|c| c % 3 == 0);
        arr.write_row(42, row).unwrap();
        assert_eq!(arr.read_row(42).unwrap(), row);
        assert!(arr.read_row(256).is_err());
        assert!(arr.write_row(256, row).is_err());
    }

    #[test]
    fn sense_produces_and_nor_xor() {
        let mut arr = SramArray::new();
        // Reproduce Figure 2b: cells {0,1} x {0,1} on four columns.
        let a = BitRow::from_fn(|c| c == 1 || c == 3);
        let b = BitRow::from_fn(|c| c == 2 || c == 3);
        arr.write_row(10, a).unwrap();
        arr.write_row(20, b).unwrap();
        let out = arr.sense(10, 20).unwrap();
        // col0: 0,0 -> and 0, nor 1, xor 0
        // col1: 1,0 -> and 0, nor 0, xor 1
        // col2: 0,1 -> and 0, nor 0, xor 1
        // col3: 1,1 -> and 1, nor 0, xor 0
        assert!(!out.and.get(0) && out.nor.get(0) && !out.xor.get(0));
        assert!(!out.and.get(1) && !out.nor.get(1) && out.xor.get(1));
        assert!(!out.and.get(2) && !out.nor.get(2) && out.xor.get(2));
        assert!(out.and.get(3) && !out.nor.get(3) && !out.xor.get(3));
    }

    #[test]
    fn sense_rejects_self_activation() {
        let arr = SramArray::new();
        assert_eq!(arr.sense(5, 5), Err(SramError::SelfActivation { row: 5 }));
    }

    #[test]
    fn sense_does_not_disturb_data() {
        let mut arr = SramArray::new();
        let a = BitRow::from_fn(|c| c % 2 == 0);
        let b = BitRow::from_fn(|c| c % 2 == 1);
        arr.write_row(0, a).unwrap();
        arr.write_row(1, b).unwrap();
        for _ in 0..100 {
            let _ = arr.sense(0, 1).unwrap();
        }
        assert_eq!(arr.read_row(0).unwrap(), a);
        assert_eq!(arr.read_row(1).unwrap(), b);
    }

    #[test]
    fn bit_granular_access() {
        let mut arr = SramArray::new();
        arr.set(7, 200, true).unwrap();
        assert!(arr.get(7, 200).unwrap());
        assert!(arr.get(7, 300).is_err());
        assert!(arr.set(300, 0, true).is_err());
    }
}
