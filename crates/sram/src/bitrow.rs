//! A single 256-bit word line worth of data.

use std::fmt;

use crate::{COLS, ROW_WORDS};

/// One word line (row) of a 256-column SRAM array: a fixed 256-bit vector.
///
/// Bit `i` of a `BitRow` is the cell on bit line (column) `i`. Bitwise
/// operations apply to all 256 columns at once, mirroring the SIMD nature of
/// bit-line computing.
///
/// # Examples
///
/// ```
/// use nc_sram::BitRow;
///
/// let mut row = BitRow::zero();
/// row.set(7, true);
/// assert!(row.get(7));
/// assert_eq!(row.count_ones(), 1);
/// assert_eq!(row.and(&BitRow::ones()), row);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BitRow {
    words: [u64; ROW_WORDS],
}

impl BitRow {
    /// Returns a row with every bit cleared.
    #[must_use]
    pub const fn zero() -> Self {
        BitRow {
            words: [0; ROW_WORDS],
        }
    }

    /// Returns a row with every bit set.
    #[must_use]
    pub const fn ones() -> Self {
        BitRow {
            words: [u64::MAX; ROW_WORDS],
        }
    }

    /// Builds a row by evaluating `f` for every column index.
    ///
    /// ```
    /// use nc_sram::BitRow;
    /// let evens = BitRow::from_fn(|col| col % 2 == 0);
    /// assert_eq!(evens.count_ones(), 128);
    /// ```
    #[must_use]
    pub fn from_fn(mut f: impl FnMut(usize) -> bool) -> Self {
        let mut row = BitRow::zero();
        for col in 0..COLS {
            if f(col) {
                row.set(col, true);
            }
        }
        row
    }

    /// Reads the bit stored on column `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col >= 256`.
    #[must_use]
    #[inline]
    pub fn get(&self, col: usize) -> bool {
        assert!(col < COLS, "column {col} out of range");
        (self.words[col / 64] >> (col % 64)) & 1 == 1
    }

    /// Writes `bit` to column `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col >= 256`.
    #[inline]
    pub fn set(&mut self, col: usize, bit: bool) {
        assert!(col < COLS, "column {col} out of range");
        let mask = 1u64 << (col % 64);
        if bit {
            self.words[col / 64] |= mask;
        } else {
            self.words[col / 64] &= !mask;
        }
    }

    /// Column-wise AND, the value sensed on the bit line during a two-row
    /// activation.
    #[must_use]
    #[inline]
    pub fn and(&self, other: &BitRow) -> BitRow {
        self.zip(other, |a, b| a & b)
    }

    /// Column-wise OR.
    #[must_use]
    #[inline]
    pub fn or(&self, other: &BitRow) -> BitRow {
        self.zip(other, |a, b| a | b)
    }

    /// Column-wise XOR, produced by the peripheral NOR gate combining the two
    /// sense-amp outputs (`A^B = !(A&B) & !(!A&!B)`).
    #[must_use]
    #[inline]
    pub fn xor(&self, other: &BitRow) -> BitRow {
        self.zip(other, |a, b| a ^ b)
    }

    /// Column-wise NOR, the value sensed on the bit-line complement during a
    /// two-row activation.
    #[must_use]
    #[inline]
    pub fn nor(&self, other: &BitRow) -> BitRow {
        self.zip(other, |a, b| !(a | b))
    }

    /// Column-wise complement.
    #[must_use]
    #[inline]
    pub fn not(&self) -> BitRow {
        let mut out = *self;
        for w in &mut out.words {
            *w = !*w;
        }
        out
    }

    /// Selects `self` where `mask` is set and `other` where it is clear.
    ///
    /// This is the tag-gated write-back behaviour: the new value lands only on
    /// columns whose bit-line driver is enabled.
    #[must_use]
    #[inline]
    pub fn select(&self, other: &BitRow, mask: &BitRow) -> BitRow {
        let mut out = BitRow::zero();
        for i in 0..ROW_WORDS {
            out.words[i] = (self.words[i] & mask.words[i]) | (other.words[i] & !mask.words[i]);
        }
        out
    }

    /// The row holding `copies` copies of columns `from..from + width` of
    /// `self` side by side from column `at`: column `at + i * width + c` of
    /// the result is column `from + c` of `self`, for `i < copies` and
    /// `c < width`. Every other column is clear, and columns past the last
    /// one are dropped. The copies double with one row shift each, so a
    /// plane replicated across lane groups never moves single lanes.
    ///
    /// ```
    /// use nc_sram::BitRow;
    /// let pair = BitRow::from_fn(|col| col == 1 || col == 2);
    /// let tiled = pair.tiled(1, 2, 3, 10);
    /// assert_eq!(tiled, BitRow::from_fn(|col| (10..16).contains(&col)));
    /// ```
    #[must_use]
    pub fn tiled(&self, from: usize, width: usize, copies: usize, at: usize) -> BitRow {
        let end = width.saturating_mul(copies).min(COLS);
        let mut row = self.shift_down(from).and(&BitRow::lane_range(0, width));
        let mut filled = width;
        while filled < end {
            row = row.or(&row.shift_up(filled));
            filled *= 2;
        }
        row.and(&BitRow::lane_range(0, end)).shift_up(at)
    }

    /// Number of set bits across all 256 columns.
    #[must_use]
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Returns `true` if every bit is clear.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over the 256 column bits, least column first.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..COLS).map(move |c| self.get(c))
    }

    /// The row whose column `64 * i + j` is bit `j` of `words[i]`.
    #[inline]
    pub(crate) const fn from_words(words: [u64; ROW_WORDS]) -> Self {
        BitRow { words }
    }

    /// The backing words, column `64 * i + j` in bit `j` of word `i`.
    #[inline]
    pub(crate) const fn words(&self) -> &[u64; ROW_WORDS] {
        &self.words
    }

    /// Mutable [`BitRow::words`].
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64; ROW_WORDS] {
        &mut self.words
    }

    /// The mask of columns `start..end` (empty when `start >= end`).
    #[inline]
    pub(crate) fn lane_range(start: usize, end: usize) -> BitRow {
        let below = |n: usize| {
            BitRow::from_words(std::array::from_fn(|i| {
                let n = n.saturating_sub(64 * i);
                if n >= 64 {
                    u64::MAX
                } else {
                    (1u64 << n) - 1
                }
            }))
        };
        below(end).and(&below(start).not())
    }

    /// The row moved `cols` columns towards column 0: column `c` of the
    /// result is column `c + cols` of `self`, and the top `cols` columns
    /// are clear.
    #[inline]
    pub(crate) fn shift_down(&self, cols: usize) -> BitRow {
        let (skip, bits) = (cols / 64, cols % 64);
        let word = |i: usize| self.words.get(i).copied().unwrap_or(0);
        // `<< 1 << (63 - bits)` is a shift by `64 - bits` that clears the
        // word at `bits == 0`.
        BitRow::from_words(std::array::from_fn(|i| {
            (word(i + skip) >> bits) | (word(i + skip + 1) << 1 << (63 - bits))
        }))
    }

    /// The row moved `cols` columns away from column 0: column `c + cols` of
    /// the result is column `c` of `self`, and the low `cols` columns are
    /// clear.
    #[inline]
    pub(crate) fn shift_up(&self, cols: usize) -> BitRow {
        let (skip, bits) = (cols / 64, cols % 64);
        let word = |i: Option<usize>| i.and_then(|i| self.words.get(i)).copied().unwrap_or(0);
        // `>> 1 >> (63 - bits)`: the shift by `64 - bits` of `shift_down`.
        BitRow::from_words(std::array::from_fn(|i| {
            (word(i.checked_sub(skip)) << bits)
                | (word(i.checked_sub(skip + 1)) >> 1 >> (63 - bits))
        }))
    }

    #[inline]
    fn zip(&self, other: &BitRow, f: impl Fn(u64, u64) -> u64) -> BitRow {
        let mut out = BitRow::zero();
        for i in 0..ROW_WORDS {
            out.words[i] = f(self.words[i], other.words[i]);
        }
        out
    }
}

impl fmt::Debug for BitRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print as hex words, most-significant column group first, so the
        // representation is compact but never empty.
        write!(
            f,
            "BitRow({:016x}_{:016x}_{:016x}_{:016x})",
            self.words[3], self.words[2], self.words[1], self.words[0]
        )
    }
}

impl fmt::Binary for BitRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for col in (0..COLS).rev() {
            write!(f, "{}", u8::from(self.get(col)))?;
        }
        Ok(())
    }
}

impl std::ops::BitAnd for BitRow {
    type Output = BitRow;
    fn bitand(self, rhs: BitRow) -> BitRow {
        self.and(&rhs)
    }
}

impl std::ops::BitOr for BitRow {
    type Output = BitRow;
    fn bitor(self, rhs: BitRow) -> BitRow {
        self.or(&rhs)
    }
}

impl std::ops::BitXor for BitRow {
    type Output = BitRow;
    fn bitxor(self, rhs: BitRow) -> BitRow {
        self.xor(&rhs)
    }
}

impl std::ops::Not for BitRow {
    type Output = BitRow;
    fn not(self) -> BitRow {
        BitRow::not(&self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_ones() {
        assert_eq!(BitRow::zero().count_ones(), 0);
        assert_eq!(BitRow::ones().count_ones(), COLS as u32);
        assert!(BitRow::zero().is_zero());
        assert!(!BitRow::ones().is_zero());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut row = BitRow::zero();
        for col in [0, 1, 63, 64, 127, 128, 255] {
            row.set(col, true);
            assert!(row.get(col), "col {col}");
            row.set(col, false);
            assert!(!row.get(col), "col {col}");
        }
    }

    #[test]
    fn logic_matches_column_semantics() {
        let a = BitRow::from_fn(|c| c % 2 == 0);
        let b = BitRow::from_fn(|c| c % 3 == 0);
        for c in 0..COLS {
            let (x, y) = (a.get(c), b.get(c));
            assert_eq!(a.and(&b).get(c), x && y);
            assert_eq!(a.or(&b).get(c), x || y);
            assert_eq!(a.xor(&b).get(c), x ^ y);
            assert_eq!(a.nor(&b).get(c), !(x || y));
            assert_eq!(a.not().get(c), !x);
        }
    }

    #[test]
    fn select_applies_mask_per_column() {
        let a = BitRow::ones();
        let b = BitRow::zero();
        let mask = BitRow::from_fn(|c| c < 10);
        let sel = a.select(&b, &mask);
        assert_eq!(sel.count_ones(), 10);
        for c in 0..10 {
            assert!(sel.get(c));
        }
    }

    #[test]
    fn operators_delegate() {
        let a = BitRow::from_fn(|c| c % 5 == 0);
        let b = BitRow::from_fn(|c| c % 7 == 0);
        assert_eq!(a & b, a.and(&b));
        assert_eq!(a | b, a.or(&b));
        assert_eq!(a ^ b, a.xor(&b));
        assert_eq!(!a, a.not());
    }

    #[test]
    fn shifts_and_lane_ranges_match_per_column_moves() {
        let row = BitRow::from_fn(|c| (c * 7 + c / 5) % 3 == 0);
        for cols in [0, 1, 5, 63, 64, 65, 127, 128, 200, 255, 256, 300] {
            let (down, up) = (row.shift_down(cols), row.shift_up(cols));
            for c in 0..COLS {
                assert_eq!(
                    down.get(c),
                    c + cols < COLS && row.get(c + cols),
                    "down {cols} col {c}"
                );
                assert_eq!(
                    up.get(c),
                    c >= cols && row.get(c - cols),
                    "up {cols} col {c}"
                );
            }
        }
        for (start, end) in [
            (0, 0),
            (0, 1),
            (3, 64),
            (63, 65),
            (0, 256),
            (100, 90),
            (255, 256),
        ] {
            let mask = BitRow::lane_range(start, end);
            for c in 0..COLS {
                assert_eq!(
                    mask.get(c),
                    (start..end).contains(&c),
                    "{start}..{end} col {c}"
                );
            }
        }
    }

    #[test]
    fn tiled_matches_per_column_copies() {
        let row = BitRow::from_fn(|c| (c * 5 + c / 3) % 4 == 1);
        for (from, width, copies, at) in [
            (0, 1, 256, 0),
            (0, 4, 3, 0),
            (8, 12, 21, 0),
            (3, 5, 7, 2),
            (60, 70, 2, 64),
            (0, 128, 2, 0),
            (0, 256, 1, 0),
            (10, 16, 20, 100),
            (0, 0, 5, 0),
            (0, 7, 0, 9),
        ] {
            let tiled = row.tiled(from, width, copies, at);
            for c in 0..COLS {
                let copy = c
                    .checked_sub(at)
                    .filter(|&rel| width > 0 && rel < width * copies);
                let want = copy.is_some_and(|rel| {
                    let src = from + rel % width;
                    src < COLS && row.get(src)
                });
                assert_eq!(
                    tiled.get(c),
                    want,
                    "{from} {width}x{copies} at {at}, col {c}"
                );
            }
        }
    }

    #[test]
    fn debug_is_never_empty() {
        let repr = format!("{:?}", BitRow::zero());
        assert!(repr.contains("BitRow"));
        let bin = format!("{:b}", BitRow::ones());
        assert_eq!(bin.len(), COLS);
    }
}
