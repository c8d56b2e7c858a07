//! Transpose Memory Unit (TMU): the 8T-SRAM gateway between bit-parallel and
//! transposed layouts (Section III-F, Figure 8).
//!
//! A TMU is a small SRAM array whose 8T bit cells can be read and written in
//! both the horizontal and the vertical direction. Data arriving from the
//! interconnect in the conventional element-per-row layout is written
//! horizontally and read out vertically as bit slices ready for the compute
//! arrays — or vice versa when results leave the cache. A few TMUs placed in
//! the cache-control box saturate the available interconnect bandwidth.
//!
//! The model keeps the TMU's cells as bit slices, so its transposed reads
//! and writes are row copies and its regular-direction port does the
//! transposing. The simulator has one transposition routine, here: that
//! port, the operand planes of [`pack_lanes`] and the compute array's
//! zero-cost operand loader
//! ([`ComputeArray::poke_lanes`](crate::ComputeArray::poke_lanes) and
//! [`ComputeArray::peek_lanes`](crate::ComputeArray::peek_lanes)) all move
//! bits through the same 8x8-tile packing, runs of any length included.

use std::fmt;
use std::ops::Range;

use crate::{BitRow, CycleStats, Result, SramError, COLS};

/// Width (elements) and height (bits) of one hardware TMU tile.
///
/// The Figure 8 design is drawn as an 8T array sized for byte elements; we
/// model a 64x64-bit tile (64 elements of up to 64 bits), matching the
/// 64-bit quadrant buses that feed it.
pub const TMU_TILE_DIM: usize = 64;

/// A transpose memory unit converting between bit-parallel and transposed
/// data layouts.
///
/// # Examples
///
/// ```
/// use nc_sram::TransposeUnit;
///
/// let mut tmu = TransposeUnit::new(8);
/// let elements = [1u64, 2, 3, 250];
/// tmu.load_regular(&elements)?;
/// // Bit-slice 1 holds the second bit of every element: 0,1,1,1.
/// let slice = tmu.read_bit_slice(1)?;
/// assert_eq!((0..4).map(|i| u8::from(slice.get(i))).collect::<Vec<_>>(), vec![0, 1, 1, 1]);
/// # Ok::<(), nc_sram::SramError>(())
/// ```
#[derive(Clone)]
pub struct TransposeUnit {
    /// The cells in the transposed direction: `slices[b]` holds bit `b` of
    /// every element, element `i` on column `i`.
    slices: Vec<BitRow>,
    elements: usize,
    stats: CycleStats,
}

impl TransposeUnit {
    /// Creates a TMU handling elements of `bits_per_element` bits (1..=64).
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_element` is 0 or exceeds 64.
    #[must_use]
    pub fn new(bits_per_element: usize) -> Self {
        assert!(
            (1..=64).contains(&bits_per_element),
            "TMU element width must be 1..=64 bits"
        );
        TransposeUnit {
            slices: vec![BitRow::zero(); bits_per_element],
            elements: 0,
            stats: CycleStats::new(),
        }
    }

    /// Element width this TMU was configured for.
    #[must_use]
    pub fn bits_per_element(&self) -> usize {
        self.slices.len()
    }

    /// Number of elements currently loaded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.elements
    }

    /// Returns `true` when no elements are loaded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.elements == 0
    }

    /// Access-cycle statistics of this unit.
    #[must_use]
    pub fn stats(&self) -> CycleStats {
        self.stats
    }

    /// Loads up to 256 elements in the regular (bit-parallel) direction,
    /// one access cycle per element row; the columns past the last element
    /// are cleared.
    ///
    /// # Errors
    ///
    /// Fails, leaving the unit untouched, if more than 256 elements are
    /// supplied or an element overflows the configured width.
    pub fn load_regular(&mut self, elements: &[u64]) -> Result<()> {
        pack_lanes(elements, &mut self.slices)?;
        self.stats.access_cycles += elements.len() as u64;
        self.elements = elements.len();
        Ok(())
    }

    /// Reads bit-slice `bit` in the transposed direction: bit `bit` of every
    /// loaded element, packed into a [`BitRow`] (element `i` on column `i`).
    /// One access cycle.
    ///
    /// # Errors
    ///
    /// Fails if `bit` exceeds the configured element width.
    pub fn read_bit_slice(&mut self, bit: usize) -> Result<BitRow> {
        let slice = *self
            .slices
            .get(bit)
            .ok_or(SramError::RowOutOfRange { row: bit })?;
        self.stats.access_cycles += 1;
        Ok(slice)
    }

    /// Writes bit-slice `bit` in the transposed direction (one access
    /// cycle), the inverse path used when results leave the compute arrays.
    ///
    /// # Errors
    ///
    /// Fails if `bit` exceeds the configured element width.
    pub fn write_bit_slice(&mut self, bit: usize, slice: &BitRow) -> Result<()> {
        let row = self
            .slices
            .get_mut(bit)
            .ok_or(SramError::RowOutOfRange { row: bit })?;
        *row = *slice;
        self.elements = COLS;
        self.stats.access_cycles += 1;
        Ok(())
    }

    /// Reads element `i` back in the regular direction (one access cycle).
    ///
    /// # Errors
    ///
    /// Fails if `i` exceeds 256 columns.
    pub fn read_regular(&mut self, i: usize) -> Result<u64> {
        if i >= COLS {
            return Err(SramError::ColOutOfRange { col: i });
        }
        self.stats.access_cycles += 1;
        let mut element = [0];
        gather_lanes(&self.slices, i, &mut element);
        Ok(element[0])
    }

    /// Convenience: transposes a byte slice into `8` bit-slice rows in one
    /// call (used when streaming quantized inputs through the C-BOX): a
    /// regular load, then the 8 transposed reads.
    ///
    /// # Errors
    ///
    /// Fails if more than 256 bytes are supplied or the unit is not
    /// byte-configured.
    pub fn transpose_bytes(&mut self, bytes: &[u8]) -> Result<Vec<BitRow>> {
        if self.bits_per_element() != 8 {
            return Err(SramError::DestinationTooNarrow {
                needed: 8,
                available: self.bits_per_element(),
            });
        }
        let words: Vec<u64> = bytes.iter().map(|&b| u64::from(b)).collect();
        self.load_regular(&words)?;
        (0..8).map(|bit| self.read_bit_slice(bit)).collect()
    }
}

/// Transposes the 8x8 bit matrix whose row `r` is byte `r` of `x`: bit `c`
/// of byte `r` moves to bit `r` of byte `c`. Its own inverse.
#[inline]
fn transpose8(x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    let x = x ^ t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    let x = x ^ t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// The transposition the TMU and the compute array's bulk loader
/// ([`ComputeArray::poke_lanes`](crate::ComputeArray::poke_lanes)) share:
/// byte `plane` of up to 64 lane values, as 8 bit-slice words. Word `b`
/// holds bit `8 * plane + b` of `values[i]` on bit `i`. Works on 8x8 bit
/// tiles, 8 lanes at a time.
#[inline]
fn pack_plane(values: &[u64], plane: usize) -> [u64; 8] {
    debug_assert!(values.len() <= 64 && plane < 8);
    let mut slices = [0u64; 8];
    for (group, lanes) in values.chunks(8).enumerate() {
        let tile = lanes
            .iter()
            .rev()
            .fold(0, |tile, &v| (tile << 8) | ((v >> (8 * plane)) & 0xFF));
        let tile = transpose8(tile);
        for (b, slice) in slices.iter_mut().enumerate() {
            *slice |= ((tile >> (8 * b)) & 0xFF) << (8 * group);
        }
    }
    slices
}

/// The inverse of [`pack_plane`]: bit `i` of slice word `b` becomes bit
/// `8 * plane + b` of `values[i]`; the other bytes of `values` are kept.
#[inline]
fn unpack_plane(slices: &[u64; 8], plane: usize, values: &mut [u64]) {
    debug_assert!(values.len() <= 64 && plane < 8);
    let byte = 8 * plane;
    for (group, lanes) in values.chunks_mut(8).enumerate() {
        let tile = slices
            .iter()
            .rev()
            .fold(0, |tile, &s| (tile << 8) | ((s >> (8 * group)) & 0xFF));
        let tile = transpose8(tile);
        for (l, v) in lanes.iter_mut().enumerate() {
            *v = (*v & !(0xFF << byte)) | (((tile >> (8 * l)) & 0xFF) << byte);
        }
    }
}

/// Packs lane values into bit-slice rows through the TMU's packing: bit `b`
/// of `values[i]` lands on column `i` of `rows[b]`, and the columns past
/// the last value are cleared. This builds the operand planes that
/// [`ComputeArray::load_rows`](crate::ComputeArray::load_rows) loads as
/// whole rows.
///
/// # Errors
///
/// Fails, leaving `rows` untouched, with [`SramError::ColOutOfRange`] when
/// there are more values than lanes and with
/// [`SramError::DestinationTooNarrow`] when a value needs more bits than
/// there are rows.
pub fn pack_lanes(values: &[u64], rows: &mut [BitRow]) -> Result<()> {
    if values.len() > COLS {
        return Err(SramError::ColOutOfRange { col: values.len() });
    }
    let bits = rows.len();
    if let Some(&wide) = values.iter().find(|&&v| bits < 64 && v >> bits != 0) {
        return Err(SramError::DestinationTooNarrow {
            needed: 64 - wide.leading_zeros() as usize,
            available: bits,
        });
    }
    rows.fill(BitRow::zero());
    scatter_lanes(rows, 0, values);
    Ok(())
}

/// Writes lane values into bit-slice rows, for [`pack_lanes`] and the
/// compute array's bulk loader: bit `b` of `values[i]` lands on column
/// `first + i` of `rows[b]` (zero for `b >= 64`); every other column keeps
/// its bit.
///
/// The caller keeps `first + values.len() <= COLS`.
pub(crate) fn scatter_lanes(rows: &mut [BitRow], first: usize, values: &[u64]) {
    for (word, offset, run) in word_runs(first, first + values.len()) {
        let lanes = &values[run];
        let mask = (u64::MAX >> (64 - lanes.len())) << offset;
        for (plane, rows) in rows.chunks_mut(8).enumerate() {
            let slices = if plane < 8 {
                pack_plane(lanes, plane)
            } else {
                [0; 8]
            };
            for (row, slice) in rows.iter_mut().zip(slices) {
                let cell = &mut row.words_mut()[word];
                *cell = (*cell & !mask) | (slice << offset);
            }
        }
    }
}

/// The inverse of [`scatter_lanes`]: `out[i]` becomes the value whose bit
/// `b < 64` is column `first + i` of `rows[b]`.
///
/// The caller keeps `first + out.len() <= COLS`.
pub(crate) fn gather_lanes(rows: &[BitRow], first: usize, out: &mut [u64]) {
    let rows = &rows[..rows.len().min(64)];
    if let [value] = out {
        // One lane: read its bit straight from each row.
        let (word, offset) = (first / 64, first % 64);
        *value = rows.iter().enumerate().fold(0, |value, (b, row)| {
            value | ((row.words()[word] >> offset) & 1) << b
        });
        return;
    }
    for (word, offset, run) in word_runs(first, first + out.len()) {
        let lanes = &mut out[run];
        lanes.fill(0);
        for (plane, rows) in rows.chunks(8).enumerate() {
            let mut slices = [0; 8];
            for (slice, row) in slices.iter_mut().zip(rows) {
                *slice = row.words()[word] >> offset;
            }
            unpack_plane(&slices, plane, lanes);
        }
    }
}

/// Splits the lanes `first..end` at 64-lane word boundaries into
/// non-empty runs `(word, offset of the run in the word, indices of the
/// run)`.
fn word_runs(first: usize, end: usize) -> impl Iterator<Item = (usize, usize, Range<usize>)> {
    let words = if first < end {
        first / 64..end.div_ceil(64)
    } else {
        0..0
    };
    words.map(move |word| {
        let (lo, hi) = ((64 * word).max(first), (64 * word + 64).min(end));
        (word, lo % 64, lo - first..hi - first)
    })
}

impl fmt::Debug for TransposeUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TransposeUnit {{ bits_per_element: {}, elements: {} }}",
            self.bits_per_element(),
            self.elements
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_regular_to_transposed_and_back() {
        let mut tmu = TransposeUnit::new(8);
        let data: Vec<u64> = (0..256).map(|i| (i * 7 % 256) as u64).collect();
        tmu.load_regular(&data).unwrap();
        // Reconstruct elements from bit slices.
        let slices: Vec<BitRow> = (0..8).map(|b| tmu.read_bit_slice(b).unwrap()).collect();
        for (i, &want) in data.iter().enumerate() {
            let mut got = 0u64;
            for (b, slice) in slices.iter().enumerate() {
                if slice.get(i) {
                    got |= 1 << b;
                }
            }
            assert_eq!(got, want, "element {i}");
        }
        // And back through the regular port.
        for (i, &want) in data.iter().enumerate() {
            assert_eq!(tmu.read_regular(i).unwrap(), want);
        }
    }

    #[test]
    fn write_bit_slices_then_read_regular() {
        let mut tmu = TransposeUnit::new(4);
        for bit in 0..4 {
            // Value 0b1010 on every even column, 0b0101 on odd.
            let slice = BitRow::from_fn(|c| ((0b1010 >> bit) & 1 == 1) == (c % 2 == 0));
            tmu.write_bit_slice(bit, &slice).unwrap();
        }
        assert_eq!(tmu.read_regular(0).unwrap(), 0b1010);
        assert_eq!(tmu.read_regular(1).unwrap(), 0b0101);
    }

    #[test]
    fn rejects_oversized_elements() {
        let mut tmu = TransposeUnit::new(4);
        assert!(tmu.load_regular(&[16]).is_err());
        assert!(tmu.load_regular(&[15]).is_ok());
        assert!(tmu.read_bit_slice(4).is_err());
        // A rejected load leaves cells, length and counters as they were.
        let before = tmu.stats();
        assert_eq!(
            tmu.load_regular(&[1, 2, 17]),
            Err(SramError::DestinationTooNarrow {
                needed: 5,
                available: 4
            })
        );
        assert!(tmu.load_regular(&[0; COLS + 1]).is_err());
        assert_eq!((tmu.stats(), tmu.len()), (before, 1));
        assert_eq!(tmu.read_regular(0).unwrap(), 15);
    }

    #[test]
    fn transpose_bytes_convenience() {
        let mut tmu = TransposeUnit::new(8);
        let rows = tmu.transpose_bytes(&[0xFF, 0x00, 0xA5]).unwrap();
        assert_eq!(rows.len(), 8);
        assert!(rows[0].get(0));
        assert!(!rows[0].get(1));
        assert!(rows[0].get(2)); // 0xA5 bit 0 = 1
        assert!(!rows[1].get(2)); // 0xA5 bit 1 = 0
        let bytes: Vec<u8> = (0..=255).map(|b: u8| b.wrapping_mul(37)).collect();
        let rows = tmu.transpose_bytes(&bytes).unwrap();
        for (bit, row) in rows.iter().enumerate() {
            assert_eq!(*row, tmu.read_bit_slice(bit).unwrap(), "slice {bit}");
        }
        assert_eq!(tmu.stats().access_cycles, 3 + 8 + 256 + 8 + 8);
    }

    #[test]
    fn planes_match_per_bit_packing_and_round_trip() {
        let values: Vec<u64> = (0..64u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i << 40))
            .collect();
        for len in [0, 1, 7, 8, 9, 63, 64] {
            for plane in 0..8 {
                let slices = pack_plane(&values[..len], plane);
                for (b, slice) in slices.iter().enumerate() {
                    for (i, v) in values.iter().enumerate() {
                        let want = i < len && (v >> (8 * plane + b)) & 1 == 1;
                        assert_eq!(
                            (slice >> i) & 1 == 1,
                            want,
                            "len {len} bit {} lane {i}",
                            8 * plane + b
                        );
                    }
                }
                let mut back = vec![u64::MAX; len];
                unpack_plane(&slices, plane, &mut back);
                for (got, v) in back.iter().zip(&values) {
                    let keep = !(0xFFu64 << (8 * plane));
                    assert_eq!(*got, keep | (v & !keep), "len {len} plane {plane}");
                }
            }
        }
    }

    #[test]
    fn counts_access_cycles() {
        let mut tmu = TransposeUnit::new(8);
        tmu.load_regular(&[1, 2, 3]).unwrap();
        let _ = tmu.read_bit_slice(0).unwrap();
        assert_eq!(tmu.stats().access_cycles, 4);
    }
}
