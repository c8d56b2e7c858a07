//! Inter-array data transfers.
//!
//! When the channels of one filter exceed one array's 256 bit lines, the
//! reduction must continue *across* arrays (Section III-D). Two 8KB arrays
//! within a bank share sense amps, so a transfer between them is cheap; the
//! general case rides the intra-slice bus and is charged by the geometry
//! model on top of the per-array access cycles counted here.

use crate::{BitRow, ComputeArray, CycleStats, Operand, Result, SramError, COLS};

/// Copies `lanes` lanes' worth of `src_op` in `src` into `dst_op` of `dst`,
/// lane `l` to lane `l` (optionally shifted by `dst_lane_offset`).
///
/// Charges one access cycle per row on the source (read-out) and one on the
/// destination (write-in); interconnect time/energy is accounted by the
/// caller's transfer model.
///
/// # Errors
///
/// Fails, before the first cycle, on width mismatch, lane overflow, or
/// zero-row clobbering.
///
/// # Examples
///
/// ```
/// use nc_sram::{ComputeArray, Operand, ops::copy_lanes_between};
///
/// let mut a = ComputeArray::new();
/// let mut b = ComputeArray::new();
/// let op = Operand::new(0, 8)?;
/// a.poke_lane(3, op, 42);
/// copy_lanes_between(&mut a, op, &mut b, op, 0, 16)?;
/// assert_eq!(b.peek_lane(3, op), 42);
/// # Ok::<(), nc_sram::SramError>(())
/// ```
pub fn copy_lanes_between(
    src: &mut ComputeArray,
    src_op: Operand,
    dst: &mut ComputeArray,
    dst_op: Operand,
    dst_lane_offset: usize,
    lanes: usize,
) -> Result<CycleStats> {
    if src_op.bits() != dst_op.bits() {
        return Err(SramError::DestinationTooNarrow {
            needed: src_op.bits(),
            available: dst_op.bits(),
        });
    }
    if lanes == 0 || lanes > COLS || dst_lane_offset + lanes > COLS {
        return Err(SramError::ColOutOfRange {
            col: dst_lane_offset + lanes,
        });
    }
    dst.guard_zero_row(&dst_op)?;
    let before = src.stats() + dst.stats();
    let mask = BitRow::lane_range(dst_lane_offset, dst_lane_offset + lanes);
    for i in 0..src_op.bits() {
        let moved = src
            .step_access_read(src_op.row(i))
            .shift_up(dst_lane_offset);
        let dst_row = dst_op.row(i);
        let cells = dst.raw_cells_mut();
        cells.set_row(dst_row, moved.select(&cells.row(dst_row), &mask));
        dst.tick_access(&[], &[dst_row], "transfer/write");
    }
    Ok((src.stats() + dst.stats()) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_moves_lanes_and_counts_access_cycles() {
        let mut a = ComputeArray::with_zero_row(255).unwrap();
        let mut b = ComputeArray::with_zero_row(255).unwrap();
        let op = Operand::new(0, 32).unwrap();
        for lane in 0..64 {
            a.poke_lane(lane, op, lane as u64 * 1000);
        }
        let d = copy_lanes_between(&mut a, op, &mut b, op, 64, 64).unwrap();
        for lane in 0..64 {
            assert_eq!(b.peek_lane(64 + lane, op), lane as u64 * 1000);
        }
        assert_eq!(d.access_cycles, 64, "32 reads + 32 writes");
        assert_eq!(d.compute_cycles, 0);
    }

    #[test]
    fn transfer_rejects_zero_row_clobber() {
        let mut a = ComputeArray::new();
        let mut b = ComputeArray::with_zero_row(10).unwrap();
        let op = Operand::new(0, 32).unwrap();
        assert!(copy_lanes_between(&mut a, op, &mut b, op, 0, 8).is_err());
    }
}
