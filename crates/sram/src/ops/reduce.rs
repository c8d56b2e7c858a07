//! Lane moves and in-array tree reduction (Section III-D, Figure 5).
//!
//! Reduction brings values that live on *different bit lines* together: at
//! each step the upper half of the surviving lanes is moved sideways (a
//! word-line move through the column-multiplexed sense amps) underneath the
//! lower half, and a region-wide addition halves the live lane count. After
//! `log2(lanes)` steps lane 0 holds the sum.

use crate::compute::Run;
use crate::{BitRow, ComputeArray, CycleStats, Operand, Result, SramError, StepKind, COLS};

/// Compute cycles charged per row for a lane move.
///
/// Moves between word lines *and* bit lines go through the column mux and
/// sense amplifiers; the paper notes they can be sped up with sense-amp
/// cycling (the paper's reference 18, Cache Automaton). We model one read
/// cycle plus one write cycle per row, for
/// every affected lane in parallel.
pub const LANE_MOVE_CYCLES_PER_ROW: u64 = 2;

impl ComputeArray {
    /// Lane move: for every `lane < lanes`, copies `src`'s operand from lane
    /// `lane + lane_shift` into `dst` on `lane`. Lanes `>= lanes` keep their
    /// `dst` contents. Charges [`LANE_MOVE_CYCLES_PER_ROW`] compute cycles
    /// per row.
    ///
    /// # Errors
    ///
    /// Fails on width mismatch, lane overflow, row-overlapping regions, or
    /// an attempt to write the zero row.
    pub fn move_lanes(
        &mut self,
        src: Operand,
        dst: Operand,
        lane_shift: usize,
        lanes: usize,
    ) -> Result<CycleStats> {
        let end = lanes + lane_shift;
        self.check_move(src, dst, lanes > 0 && end <= COLS, end)?;
        let mask = BitRow::lane_range(0, lanes);
        Ok(self.run(|run| run.move_rows(src, dst, lane_shift, &mask)))
    }

    /// Tree-sum reduction of `lanes` values held in `value` (one per lane)
    /// into lane 0's `value` region, using `scratch` as the second reduction
    /// operand of Figure 10(b).
    ///
    /// `lanes` must be a power of two (the mapping pads channels with zeros
    /// to the next power of two, Section IV-A). Values wrap modulo
    /// 2^`value.bits()`; size the region for the worst-case sum (the paper
    /// reserves 4-byte segments).
    ///
    /// Cycle count: `log2(lanes) * (2*w + w)` where `w = value.bits()` —
    /// each step is one lane move plus one region addition.
    ///
    /// # Errors
    ///
    /// Fails unless `lanes` is a power of two within the array, regions are
    /// disjoint and of equal width, and (for more than one lane) both are
    /// clear of the zero row.
    pub fn reduce_sum(
        &mut self,
        value: Operand,
        scratch: Operand,
        lanes: usize,
    ) -> Result<CycleStats> {
        if !self.check_reduce(value, scratch, lanes)? {
            return Ok(CycleStats::new());
        }
        self.check_add_assign(value, scratch)?;
        Ok(self.run(|run| {
            run.reduce(value, scratch, lanes, |run| run.add_assign(value, scratch));
        }))
    }

    /// Tree-max reduction: leaves the maximum of `lanes` unsigned values in
    /// lane 0's `value` region. Requires an extra scratch region and dump
    /// row for the comparison (see [`ComputeArray::max_assign`]).
    ///
    /// # Errors
    ///
    /// Same constraints as [`ComputeArray::reduce_sum`] plus the comparison
    /// constraints.
    pub fn reduce_max(
        &mut self,
        value: Operand,
        scratch: Operand,
        cmp_scratch: Operand,
        dump_row: usize,
        lanes: usize,
    ) -> Result<CycleStats> {
        self.reduce_extremum(true, value, scratch, cmp_scratch, dump_row, lanes)
    }

    /// Tree-min reduction: leaves the minimum of `lanes` unsigned values in
    /// lane 0's `value` region.
    ///
    /// # Errors
    ///
    /// Same constraints as [`ComputeArray::reduce_max`].
    pub fn reduce_min(
        &mut self,
        value: Operand,
        scratch: Operand,
        cmp_scratch: Operand,
        dump_row: usize,
        lanes: usize,
    ) -> Result<CycleStats> {
        self.reduce_extremum(false, value, scratch, cmp_scratch, dump_row, lanes)
    }

    /// Grouped lane move: within each of `groups` lane groups of stride
    /// `group_stride`, copies `src` from lane `base + l + lane_shift` to
    /// `dst` on lane `base + l` for `l < lanes_per_group`. All groups move
    /// in parallel (same relative column-mux pattern), so the cost equals a
    /// single [`ComputeArray::move_lanes`].
    ///
    /// # Errors
    ///
    /// Same constraints as `move_lanes`, per group.
    pub fn move_lanes_grouped(
        &mut self,
        src: Operand,
        dst: Operand,
        lane_shift: usize,
        lanes_per_group: usize,
        group_stride: usize,
        groups: usize,
    ) -> Result<CycleStats> {
        self.check_move_grouped(src, dst, lane_shift, lanes_per_group, group_stride, groups)?;
        let mask = group_mask(groups, group_stride, lanes_per_group);
        Ok(self.run(|run| run.move_rows(src, dst, lane_shift, &mask)))
    }

    /// The checks of [`ComputeArray::move_lanes_grouped`].
    fn check_move_grouped(
        &self,
        src: Operand,
        dst: Operand,
        lane_shift: usize,
        lanes_per_group: usize,
        group_stride: usize,
        groups: usize,
    ) -> Result<()> {
        let end = groups * group_stride;
        let lanes_fit = groups > 0
            && lanes_per_group > 0
            && lanes_per_group + lane_shift <= group_stride
            && end <= COLS;
        self.check_move(src, dst, lanes_fit, end)
    }

    /// The checks both lane moves run, in order: equal widths, lanes that
    /// fit the array (else [`SramError::ColOutOfRange`] at `end`), disjoint
    /// regions, and a destination clear of the zero row.
    fn check_move(&self, src: Operand, dst: Operand, lanes_fit: bool, end: usize) -> Result<()> {
        if src.bits() != dst.bits() {
            return Err(SramError::DestinationTooNarrow {
                needed: src.bits(),
                available: dst.bits(),
            });
        }
        if !lanes_fit {
            return Err(SramError::ColOutOfRange { col: end });
        }
        if src.overlaps(&dst) {
            return Err(SramError::OverlappingOperands {
                what: "lane-move source and destination share rows",
            });
        }
        self.guard_zero_row(&dst)
    }

    /// Grouped tree-sum reduction: `groups` independent lane groups of
    /// `group_lanes` lanes each (stride `group_lanes`) reduce
    /// simultaneously; group `g`'s sum lands on lane `g * group_lanes`.
    /// This is how one 8KB array reduces the channels of several packed
    /// filters at once (Figure 9: M5 and M6 share an array).
    ///
    /// # Errors
    ///
    /// Same constraints as [`ComputeArray::reduce_sum`].
    pub fn reduce_sum_grouped(
        &mut self,
        value: Operand,
        scratch: Operand,
        group_lanes: usize,
        groups: usize,
    ) -> Result<CycleStats> {
        if !group_lanes.is_power_of_two() || group_lanes * groups > COLS {
            return Err(SramError::NonPowerOfTwoLanes { lanes: group_lanes });
        }
        self.check_reduce_regions(value, scratch)?;
        if group_lanes > 1 {
            // The first level's checks cover every later, narrower one.
            let first = group_lanes / 2;
            self.check_move_grouped(value, scratch, first, first, group_lanes, groups)?;
            self.check_add_assign(value, scratch)?;
        }
        Ok(self.run(|run| {
            let mut stride = group_lanes / 2;
            while stride >= 1 {
                let mask = group_mask(groups, group_lanes, stride);
                run.move_rows(value, scratch, stride, &mask);
                run.add_assign(value, scratch);
                stride /= 2;
            }
        }))
    }

    /// `reduce_max` (`max`) or `reduce_min`.
    fn reduce_extremum(
        &mut self,
        max: bool,
        value: Operand,
        scratch: Operand,
        cmp_scratch: Operand,
        dump_row: usize,
        lanes: usize,
    ) -> Result<CycleStats> {
        if !self.check_reduce(value, scratch, lanes)? {
            return Ok(CycleStats::new());
        }
        let zero = self.check_extremum(value, scratch, cmp_scratch, dump_row)?;
        Ok(self.run(|run| {
            run.reduce(value, scratch, lanes, |run| {
                run.extremum(max, value, scratch, cmp_scratch, dump_row, zero);
            });
        }))
    }

    /// The checks of a tree reduction over `lanes` lanes, up to its
    /// combine step: a power-of-two lane count within the array, equal
    /// disjoint regions, and a lane-move target clear of the zero row.
    /// `false` when no level runs (one lane).
    fn check_reduce(&self, value: Operand, scratch: Operand, lanes: usize) -> Result<bool> {
        if !lanes.is_power_of_two() || lanes > COLS {
            return Err(SramError::NonPowerOfTwoLanes { lanes });
        }
        self.check_reduce_regions(value, scratch)?;
        if lanes == 1 {
            return Ok(false);
        }
        self.guard_zero_row(&scratch)?;
        Ok(true)
    }

    fn check_reduce_regions(&self, value: Operand, scratch: Operand) -> Result<()> {
        if value.bits() != scratch.bits() {
            return Err(SramError::DestinationTooNarrow {
                needed: value.bits(),
                available: scratch.bits(),
            });
        }
        if value.overlaps(&scratch) {
            return Err(SramError::OverlappingOperands {
                what: "reduction value and scratch regions overlap",
            });
        }
        Ok(())
    }
}

#[allow(clippy::inline_always)] // see `Run`
impl Run<'_> {
    /// The row loop shared by both lane moves: per row of `src`, one read
    /// cycle on the source row, then one read-modify-write cycle that
    /// merges the source, moved `lane_shift` lanes down, into the
    /// destination row on the lanes of `mask`
    /// ([`LANE_MOVE_CYCLES_PER_ROW`] = 2).
    #[inline(always)]
    fn move_rows(&mut self, src: Operand, dst: Operand, lane_shift: usize, mask: &BitRow) {
        for (src_row, dst_row) in src.rows().zip(dst.rows()) {
            let moved = self
                .read_row(StepKind::Compute, src_row, "move_lanes/read")
                .shift_down(lane_shift);
            self.write_lanes(
                StepKind::Compute,
                &[dst_row],
                dst_row,
                moved,
                mask,
                "move_lanes/write",
            );
        }
    }

    /// The levels of a checked tree reduction: per level, move the upper
    /// half's values under the lower half, then `combine` on every lane
    /// (SIMD; lanes `>= stride` compute garbage that is never read again).
    #[inline(always)]
    fn reduce(
        &mut self,
        value: Operand,
        scratch: Operand,
        lanes: usize,
        mut combine: impl FnMut(&mut Self),
    ) {
        let mut stride = lanes / 2;
        while stride >= 1 {
            self.move_rows(value, scratch, stride, &BitRow::lane_range(0, stride));
            combine(self);
            stride /= 2;
        }
    }
}

/// The lanes `base..base + lanes_per_group` of each group
/// `base = g * group_stride`, `g < groups`.
fn group_mask(groups: usize, group_stride: usize, lanes_per_group: usize) -> BitRow {
    (0..groups).fold(BitRow::zero(), |mask, g| {
        let base = g * group_stride;
        mask.or(&BitRow::lane_range(base, base + lanes_per_group))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr() -> ComputeArray {
        ComputeArray::with_zero_row(255).unwrap()
    }

    #[test]
    fn figure5_reduction_of_four_words() {
        // Figure 5 reduces C1..C4 to one sum with log2(4) = 2 steps.
        let mut a = arr();
        let value = Operand::new(0, 32).unwrap();
        let scratch = Operand::new(32, 32).unwrap();
        for (lane, v) in [11u64, 22, 33, 44].into_iter().enumerate() {
            a.poke_lane(lane, value, v);
        }
        let d = a.reduce_sum(value, scratch, 4).unwrap();
        assert_eq!(a.peek_lane(0, value), 110);
        // 2 steps * (2*32 move + 32 add) = 192 cycles.
        assert_eq!(d.compute_cycles, 192);
    }

    #[test]
    fn reduce_256_lanes() {
        let mut a = arr();
        let value = Operand::new(0, 32).unwrap();
        let scratch = Operand::new(32, 32).unwrap();
        let mut expected = 0u64;
        for lane in 0..COLS {
            let v = (lane * 37 + 5) as u64;
            a.poke_lane(lane, value, v);
            expected += v;
        }
        let d = a.reduce_sum(value, scratch, COLS).unwrap();
        assert_eq!(a.peek_lane(0, value), expected);
        // log2(256) = 8 steps of a 32-bit lane move (2 cycles per row) and
        // a 32-bit add.
        assert_eq!(d.compute_cycles, 8 * (2 * 32 + 32));
    }

    #[test]
    fn reduce_rejects_non_power_of_two() {
        let mut a = arr();
        let value = Operand::new(0, 32).unwrap();
        let scratch = Operand::new(32, 32).unwrap();
        assert_eq!(
            a.reduce_sum(value, scratch, 3),
            Err(SramError::NonPowerOfTwoLanes { lanes: 3 })
        );
    }

    #[test]
    fn reduce_max_and_min() {
        let mut a = arr();
        let value = Operand::new(0, 16).unwrap();
        let scratch = Operand::new(16, 16).unwrap();
        let cmp = Operand::new(32, 16).unwrap();
        let vals = [7u64, 900, 3, 512, 44, 44, 0, 65535];
        for (lane, v) in vals.into_iter().enumerate() {
            a.poke_lane(lane, value, v);
        }
        a.reduce_max(value, scratch, cmp, 250, 8).unwrap();
        assert_eq!(a.peek_lane(0, value), 65535);
        for (lane, v) in vals.into_iter().enumerate() {
            a.poke_lane(lane, value, v);
        }
        a.reduce_min(value, scratch, cmp, 250, 8).unwrap();
        assert_eq!(a.peek_lane(0, value), 0);
    }

    #[test]
    fn grouped_reduction_reduces_each_group_independently() {
        // 4 groups of 8 lanes — one array reducing the channels of four
        // packed filters at once.
        let mut a = arr();
        let value = Operand::new(0, 32).unwrap();
        let scratch = Operand::new(32, 32).unwrap();
        let mut expected = [0u64; 4];
        for (g, want) in expected.iter_mut().enumerate() {
            for l in 0..8 {
                let v = (g * 100 + l * 7 + 1) as u64;
                a.poke_lane(g * 8 + l, value, v);
                *want += v;
            }
        }
        a.reduce_sum_grouped(value, scratch, 8, 4).unwrap();
        for (g, want) in expected.into_iter().enumerate() {
            assert_eq!(a.peek_lane(g * 8, value), want, "group {g}");
        }
    }

    #[test]
    fn grouped_reduction_with_single_lane_groups_is_noop() {
        let mut a = arr();
        let value = Operand::new(0, 32).unwrap();
        let scratch = Operand::new(32, 32).unwrap();
        a.poke_lane(0, value, 5);
        a.poke_lane(1, value, 7);
        let d = a.reduce_sum_grouped(value, scratch, 1, 2).unwrap();
        assert_eq!(d.compute_cycles, 0);
        assert_eq!(a.peek_lane(0, value), 5);
        assert_eq!(a.peek_lane(1, value), 7);
    }

    #[test]
    fn move_lanes_preserves_untouched_lanes() {
        let mut a = arr();
        let src = Operand::new(0, 8).unwrap();
        let dst = Operand::new(8, 8).unwrap();
        a.poke_lane(4, src, 99);
        a.poke_lane(10, dst, 123);
        a.move_lanes(src, dst, 4, 4).unwrap();
        assert_eq!(a.peek_lane(0, dst), 99, "lane 0 receives lane 4's value");
        assert_eq!(a.peek_lane(10, dst), 123, "lane 10 untouched");
    }
}
