//! High-level bit-serial operations composed from single-cycle micro-ops.
//!
//! Every operation in this module is implemented as a sequence of the
//! [`ComputeArray`](crate::ComputeArray) micro-ops (plus, for lane moves, the
//! sense-amp-cycling model of [`LANE_MOVE_CYCLES_PER_ROW`]), so its cycle count is
//! *derived from the micro-op sequence* rather than asserted. Each operation
//! returns the [`CycleStats`](crate::CycleStats) delta it consumed. The
//! `neural-cache` crate's `DerivedCostModel` holds no cycle constant: it
//! runs the executor's layout methods, which are sequences of these
//! operations, on a scratch array and takes their deltas as its costs.
//!
//! Each operation checks its operands (widths, overlaps, lane ranges, the
//! zero row) before its first cycle, so a rejected call changes no cell,
//! latch or counter. It then issues its whole cycle sequence, round
//! counters included, as one run of the micro-ops' infallible steps, which
//! keeps the carry and tag latches and the counters out of the array until
//! the operation ends. Lane moves merge whole rows under a lane mask.
//!
//! Paper cost reference (Section III): addition `n+1`, multiplication
//! `n^2+5n-2`, division `1.5n^2+5.5n`. The derived sequences here are close
//! but not identical (see [`ComputeArray::mul`](crate::ComputeArray::mul)
//! and [`ComputeArray::div`](crate::ComputeArray::div)); both cost models
//! are available to the timing simulator.

mod add;
mod cmp;
mod div;
mod logic;
mod mul;
mod reduce;
mod transfer;

pub use div::div_scratch_bits;
pub(crate) use logic::LogicOp;
pub use reduce::LANE_MOVE_CYCLES_PER_ROW;
pub use transfer::copy_lanes_between;

#[cfg(test)]
mod tests {
    use super::copy_lanes_between;
    use crate::{BitRow, ComputeArray, CycleStats, Operand, Predicate, Result, SramArray};

    const DUMP: usize = 250;

    fn op(base: usize, bits: usize) -> Operand {
        Operand::new(base, bits).unwrap()
    }

    /// An array with zero row 255, lane-dependent data on every row but the
    /// zero row, both latches set and the counters cleared, so any write,
    /// latch update or charged cycle shows.
    fn seeded() -> ComputeArray {
        let mut a = ComputeArray::with_zero_row(255).unwrap();
        let values: Vec<u64> = (0..256u64)
            .map(|l| l.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        for base in (0..192).step_by(64) {
            a.poke_lanes(0, op(base, 64), &values).unwrap();
        }
        a.poke_lanes(
            0,
            op(192, 63),
            &values.iter().map(|v| v >> 1).collect::<Vec<_>>(),
        )
        .unwrap();
        a.preset_carry(true);
        a.op_load_tag(5).unwrap();
        a.reset_stats();
        a
    }

    fn snapshot(a: &ComputeArray) -> (SramArray, BitRow, BitRow, CycleStats) {
        (a.cells().clone(), *a.carry(), *a.tag(), a.stats())
    }

    /// One rejected call of an op family, over the 8-bit regions `x`
    /// (rows 0..8), `y` (rows 8..16) and `z` (rows 16..24). Rows 248..256
    /// hold the zero row.
    type Case = (
        &'static str,
        fn(&mut ComputeArray, Operand, Operand, Operand) -> Result<CycleStats>,
    );

    /// Every op family checks before its first cycle: a call rejected for
    /// the zero row, an overlap or a width leaves cells, latches, counters
    /// and the recording exactly as they were.
    #[test]
    #[allow(clippy::too_many_lines)] // one table row per op family
    fn rejected_ops_leave_the_array_untouched() {
        let cases: &[Case] = &[
            ("add/zero row", |a, x, y, _| a.add(x, y, op(248, 8))),
            ("add/overlap", |a, x, _, _| a.add(x, op(4, 8), op(16, 9))),
            ("add_assign/zero row", |a, _, _, _| {
                a.add_assign(op(250, 6), op(0, 5))
            }),
            ("add_assign/width", |a, x, _, _| a.add_assign(op(16, 4), x)),
            ("add_scalar/zero row", |a, _, _, _| {
                a.add_scalar(op(250, 6), 3)
            }),
            ("add_scalar_signed/width", |a, _, _, z| {
                a.add_scalar_signed(z, 300)
            }),
            ("sub/zero-row scratch", |a, x, y, z| {
                a.sub(x, y, z, op(248, 8))
            }),
            ("sub/overlap", |a, x, y, _| a.sub(x, y, op(4, 8), op(24, 8))),
            ("zero/zero row", |a, _, _, _| a.zero(op(250, 6))),
            ("broadcast_scalar/zero row", |a, _, _, _| {
                a.broadcast_scalar(op(248, 8), 1)
            }),
            ("copy/zero row", |a, x, _, _| {
                a.copy(x, op(248, 8), Predicate::Tag)
            }),
            ("copy/width", |a, x, _, _| {
                a.copy(x, op(16, 7), Predicate::Always)
            }),
            ("copy_zext/zero row", |a, x, _, _| {
                a.copy_zext(x, op(245, 11))
            }),
            ("search_eq_scalar/sensed zero row", |a, _, _, _| {
                a.search_eq_scalar(op(250, 6), 0)
            }),
            ("mul/zero row", |a, x, y, _| a.mul(x, y, op(240, 16))),
            ("mul/width", |a, x, y, _| a.mul(x, y, op(16, 15))),
            ("mul_skip_zero_rows/zero row", |a, x, y, _| {
                a.mul_skip_zero_rows(x, y, op(240, 16))
            }),
            ("mul_skip_both/zero row", |a, x, y, _| {
                a.mul_skip_both(x, y, op(240, 16))
            }),
            ("mul_scalar/zero row", |a, x, _, _| {
                a.mul_scalar(x, 181, op(232, 24))
            }),
            ("compare_ge/zero dump row", |a, x, y, z| {
                a.compare_ge(x, y, z, 255)
            }),
            ("compare_ge/dump row past the array", |a, x, y, z| {
                a.compare_ge(x, y, z, 256)
            }),
            ("max_assign/zero row", |a, _, y, z| {
                a.max_assign(op(248, 8), y, z, DUMP - 8)
            }),
            ("relu/zero row", |a, _, _, _| a.relu(op(250, 6))),
            ("clamp_max_scalar/zero row", |a, _, _, _| {
                a.clamp_max_scalar(op(250, 6), 3, DUMP - 8)
            }),
            ("div/zero-row quotient", |a, x, y, _| {
                a.div(x, y, op(248, 8), op(24, 9), op(33, 9), op(42, 9))
            }),
            ("div_scalar/zero-row quotient", |a, x, _, _| {
                a.div_scalar(x, 3, op(248, 8), op(24, 9), op(33, 9))
            }),
            ("move_lanes/zero row", |a, x, _, _| {
                a.move_lanes(x, op(248, 8), 8, 8)
            }),
            ("move_lanes/lanes", |a, x, _, z| {
                a.move_lanes(x, z, 200, 100)
            }),
            ("move_lanes_grouped/zero row", |a, x, _, _| {
                a.move_lanes_grouped(x, op(248, 8), 4, 4, 8, 4)
            }),
            ("reduce_sum/zero row", |a, _, _, z| {
                a.reduce_sum(op(248, 8), z, 16)
            }),
            ("reduce_sum_grouped/zero row", |a, _, _, z| {
                a.reduce_sum_grouped(op(248, 8), z, 8, 4)
            }),
            ("reduce_max/zero row", |a, _, y, z| {
                a.reduce_max(op(248, 8), y, z, DUMP - 8, 8)
            }),
            ("reduce_min/zero row", |a, _, y, z| {
                a.reduce_min(op(248, 8), y, z, DUMP - 8, 8)
            }),
        ];
        for (name, run) in cases {
            let mut a = seeded();
            let before = snapshot(&a);
            a.start_recording();
            assert!(
                run(&mut a, op(0, 8), op(8, 8), op(16, 8)).is_err(),
                "{name} must be rejected"
            );
            assert!(
                a.take_recording().unwrap().steps.is_empty(),
                "{name}: recorded a cycle"
            );
            assert_eq!(snapshot(&a), before, "{name}: array changed");
        }

        // Inter-array transfers leave both arrays alone.
        let (mut src, mut dst) = (seeded(), seeded());
        let before = (snapshot(&src), snapshot(&dst));
        assert!(copy_lanes_between(&mut src, op(0, 8), &mut dst, op(248, 8), 0, 16).is_err());
        assert_eq!((snapshot(&src), snapshot(&dst)), before);
    }
}
