//! Property-based hazard injection: mutate provably clean schedules and
//! operand sets in targeted ways and assert the verifier flags each
//! injected hazard with the *right* error code — and never flags the
//! clean original (no false positives). The clean schedules are recorded
//! from real `nc-sram` ops.

use nc_verify::check::{check_lane_geometry, check_operands, check_schedule};
use nc_verify::diag::ErrorCode;
use neural_cache::layout::ZERO_ROW;
use neural_cache::LaneGeometry;
use proptest::prelude::*;

use nc_sram::{ComputeArray, CycleStats, Operand, Schedule, Step, StepKind, COLS, ROWS};

/// Reserved word lines the functional executor dedicates (all-zero row and
/// comparison dump row); clean operands must stay below both.
const RESERVED_FLOOR: usize = 240;

fn op(base: usize, bits: usize) -> Operand {
    Operand::new(base, bits).unwrap()
}

/// Records `run` on `arr` and returns the schedule of the ops it issued.
fn record_on(
    mut arr: ComputeArray,
    run: impl FnOnce(&mut ComputeArray) -> nc_sram::Result<CycleStats>,
) -> Schedule {
    arr.start_recording();
    run(&mut arr).unwrap();
    arr.take_recording().unwrap()
}

/// Records `run` on an executor-style array with the zero row reserved.
fn record(run: impl FnOnce(&mut ComputeArray) -> nc_sram::Result<CycleStats>) -> Schedule {
    record_on(ComputeArray::with_zero_row(ZERO_ROW).unwrap(), run)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Disjoint in-bounds operands below the reserved rows produce zero
    /// diagnostics, for every arithmetic schedule shape.
    #[test]
    fn clean_plans_are_clean(bits in 1usize..=8, gap in 0usize..8) {
        let a = op(0, bits);
        let b = op(bits + gap, bits);
        let dst = op(2 * bits + 2 * gap, bits + 1);
        prop_assert_eq!(check_operands("clean", &[("a", a), ("b", b), ("dst", dst)]), vec![]);
        prop_assert_eq!(check_schedule("add", &record(|arr| arr.add(a, b, dst))), vec![]);
        let prod = op(64, 2 * bits);
        prop_assert_eq!(check_schedule("mul", &record(|arr| arr.mul(a, b, prod))), vec![]);
        let s = record(|arr| arr.add_assign(prod, a));
        prop_assert_eq!(check_schedule("add_assign", &s), vec![]);
    }

    /// Two operands forced to share a word line are flagged V001 — and
    /// nothing else, since both stay in bounds below the reserved rows.
    #[test]
    fn injected_overlap_is_v001(base in 0usize..100, bits in 2usize..=16, offset in 0usize..16, bits_b in 1usize..=16) {
        let a = op(base, bits);
        let b = op(base + (offset % bits), bits_b);
        let diags = check_operands("inject", &[("a", a), ("b", b)]);
        prop_assert!(!diags.is_empty());
        prop_assert!(diags.iter().all(|d| d.code == ErrorCode::OperandOverlap), "{diags:?}");
    }

    /// Rewriting one activated word line of a clean schedule to fall past
    /// the array is flagged V002 exactly once.
    #[test]
    fn injected_out_of_bounds_row_is_v002(bits in 1usize..=8, step_pick in 0usize..64, excess in 0usize..8) {
        let a = op(0, bits);
        let b = op(16, bits);
        let dst = op(32, bits + 1);
        let mut s = record(|arr| arr.add(a, b, dst));
        prop_assert_eq!(check_schedule("pre", &s), vec![]);
        let idx = step_pick % s.steps.len();
        let step = &mut s.steps[idx];
        let row = (ROWS + excess) as u16;
        if step.reads.is_empty() {
            step.writes[0] = row;
        } else {
            step.reads[0] = row;
        }
        let diags = check_schedule("inject", &s);
        let v002: Vec<_> = diags.iter().filter(|d| d.code == ErrorCode::RowOutOfBounds).collect();
        prop_assert_eq!(v002.len(), 1, "{diags:?}");
    }

    /// A compute cycle sensing more than two word lines — or the same word
    /// line twice — is flagged V003.
    #[test]
    fn injected_read_port_overflow_is_v003(row in 0usize..RESERVED_FLOOR, dup in 0usize..2) {
        let reads = if dup == 0 { vec![row, row] } else { vec![row, (row + 1) % RESERVED_FLOOR, (row + 2) % RESERVED_FLOOR] };
        let mut s = record(|arr| arr.add(op(0, 4), op(8, 4), op(16, 5)));
        s.steps.push(Step {
            kind: StepKind::Compute,
            reads: reads.into(),
            writes: Vec::new().into(),
            label: "injected",
        });
        let diags = check_schedule("inject", &s);
        prop_assert!(diags.iter().any(|d| d.code == ErrorCode::ReadPortOverflow), "{diags:?}");
        prop_assert!(diags.iter().all(|d| d.code == ErrorCode::ReadPortOverflow), "{diags:?}");
    }

    /// A compute cycle driving two write word lines is flagged V004.
    #[test]
    fn injected_write_port_overflow_is_v004(row in 0usize..RESERVED_FLOOR - 1) {
        let mut s = record(|arr| arr.copy(op(0, 4), op(8, 4), nc_sram::Predicate::Always));
        s.steps.push(Step {
            kind: StepKind::Compute,
            reads: vec![row].into(),
            writes: vec![row, row + 1].into(),
            label: "injected",
        });
        let diags = check_schedule("inject", &s);
        prop_assert!(diags.iter().any(|d| d.code == ErrorCode::WritePortOverflow), "{diags:?}");
        prop_assert!(diags.iter().all(|d| d.code == ErrorCode::WritePortOverflow), "{diags:?}");
    }

    /// Any write-back targeting the dedicated all-zero row is flagged
    /// V005, from both the schedule checker and the operand linter.
    #[test]
    fn injected_zero_row_write_is_v005(bits in 1usize..=8) {
        // Schedule leg: a broadcast whose top row lands on the zero row,
        // recorded on an array without a reserved zero row so the real op
        // accepts the write.
        let clobber = op(ZERO_ROW + 1 - bits, bits);
        let s = record_on(ComputeArray::new(), |arr| arr.broadcast_scalar(clobber, 1));
        let diags = check_schedule("inject", &s);
        prop_assert!(diags.iter().any(|d| d.code == ErrorCode::ZeroRowClobbered), "{diags:?}");
        // Operand leg: the linter flags the same claim statically.
        let diags = check_operands("inject", &[("clobber", clobber)]);
        prop_assert!(diags.iter().any(|d| d.code == ErrorCode::ZeroRowClobbered), "{diags:?}");
    }

    /// A lane geometry whose packed groups exceed the array's bit lines is
    /// flagged V007.
    #[test]
    fn injected_lane_packing_alias_is_v007(shift in 1usize..=3, m in 17usize..64) {
        // group_span wider than lanes_per_filter over-packs the array.
        let lanes = 16usize;
        let geom = LaneGeometry {
            packing: 1,
            split: 1,
            eff_window: 9,
            eff_channels: lanes,
            lanes_per_filter: lanes,
            group_span: lanes << shift,
            arrays_per_filter: 1,
            filters_per_array: COLS / lanes,
        };
        let diags = check_lane_geometry("inject", &geom, m);
        prop_assert!(diags.iter().any(|d| d.code == ErrorCode::LanePackingAlias), "{diags:?}");
    }

    /// A reduction span that is not a power of two cannot be halved by the
    /// lane-move tree and is flagged V008.
    #[test]
    fn injected_non_power_of_two_span_is_v008(span in 2usize..=120) {
        // Bump powers of two off by one; the successor of a power of two
        // >= 2 is never itself a power of two.
        let span = if span.is_power_of_two() { span + 1 } else { span };
        let geom = LaneGeometry {
            packing: 1,
            split: 1,
            eff_window: 9,
            eff_channels: span,
            lanes_per_filter: span.next_power_of_two(),
            group_span: span,
            arrays_per_filter: 1,
            filters_per_array: COLS / span.next_power_of_two(),
        };
        let diags = check_lane_geometry("inject", &geom, 8);
        prop_assert!(diags.iter().any(|d| d.code == ErrorCode::NonPowerOfTwoLanes), "{diags:?}");
    }

    /// A filter split across too few arrays to cover its lanes is flagged
    /// V007 even when every span is a power of two.
    #[test]
    fn injected_underprovisioned_split_is_v007(deficit in 1usize..=2) {
        let lanes = 64usize;
        let geom = LaneGeometry {
            packing: 1,
            split: 2,
            eff_window: 5,
            eff_channels: lanes,
            lanes_per_filter: lanes,
            group_span: lanes >> (deficit + 1),
            arrays_per_filter: 2,
            filters_per_array: 0,
        };
        let diags = check_lane_geometry("inject", &geom, 4);
        prop_assert!(diags.iter().any(|d| d.code == ErrorCode::LanePackingAlias), "{diags:?}");
    }
}
