//! Property tests of the word-parallel lane paths: lane moves and the bulk
//! loader must agree with per-lane, per-bit references that live only here.

use nc_sram::{ComputeArray, Operand, SramArray, COLS};
use proptest::prelude::*;

/// An array with zero row 255 whose other rows hold `seed`-derived data.
fn random_array(seed: &[u64]) -> ComputeArray {
    let mut arr = ComputeArray::with_zero_row(255).unwrap();
    for (k, base) in (0..255).step_by(64).enumerate() {
        let op = Operand::new(base, 64.min(255 - base)).unwrap();
        let values: Vec<u64> = seed
            .iter()
            .map(|v| {
                (v.rotate_left(17 * k as u32) ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(k as u64))
                    & op.max_value()
            })
            .collect();
        arr.poke_lanes(0, op, &values).unwrap();
    }
    arr
}

/// Per-lane reference of a lane move: every lane `l` with `moved(l)` copies
/// lane `l + shift` of `src` into `dst`, bit by bit.
fn reference_move(
    cells: &SramArray,
    src: Operand,
    dst: Operand,
    shift: usize,
    moved: impl Fn(usize) -> bool,
) -> SramArray {
    let mut want = cells.clone();
    for (s, d) in src.rows().zip(dst.rows()) {
        for lane in (0..COLS).filter(|&l| moved(l)) {
            want.set(d, lane, cells.get(s, lane + shift).unwrap())
                .unwrap();
        }
    }
    want
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn move_lanes_matches_per_lane_reference(
        seed in proptest::collection::vec(any::<u64>(), COLS),
        bits in 1usize..=48,
        shift in 0usize..COLS,
        lanes_seed in any::<usize>(),
    ) {
        let lanes = 1 + lanes_seed % (COLS - shift);
        let (src, dst) = (Operand::new(0, bits).unwrap(), Operand::new(100, bits).unwrap());
        let mut arr = random_array(&seed);
        let want = reference_move(arr.cells(), src, dst, shift, |l| l < lanes);
        let d = arr.move_lanes(src, dst, shift, lanes).unwrap();
        prop_assert!(arr.cells() == &want, "shift {} lanes {}", shift, lanes);
        prop_assert_eq!(d.compute_cycles, 2 * bits as u64);
    }

    #[test]
    fn move_lanes_grouped_matches_per_lane_reference(
        seed in proptest::collection::vec(any::<u64>(), COLS),
        bits in 1usize..=48,
        stride in 1usize..=COLS,
        shape in any::<u64>(),
    ) {
        let groups = 1 + (shape % (COLS / stride) as u64) as usize;
        let per_group = 1 + ((shape >> 16) % stride as u64) as usize;
        let shift = ((shape >> 32) % (stride - per_group + 1) as u64) as usize;
        let (src, dst) = (Operand::new(20, bits).unwrap(), Operand::new(130, bits).unwrap());
        let mut arr = random_array(&seed);
        let want = reference_move(arr.cells(), src, dst, shift, |l| {
            l / stride < groups && l % stride < per_group
        });
        let d = arr.move_lanes_grouped(src, dst, shift, per_group, stride, groups).unwrap();
        prop_assert!(
            arr.cells() == &want,
            "stride {} groups {} per group {} shift {}", stride, groups, per_group, shift
        );
        prop_assert_eq!(d.compute_cycles, 2 * bits as u64);
    }

    #[test]
    fn poke_and_peek_lanes_match_per_lane_and_per_bit_references(
        seed in proptest::collection::vec(any::<u64>(), COLS),
        values in proptest::collection::vec(any::<u64>(), COLS),
        bits in 1usize..=100,
        first in 0usize..=COLS,
        count_seed in any::<usize>(),
    ) {
        let count = count_seed % (COLS - first + 1);
        let op = Operand::new(255 - bits, bits).unwrap();
        let values: Vec<u64> = values[..count].iter().map(|v| v & op.max_value()).collect();
        let mut bulk = random_array(&seed);
        let mut per_lane = bulk.clone();

        // Per-bit reference: the run's lanes take the values' bits (zero
        // past bit 63); every other cell keeps its contents.
        let mut want = bulk.cells().clone();
        for (lane, v) in (first..).zip(&values) {
            for (bit, row) in op.rows().enumerate() {
                want.set(row, lane, bit < 64 && (v >> bit) & 1 == 1).unwrap();
            }
        }

        bulk.poke_lanes(first, op, &values).unwrap();
        for (lane, &v) in (first..).zip(&values) {
            per_lane.poke_lane(lane, op, v);
        }
        prop_assert!(bulk.cells() == &want, "bits {} lanes {}..{}", bits, first, first + count);
        prop_assert!(per_lane.cells() == &want);
        prop_assert_eq!(bulk.stats().total_cycles(), 0, "staging is free");

        let mut out = vec![0u64; count];
        bulk.peek_lanes(first, op, &mut out).unwrap();
        prop_assert_eq!(&out, &values);
        for (lane, v) in (first..).zip(&values) {
            prop_assert_eq!(bulk.peek_lane(lane, op), *v);
        }
    }
}
