//! Property-based equivalence tests: every bit-serial operation must agree
//! with ordinary scalar arithmetic on random vectors, widths and layouts.

// Lane loops here index several parallel value vectors *and* poke/peek the
// array by the same lane id; the div property spells out the zero-divisor
// saturation rule next to the plain `/`/`%` it mirrors. Neither reads better
// through iterators or `checked_div`.
#![allow(clippy::needless_range_loop, clippy::manual_checked_ops)]

use nc_sram::{ComputeArray, Operand, Predicate, COLS};
use proptest::prelude::*;

fn arr() -> ComputeArray {
    ComputeArray::with_zero_row(255).unwrap()
}

/// Strategy for a vector of `n`-bit lane values occupying all 256 lanes.
fn lanes(bits: usize) -> impl Strategy<Value = Vec<u64>> {
    let max = if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    proptest::collection::vec(0..=max, COLS)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn add_matches_scalar(bits in 1usize..16, a in lanes(15), b in lanes(15)) {
        let mask = (1u64 << bits) - 1;
        let mut arr = arr();
        let va = Operand::new(0, bits).unwrap();
        let vb = Operand::new(16, bits).unwrap();
        let sum = Operand::new(32, bits + 1).unwrap();
        for lane in 0..COLS {
            arr.poke_lane(lane, va, a[lane] & mask);
            arr.poke_lane(lane, vb, b[lane] & mask);
        }
        let d = arr.add(va, vb, sum).unwrap();
        prop_assert_eq!(d.compute_cycles, bits as u64 + 1);
        for lane in 0..COLS {
            prop_assert_eq!(arr.peek_lane(lane, sum), (a[lane] & mask) + (b[lane] & mask));
        }
    }

    #[test]
    fn add_assign_matches_scalar(acc in lanes(24), x in lanes(16)) {
        let mut arr = arr();
        let vacc = Operand::new(0, 24).unwrap();
        let vx = Operand::new(24, 16).unwrap();
        for lane in 0..COLS {
            arr.poke_lane(lane, vacc, acc[lane]);
            arr.poke_lane(lane, vx, x[lane]);
        }
        arr.add_assign(vacc, vx).unwrap();
        for lane in 0..COLS {
            prop_assert_eq!(arr.peek_lane(lane, vacc), (acc[lane] + x[lane]) & 0xFF_FFFF);
        }
    }

    #[test]
    fn sub_matches_scalar(a in lanes(12), b in lanes(12)) {
        let mut arr = arr();
        let va = Operand::new(0, 12).unwrap();
        let vb = Operand::new(12, 12).unwrap();
        let dst = Operand::new(24, 12).unwrap();
        let scratch = Operand::new(40, 12).unwrap();
        for lane in 0..COLS {
            arr.poke_lane(lane, va, a[lane]);
            arr.poke_lane(lane, vb, b[lane]);
        }
        arr.sub(va, vb, dst, scratch).unwrap();
        for lane in 0..COLS {
            prop_assert_eq!(
                arr.peek_lane(lane, dst),
                a[lane].wrapping_sub(b[lane]) & 0xFFF
            );
            prop_assert_eq!(arr.carry().get(lane), a[lane] >= b[lane]);
        }
    }

    #[test]
    fn mul_matches_scalar(a in lanes(8), b in lanes(8)) {
        let mut arr = arr();
        let va = Operand::new(0, 8).unwrap();
        let vb = Operand::new(8, 8).unwrap();
        let prod = Operand::new(16, 16).unwrap();
        for lane in 0..COLS {
            arr.poke_lane(lane, va, a[lane]);
            arr.poke_lane(lane, vb, b[lane]);
        }
        arr.mul(va, vb, prod).unwrap();
        for lane in 0..COLS {
            prop_assert_eq!(arr.peek_lane(lane, prod), a[lane] * b[lane]);
        }
    }

    #[test]
    fn mul_scalar_matches(a in lanes(8), k in 0u64..1u64 << 16) {
        let mut arr = arr();
        let va = Operand::new(0, 8).unwrap();
        let prod = Operand::new(8, 24).unwrap();
        for lane in 0..COLS {
            arr.poke_lane(lane, va, a[lane]);
        }
        arr.mul_scalar(va, k, prod).unwrap();
        for lane in 0..COLS {
            prop_assert_eq!(arr.peek_lane(lane, prod), a[lane] * k);
        }
    }

    #[test]
    fn div_matches_scalar(num in lanes(10), den in lanes(6)) {
        let mut arr = arr();
        let vn = Operand::new(0, 10).unwrap();
        let vd = Operand::new(10, 6).unwrap();
        let vq = Operand::new(16, 10).unwrap();
        let vr = Operand::new(26, 7).unwrap();
        let vt = Operand::new(33, 7).unwrap();
        let vc = Operand::new(40, 7).unwrap();
        for lane in 0..COLS {
            arr.poke_lane(lane, vn, num[lane]);
            arr.poke_lane(lane, vd, den[lane]);
        }
        arr.div(vn, vd, vq, vr, vt, vc).unwrap();
        for lane in 0..COLS {
            if den[lane] == 0 {
                prop_assert_eq!(arr.peek_lane(lane, vq), 1023, "zero divisor saturates");
            } else {
                prop_assert_eq!(arr.peek_lane(lane, vq), num[lane] / den[lane]);
                prop_assert_eq!(arr.peek_lane(lane, vr), num[lane] % den[lane]);
            }
        }
    }

    #[test]
    fn max_min_match_scalar(acc in lanes(8), x in lanes(8)) {
        let mut arr = arr();
        let vacc = Operand::new(0, 8).unwrap();
        let vx = Operand::new(8, 8).unwrap();
        let vs = Operand::new(16, 8).unwrap();
        for lane in 0..COLS {
            arr.poke_lane(lane, vacc, acc[lane]);
            arr.poke_lane(lane, vx, x[lane]);
        }
        arr.max_assign(vacc, vx, vs, 250).unwrap();
        for lane in 0..COLS {
            prop_assert_eq!(arr.peek_lane(lane, vacc), acc[lane].max(x[lane]));
        }
        // The min tree reduces every lane's `acc` to lane 0.
        let vcmp = Operand::new(24, 8).unwrap();
        for lane in 0..COLS {
            arr.poke_lane(lane, vacc, acc[lane]);
        }
        arr.reduce_min(vacc, vx, vcmp, 250, COLS).unwrap();
        prop_assert_eq!(arr.peek_lane(0, vacc), *acc.iter().min().unwrap());
    }

    #[test]
    fn relu_matches_scalar(x in lanes(16)) {
        let mut arr = arr();
        let vx = Operand::new(0, 16).unwrap();
        for lane in 0..COLS {
            arr.poke_lane(lane, vx, x[lane]);
        }
        arr.relu(vx).unwrap();
        for lane in 0..COLS {
            let signed = (x[lane] as i64) - if x[lane] >> 15 & 1 == 1 { 1 << 16 } else { 0 };
            let want = if signed < 0 { 0 } else { signed };
            prop_assert_eq!(arr.peek_lane_signed(lane, vx), want);
        }
    }

    #[test]
    fn reduce_sum_matches_scalar(values in lanes(16), lanes_pow in 0usize..9) {
        let n = 1usize << lanes_pow;
        let mut arr = arr();
        let value = Operand::new(0, 32).unwrap();
        let scratch = Operand::new(32, 32).unwrap();
        for lane in 0..COLS {
            arr.poke_lane(lane, value, values[lane]);
        }
        arr.reduce_sum(value, scratch, n).unwrap();
        let expected: u64 = values[..n].iter().sum();
        prop_assert_eq!(arr.peek_lane(0, value), expected);
    }

    #[test]
    fn add_scalar_signed_matches(x in lanes(31), k in -(1i64 << 30)..(1i64 << 30)) {
        let mut arr = arr();
        let vx = Operand::new(0, 32).unwrap();
        for lane in 0..4 {
            arr.poke_lane(lane, vx, x[lane]);
        }
        arr.add_scalar_signed(vx, k).unwrap();
        for lane in 0..4 {
            let expected = (x[lane] as i64 + k) & 0xFFFF_FFFF;
            prop_assert_eq!(arr.peek_lane(lane, vx) as i64, expected);
        }
    }

    #[test]
    fn predicated_copy_only_touches_tagged_lanes(src in lanes(8), dst in lanes(8), tags in proptest::collection::vec(any::<bool>(), COLS)) {
        let mut arr = arr();
        let vsrc = Operand::new(0, 8).unwrap();
        let vdst = Operand::new(8, 8).unwrap();
        let vtag = Operand::new(16, 1).unwrap();
        for lane in 0..COLS {
            arr.poke_lane(lane, vsrc, src[lane]);
            arr.poke_lane(lane, vdst, dst[lane]);
            arr.poke_lane(lane, vtag, u64::from(tags[lane]));
        }
        arr.op_load_tag(16).unwrap();
        arr.copy(vsrc, vdst, Predicate::Tag).unwrap();
        for lane in 0..COLS {
            let want = if tags[lane] { src[lane] } else { dst[lane] };
            prop_assert_eq!(arr.peek_lane(lane, vdst), want);
        }
    }

    #[test]
    fn search_eq_scalar_matches(values in lanes(8), needle in 0u64..256) {
        let mut arr = arr();
        let v = Operand::new(0, 8).unwrap();
        for lane in 0..COLS {
            arr.poke_lane(lane, v, values[lane]);
        }
        arr.search_eq_scalar(v, needle).unwrap();
        for lane in 0..COLS {
            prop_assert_eq!(arr.tag().get(lane), values[lane] == needle);
        }
    }
}
