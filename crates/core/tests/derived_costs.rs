//! `DerivedCostModel` measures each cost once, on a zeroed scratch array,
//! from the `layout` methods the functional executor runs. These tests run
//! the same methods on arrays holding real data: each must compute what its
//! pass needs and charge exactly the model's value, so the price the timing
//! simulator takes from the model does not depend on the data.

use nc_sram::{ComputeArray, COLS};
use neural_cache::cost::{CostModel, DerivedCostModel};
use neural_cache::layout::{MacReduceLayout, PoolAvgLayout, PoolMaxLayout, ZERO_ROW};
use neural_cache::SparsityMode;

fn arr() -> ComputeArray {
    ComputeArray::with_zero_row(ZERO_ROW).expect("zero row")
}

/// Stages `S1`/`S2` on every lane and runs the reduce tail over groups of
/// `span` lanes; returns the array and the tail's cycles.
fn reduce_tail(mac: MacReduceLayout, span: usize) -> (ComputeArray, u64) {
    let mut a = arr();
    for lane in 0..COLS {
        a.poke_lane(lane, mac.partial, lane as u64 * 65_537 + 3);
        a.poke_lane(lane, mac.s2sum, 255);
    }
    let tail = mac.reduce(&mut a, span, COLS / span).unwrap();
    (a, tail.total_cycles())
}

#[test]
fn derived_mac_cycles_match_functional_ops() {
    let mac = MacReduceLayout::new();
    let mut a = arr();
    let bytes = [(0, 200, 123), (7, 255, 255), (200, 1, 9)];
    for (lane, w, x) in bytes {
        a.poke_lane(lane, mac.filter_byte, w);
        a.poke_lane(lane, mac.input_byte, x);
    }
    mac.clear_sums(&mut a).unwrap();
    for _ in 0..2 {
        let tap = mac.mac_tap(&mut a, SparsityMode::Dense).unwrap();
        assert_eq!(tap.total_cycles(), DerivedCostModel.mac_cycles());
    }
    for (lane, w, x) in bytes {
        assert_eq!(a.peek_lane(lane, mac.partial), 2 * w * x, "lane {lane}");
        assert_eq!(a.peek_lane(lane, mac.s2sum), 2 * x, "lane {lane}");
    }
}

#[test]
fn derived_mul_round_matches_skip_accounting() {
    // Filter byte 0b101 leaves 6 of the 8 multiplier-bit rounds all-zero:
    // the skipping tap must save 6 model rounds and charge what the timing
    // simulator's sparse MAC price predicts for that skip fraction.
    let mac = MacReduceLayout::new();
    let mut a = arr();
    a.poke_lane(3, mac.filter_byte, 0b101);
    a.poke_lane(3, mac.input_byte, 77);
    let tap = mac.mac_tap(&mut a, SparsityMode::SkipZeroRows).unwrap();
    assert_eq!(a.peek_lane(3, mac.partial), 77 * 5);
    assert_eq!(tap.skipped_rounds, 6);
    assert_eq!(tap.skipped_cycles, 6 * DerivedCostModel.mul_round_cycles());
    let predicted = DerivedCostModel.mac_cycles_sparse(tap.skip_fraction());
    assert_eq!(tap.total_cycles() as f64, predicted);
}

#[test]
fn derived_reduction_step_matches_functional_ops() {
    let model = DerivedCostModel;
    let (a, cycles) = reduce_tail(MacReduceLayout::new(), 2);
    assert_eq!(
        cycles,
        model.reduction_setup_cycles() + model.reduction_step_cycles()
    );
    let mac = MacReduceLayout::new();
    for lane in (0..COLS as u64).step_by(2) {
        let s1 = (2 * lane + 1) * 65_537 + 6;
        assert_eq!(a.peek_lane(lane as usize, mac.seg_a), s1, "lane {lane}");
        assert_eq!(a.peek_lane(lane as usize, mac.s2_a), 2 * 255);
    }
}

#[test]
fn derived_reduction_setup_matches_functional_ops() {
    // One-lane groups reduce nothing: the tail only widens S1 and S2 into
    // their 32-bit segments, keeping full-scale values.
    let mac = MacReduceLayout::new();
    let mut a = arr();
    a.poke_lane(0, mac.partial, (1 << 24) - 1);
    a.poke_lane(0, mac.s2sum, (1 << 16) - 1);
    a.poke_lane(255, mac.partial, 123_456);
    let tail = mac.reduce(&mut a, 1, COLS).unwrap();
    assert_eq!(
        tail.total_cycles(),
        DerivedCostModel.reduction_setup_cycles()
    );
    assert_eq!(a.peek_lane(0, mac.seg_a), (1 << 24) - 1);
    assert_eq!(a.peek_lane(0, mac.s2_a), (1 << 16) - 1);
    assert_eq!(a.peek_lane(255, mac.seg_a), 123_456);
}

#[test]
fn derived_max_cycles_match_functional_ops() {
    let pool = PoolMaxLayout::new();
    let mut a = arr();
    let cases = [
        (0, 0, 0),
        (1, 255, 0),
        (2, 0, 255),
        (3, 128, 127),
        (4, 9, 9),
    ];
    for (lane, acc, x) in cases {
        a.poke_lane(lane, pool.acc, acc);
        a.poke_lane(lane, pool.x, x);
    }
    let step = pool.step(&mut a).unwrap();
    assert_eq!(step.total_cycles(), DerivedCostModel.max_cycles());
    for (lane, acc, x) in cases {
        assert_eq!(a.peek_lane(lane, pool.acc), acc.max(x), "lane {lane}");
    }
}

#[test]
fn derived_avg_pool_costs_match_functional_ops() {
    // Lane n - 1 averages a window of n codes, n = 1..=9.
    let pool = PoolAvgLayout::new();
    let mut a = arr();
    let windows: Vec<Vec<u64>> = (1..=9u64)
        .map(|n| (0..n).map(|i| (i * 97 + n * 31) % 256).collect())
        .collect();
    pool.clear(&mut a).unwrap();
    for i in 0..9 {
        for (lane, window) in windows.iter().enumerate() {
            a.poke_lane(lane, pool.x, window.get(i).copied().unwrap_or(0));
        }
        let add = pool.accumulate(&mut a).unwrap();
        assert_eq!(add.total_cycles(), DerivedCostModel.avg_add_cycles());
    }
    for (lane, window) in windows.iter().enumerate() {
        a.poke_lane(lane, pool.den, window.len() as u64);
    }
    let div = pool.divide(&mut a).unwrap();
    assert_eq!(div.total_cycles(), DerivedCostModel.avg_div_cycles());
    for (lane, window) in windows.iter().enumerate() {
        let avg = window.iter().sum::<u64>() / window.len() as u64;
        assert_eq!(a.peek_lane(lane, pool.quot), avg, "lane {lane}");
    }
}

#[test]
fn full_reduction_tree_cost_composes_from_steps() {
    // The timing simulator prices a tree over `span` channels as the setup
    // plus log2(span) steps; the reduce tail must cost exactly that at
    // every depth, and leave each group's sums on its first lane.
    let (mac, model) = (MacReduceLayout::new(), DerivedCostModel);
    for depth in 0..=COLS.trailing_zeros() {
        let span = 1usize << depth;
        let (a, cycles) = reduce_tail(mac, span);
        let steps = u64::from(depth) * model.reduction_step_cycles();
        assert_eq!(
            cycles,
            model.reduction_setup_cycles() + steps,
            "span {span}"
        );
        for group in (0..COLS).step_by(span) {
            let s1: u64 = (group..group + span).map(|l| l as u64 * 65_537 + 3).sum();
            assert_eq!(a.peek_lane(group, mac.seg_a), s1, "group at {group}");
            assert_eq!(a.peek_lane(group, mac.s2_a), 255 * span as u64);
        }
    }
}
