//! Bit-serial multiplication via predicated shifted adds (Section III-C,
//! Figure 6).

use crate::{ComputeArray, CycleStats, Operand, Predicate, Result, SramError};

impl ComputeArray {
    /// Vector multiplication `prod <- a * b` on every lane.
    ///
    /// For each multiplier bit `j` (LSB first), the multiplier bit is loaded
    /// into the tag latch and the multiplicand is conditionally added into
    /// the partial product at offset `j`; the round's carry-out is stored
    /// into `prod[j + n]` (tag-gated) before the next round. This is the
    /// Figure 6 algorithm with the carry correctly committed at each round
    /// boundary.
    ///
    /// Cycle count (derived): `prod.bits()` zeroing + `m * (n + 2)` where
    /// `n = a.bits()`, `m = b.bits()`. For n = m it is `n^2 + 4n` including
    /// initialization — the paper quotes `n^2 + 5n - 2`, which matches at
    /// n = 2 (the published walkthrough) and differs by `n - 2` cycles for
    /// wider operands; see DESIGN.md §6.
    ///
    /// The tag and carry latches are clobbered.
    ///
    /// # Errors
    ///
    /// `prod` must hold at least `n + m` bits, be disjoint from both
    /// inputs and clear of the zero row; inputs must not overlap each other.
    pub fn mul(&mut self, a: Operand, b: Operand, prod: Operand) -> Result<CycleStats> {
        self.validate_mul(a, b, prod)?;
        let (n, m) = (a.bits(), b.bits());
        let before = self.stats();
        self.zero_steps(prod);
        for j in 0..m {
            self.note_mul_round();
            self.mul_round(a, b, prod, j, n);
        }
        Ok(self.stats() - before)
    }

    /// Vector multiplication with **all-lanes-zero round elision**: a
    /// multiplier-bit round whose bit-slice row holds `0` on every lane is
    /// skipped outright instead of executing `n` predicated adds that
    /// cannot write anything (the tag latch would be all-zero, so both the
    /// write-back and the carry update are disabled on every column — the
    /// round is a functional no-op by construction).
    ///
    /// The products are **bit-identical** to [`ComputeArray::mul`]; only
    /// the cycle count changes. Elided rounds cost zero array cycles: the
    /// intended use is weight-stationary MACs where the multiplier rows are
    /// filter bit-slices, and the control FSM learns which rows are
    /// all-zero for free when the transpose unit writes them at filter-load
    /// time (paper Section VII names this sparsity opportunity as future
    /// work; `BitWave` develops the same column-wise bit-level skip).
    /// Skipped rounds are reported via [`CycleStats::skipped_rounds`] and
    /// the saved compute cycles via [`CycleStats::skipped_cycles`].
    ///
    /// # Errors
    ///
    /// Same operand constraints as [`ComputeArray::mul`].
    pub fn mul_skip_zero_rows(
        &mut self,
        a: Operand,
        b: Operand,
        prod: Operand,
    ) -> Result<CycleStats> {
        self.validate_mul(a, b, prod)?;
        let (n, m) = (a.bits(), b.bits());
        let before = self.stats();
        self.zero_steps(prod);
        for j in 0..m {
            self.note_mul_round();
            if self.cells().row(b.row(j)).is_zero() {
                // Dense cost of the elided round: tag load + n predicated
                // adds + carry write.
                self.note_skipped_round(n as u64 + 2);
                continue;
            }
            self.mul_round(a, b, prod, j, n);
        }
        Ok(self.stats() - before)
    }

    /// Vector multiplication with **dynamic input-bit round elision**: the
    /// multiplier `b` holds streamed input activations, so the control FSM
    /// cannot precompute which bit-slice rows are all-zero (unlike the
    /// stationary weights of [`ComputeArray::mul_skip_zero_rows`]). Instead
    /// every scheduled round pays a **1-cycle tag-latch wired-NOR
    /// zero-detect** ([`ComputeArray::op_detect_zero`]): the multiplier
    /// bit-slice is sensed into the tags and the wired-NOR reports whether
    /// any lane holds a `1`. A round whose slice is zero on every lane is
    /// then elided (the tag-gated adds and carry write could not change any
    /// cell); a live round executes the normal Figure 6 schedule.
    ///
    /// The products are **bit-identical** to [`ComputeArray::mul`]. Cycle
    /// accounting: every round adds one cycle to
    /// [`CycleStats::detect_cycles`] (also counted in `compute_cycles` —
    /// the model conservatively does not fuse the detect with the live
    /// round's tag load), elided rounds are counted in
    /// [`CycleStats::input_rounds_skipped`] and save `n + 2` cycles in
    /// [`CycleStats::skipped_cycles`]. Skipping therefore nets a gain only
    /// when more than ~1/(n+2) of the rounds are elidable — ReLU-sparse
    /// activations clear that bar easily; dense ones do not.
    ///
    /// # Errors
    ///
    /// Same operand constraints as [`ComputeArray::mul`].
    pub fn mul_skip_zero_input_bits(
        &mut self,
        a: Operand,
        b: Operand,
        prod: Operand,
    ) -> Result<CycleStats> {
        self.validate_mul(a, b, prod)?;
        let (n, m) = (a.bits(), b.bits());
        let before = self.stats();
        self.zero_steps(prod);
        for j in 0..m {
            self.note_mul_round();
            if self.step_detect_zero(b.row(j)) {
                self.note_input_round_skipped(n as u64 + 2);
                continue;
            }
            self.mul_round(a, b, prod, j, n);
        }
        Ok(self.stats() - before)
    }

    /// Vector multiplication composing **both** sparsity mechanisms: the
    /// dynamic input-bit zero-detect of
    /// [`ComputeArray::mul_skip_zero_input_bits`] on the multiplier `b`
    /// (streamed activations), plus **static multiplicand truncation** on
    /// `a` (stationary weights): the FSM knows from filter-load time the
    /// highest weight bit-slice row that is live on *any* lane, and
    /// schedules only `live` predicated adds per executed round instead of
    /// `n`, committing the carry directly at `prod[j + live]`.
    ///
    /// Truncation is bit-exact: rows of `a` at and above `live` are zero on
    /// every lane, so the dense schedule's upper adds only ripple the
    /// carry-out into `prod[j + live]` (which is provably zero before round
    /// `j` — all earlier writes land strictly below it) and write zeros
    /// above; committing the carry latch there directly produces the same
    /// cells. Note this captures *contiguous top* weight-bit sparsity
    /// (low-magnitude quantization); isolated all-zero middle rows still
    /// execute, because mid-chain adds must propagate carries — eliding
    /// those requires the weights to be the multiplier, which is exactly
    /// [`ComputeArray::mul_skip_zero_rows`]'s regime.
    ///
    /// Cycle accounting: as `mul_skip_zero_input_bits`, plus
    /// `n - live` cycles per executed round are recorded in
    /// [`CycleStats::skipped_cycles`] (no round counter — the round runs,
    /// shortened).
    ///
    /// # Errors
    ///
    /// Same operand constraints as [`ComputeArray::mul`].
    pub fn mul_skip_both(&mut self, a: Operand, b: Operand, prod: Operand) -> Result<CycleStats> {
        self.validate_mul(a, b, prod)?;
        let (n, m) = (a.bits(), b.bits());
        // Highest live multiplicand bit across every lane — known to the
        // FSM for free when the transpose unit writes the filter rows.
        let live = (0..n)
            .rev()
            .find(|&i| !self.cells().row(a.row(i)).is_zero())
            .map_or(0, |i| i + 1);
        let before = self.stats();
        self.zero_steps(prod);
        for j in 0..m {
            self.note_mul_round();
            if self.step_detect_zero(b.row(j)) {
                self.note_input_round_skipped(n as u64 + 2);
                continue;
            }
            self.note_truncated_cycles((n - live) as u64);
            self.mul_round(a, b, prod, j, live);
        }
        Ok(self.stats() - before)
    }

    /// One multiplier-bit round of the Figure 6 algorithm: load the tag
    /// from multiplier bit `j`, conditionally add the low `n` multiplicand
    /// bits into the partial product at offset `j`, commit the round's
    /// carry-out at `prod[j + n]`.
    fn mul_round(&mut self, a: Operand, b: Operand, prod: Operand, j: usize, n: usize) {
        self.step_load_tag(b.row(j));
        self.preset_carry(false);
        let window = prod.base() + j;
        for (x, p) in a.rows().take(n).zip(window..) {
            self.step_full_add(x, p, p, Predicate::Tag);
        }
        self.step_write_carry(window + n, Predicate::Tag);
    }

    /// Shared operand validation of the vector-multiply family: every
    /// check its cycles rely on.
    fn validate_mul(&self, a: Operand, b: Operand, prod: Operand) -> Result<()> {
        let (n, m) = (a.bits(), b.bits());
        if prod.bits() < n + m {
            return Err(SramError::DestinationTooNarrow {
                needed: n + m,
                available: prod.bits(),
            });
        }
        if a.overlaps(&b) {
            return Err(SramError::OverlappingOperands {
                what: "multiplication inputs overlap",
            });
        }
        if prod.overlaps(&a) || prod.overlaps(&b) {
            return Err(SramError::OverlappingOperands {
                what: "product region overlaps an input",
            });
        }
        self.guard_zero_row(&prod)
    }

    /// In-place broadcast-scalar multiplication `prod <- a * k`.
    ///
    /// The constant lives in the control FSM, so no tag loads are needed:
    /// for every set bit `j` of `k` the multiplicand is added into
    /// `prod[j..]` with full carry propagation to the top of the product
    /// region. Used by the requantization pipeline (Section IV-D), where the
    /// CPU returns scalar multipliers applied in-cache.
    ///
    /// # Errors
    ///
    /// `prod` must hold `a.bits() + bit_length(k)` bits, be disjoint from
    /// `a` and clear of the zero row.
    pub fn mul_scalar(&mut self, a: Operand, k: u64, prod: Operand) -> Result<CycleStats> {
        let n = a.bits();
        let klen = (64 - k.leading_zeros()) as usize;
        if k != 0 && prod.bits() < n + klen {
            return Err(SramError::DestinationTooNarrow {
                needed: n + klen,
                available: prod.bits(),
            });
        }
        if prod.overlaps(&a) {
            return Err(SramError::OverlappingOperands {
                what: "product region overlaps the multiplicand",
            });
        }
        self.guard_zero_row(&prod)?;
        let before = self.stats();
        self.zero_steps(prod);
        for j in 0..klen {
            if (k >> j) & 1 == 1 {
                // At least `n + 1` bits wide, disjoint from `a`, inside
                // `prod`: the checks of `add_assign` hold.
                let window = prod.slice(j, prod.bits() - j).expect("validated width");
                self.add_assign_steps(window, a);
            }
        }
        Ok(self.stats() - before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr() -> ComputeArray {
        ComputeArray::with_zero_row(255).unwrap()
    }

    #[test]
    fn figure6_walkthrough_2bit() {
        // The paper's Figure 6 multiplies 2-bit vectors; with the published
        // operands A = [3,1,3,2] (multiplicand) and B = [3,2,1,2] we expect
        // the 4-bit products [9,2,3,4].
        let mut arr = arr();
        let a = Operand::new(0, 2).unwrap();
        let b = Operand::new(2, 2).unwrap();
        let p = Operand::new(4, 4).unwrap();
        let cases = [(3u64, 3u64), (1, 2), (3, 1), (2, 2)];
        for (lane, (x, y)) in cases.iter().enumerate() {
            arr.poke_lane(lane, a, *x);
            arr.poke_lane(lane, b, *y);
        }
        let d = arr.mul(a, b, p).unwrap();
        // Derived cost: 4 (zero) + 2 rounds * (1 + 2 + 1) = 12 cycles,
        // which equals the paper's n^2 + 5n - 2 at n = 2.
        assert_eq!(d.compute_cycles, 12);
        for (lane, (x, y)) in cases.iter().enumerate() {
            assert_eq!(arr.peek_lane(lane, p), x * y, "lane {lane}");
        }
    }

    #[test]
    fn eight_bit_exhaustive_corners() {
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let p = Operand::new(16, 16).unwrap();
        let interesting = [0u64, 1, 2, 3, 127, 128, 200, 255];
        for &x in &interesting {
            for (lane, &y) in interesting.iter().enumerate() {
                arr.poke_lane(lane, a, x);
                arr.poke_lane(lane, b, y);
            }
            arr.mul(a, b, p).unwrap();
            for (lane, &y) in interesting.iter().enumerate() {
                assert_eq!(arr.peek_lane(lane, p), x * y, "{x} * {y}");
            }
        }
    }

    #[test]
    fn derived_cost_formula() {
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let p = Operand::new(16, 16).unwrap();
        let d = arr.mul(a, b, p).unwrap();
        // prod.bits() + m*(n+2) = 16 + 8*10 = 96 = n^2 + 4n for n = 8.
        assert_eq!(d.compute_cycles, 96);
    }

    #[test]
    fn mixed_width_multiply() {
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 4).unwrap();
        let p = Operand::new(16, 12).unwrap();
        arr.poke_lane(0, a, 250);
        arr.poke_lane(0, b, 15);
        arr.mul(a, b, p).unwrap();
        assert_eq!(arr.peek_lane(0, p), 3750);
    }

    #[test]
    fn mul_scalar_matches() {
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let p = Operand::new(8, 24).unwrap();
        for (lane, v) in [0u64, 1, 100, 255].into_iter().enumerate() {
            arr.poke_lane(lane, a, v);
        }
        arr.mul_scalar(a, 181, p).unwrap();
        for (lane, v) in [0u64, 1, 100, 255].into_iter().enumerate() {
            assert_eq!(arr.peek_lane(lane, p), v * 181);
        }
        // k = 0 zeroes the product.
        arr.mul_scalar(a, 0, p).unwrap();
        assert_eq!(arr.peek_lane(3, p), 0);
    }

    #[test]
    fn skip_zero_rows_is_bit_identical_to_dense() {
        // Low-nibble multipliers: bit rows 4..8 are all-zero across lanes.
        let mut dense = arr();
        let mut sparse = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let p = Operand::new(16, 16).unwrap();
        let values = [(200u64, 9u64), (37, 0), (255, 15), (1, 8)];
        for (lane, (x, y)) in values.iter().enumerate() {
            dense.poke_lane(lane, a, *x);
            dense.poke_lane(lane, b, *y);
            sparse.poke_lane(lane, a, *x);
            sparse.poke_lane(lane, b, *y);
        }
        let d = dense.mul(a, b, p).unwrap();
        let s = sparse.mul_skip_zero_rows(a, b, p).unwrap();
        for (lane, (x, y)) in values.iter().enumerate() {
            assert_eq!(sparse.peek_lane(lane, p), x * y, "lane {lane}");
            assert_eq!(sparse.peek_lane(lane, p), dense.peek_lane(lane, p));
        }
        assert_eq!(d.mul_rounds, 8);
        assert_eq!(d.skipped_rounds, 0, "dense never skips");
        assert_eq!(s.mul_rounds, 8);
        assert_eq!(s.skipped_rounds, 4, "top-nibble rounds elided");
        assert_eq!(s.skipped_cycles, 4 * 10, "n + 2 cycles per round");
        assert_eq!(
            s.compute_cycles,
            d.compute_cycles - s.skipped_cycles,
            "saved cycles accounted exactly"
        );
    }

    #[test]
    fn all_zero_multiplier_skips_every_round() {
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let p = Operand::new(16, 16).unwrap();
        arr.poke_lane(0, a, 213);
        let s = arr.mul_skip_zero_rows(a, b, p).unwrap();
        assert_eq!(arr.peek_lane(0, p), 0);
        assert_eq!(s.skipped_rounds, 8);
        assert_eq!(s.compute_cycles, 16, "only the product zeroing runs");
        assert!((s.skip_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dense_rows_are_never_skipped() {
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let p = Operand::new(16, 16).unwrap();
        arr.poke_lane(0, a, 7);
        arr.poke_lane(0, b, 255);
        let s = arr.mul_skip_zero_rows(a, b, p).unwrap();
        assert_eq!(arr.peek_lane(0, p), 7 * 255);
        assert_eq!(s.skipped_rounds, 0);
        assert_eq!(s.compute_cycles, 96, "full dense cost");
    }

    #[test]
    fn skip_zero_input_bits_is_bit_identical_and_charges_detect() {
        // Low-nibble *inputs*: bit rounds 4..8 of the multiplier are
        // all-zero across lanes and elide after the per-round detect.
        let mut dense = arr();
        let mut sparse = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let p = Operand::new(16, 16).unwrap();
        let values = [(200u64, 9u64), (37, 0), (255, 15), (1, 8)];
        for (lane, (x, y)) in values.iter().enumerate() {
            dense.poke_lane(lane, a, *x);
            dense.poke_lane(lane, b, *y);
            sparse.poke_lane(lane, a, *x);
            sparse.poke_lane(lane, b, *y);
        }
        let d = dense.mul(a, b, p).unwrap();
        let s = sparse.mul_skip_zero_input_bits(a, b, p).unwrap();
        for (lane, (x, y)) in values.iter().enumerate() {
            assert_eq!(sparse.peek_lane(lane, p), x * y, "lane {lane}");
        }
        assert_eq!(s.mul_rounds, 8);
        assert_eq!(s.detect_cycles, 8, "every scheduled round pays a detect");
        assert_eq!(s.input_rounds_skipped, 4, "top-nibble rounds elided");
        assert_eq!(s.skipped_rounds, 0, "weight-skip counter untouched");
        assert_eq!(s.skipped_cycles, 4 * 10, "n + 2 cycles per elided round");
        // Reconciliation: executed = dense - saved + detect overhead.
        assert_eq!(
            s.compute_cycles + s.skipped_cycles - s.detect_cycles,
            d.compute_cycles,
            "detect-aware cycle reconciliation"
        );
    }

    #[test]
    fn dense_inputs_make_detection_pure_overhead() {
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let p = Operand::new(16, 16).unwrap();
        arr.poke_lane(0, a, 7);
        arr.poke_lane(0, b, 255);
        let s = arr.mul_skip_zero_input_bits(a, b, p).unwrap();
        assert_eq!(arr.peek_lane(0, p), 7 * 255);
        assert_eq!(s.input_rounds_skipped, 0);
        assert_eq!(s.detect_cycles, 8);
        assert_eq!(s.compute_cycles, 96 + 8, "full dense cost plus detects");
    }

    #[test]
    fn skip_both_truncates_the_add_chain_and_skips_input_rounds() {
        // Multiplicand (weights) limited to the low 3 bits on every lane;
        // multiplier (inputs) limited to the low nibble.
        let mut dense = arr();
        let mut both = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let p = Operand::new(16, 16).unwrap();
        let values = [(5u64, 9u64), (7, 0), (3, 15), (1, 8)];
        for (lane, (x, y)) in values.iter().enumerate() {
            dense.poke_lane(lane, a, *x);
            dense.poke_lane(lane, b, *y);
            both.poke_lane(lane, a, *x);
            both.poke_lane(lane, b, *y);
        }
        let d = dense.mul(a, b, p).unwrap();
        let s = both.mul_skip_both(a, b, p).unwrap();
        for (lane, (x, y)) in values.iter().enumerate() {
            assert_eq!(both.peek_lane(lane, p), x * y, "lane {lane}");
            assert_eq!(both.peek_lane(lane, p), dense.peek_lane(lane, p));
        }
        assert_eq!(s.mul_rounds, 8);
        assert_eq!(s.detect_cycles, 8);
        assert_eq!(s.input_rounds_skipped, 4);
        // Saved: 4 skipped rounds * 10 + 4 executed rounds * (8 - 3) adds.
        assert_eq!(s.skipped_cycles, 4 * 10 + 4 * 5);
        assert_eq!(
            s.compute_cycles + s.skipped_cycles - s.detect_cycles,
            d.compute_cycles,
            "detect-aware cycle reconciliation"
        );
    }

    #[test]
    fn skip_both_with_mid_bit_weight_holes_stays_exact() {
        // Weight codes 0b1000_0001: live = 8 (no truncation possible), a
        // zero *middle* row must still execute — products must stay exact.
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let p = Operand::new(16, 16).unwrap();
        arr.poke_lane(0, a, 0x81);
        arr.poke_lane(1, a, 0x81);
        arr.poke_lane(0, b, 201);
        arr.poke_lane(1, b, 54); // 201 | 54 = 255: every input round live
        let s = arr.mul_skip_both(a, b, p).unwrap();
        assert_eq!(arr.peek_lane(0, p), 0x81 * 201);
        assert_eq!(arr.peek_lane(1, p), 0x81 * 54);
        assert_eq!(s.skipped_cycles, 0, "no truncation, no input skips");
    }

    #[test]
    fn skip_both_all_zero_weights_run_empty_rounds() {
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let p = Operand::new(16, 16).unwrap();
        arr.poke_lane(0, b, 255);
        let s = arr.mul_skip_both(a, b, p).unwrap();
        assert_eq!(arr.peek_lane(0, p), 0);
        // live = 0: every round is tag load + carry write (2 cycles) after
        // its detect; zeroing is 16 cycles.
        assert_eq!(s.compute_cycles, 16 + 8 * 3);
        assert_eq!(s.skipped_cycles, 8 * 8, "8 truncated adds per round");
    }

    #[test]
    fn dynamic_skip_variants_match_dense_exhaustively() {
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let p = Operand::new(16, 16).unwrap();
        let interesting = [0u64, 1, 2, 3, 15, 127, 128, 255];
        for &x in &interesting {
            for (lane, &y) in interesting.iter().enumerate() {
                arr.poke_lane(lane, a, x);
                arr.poke_lane(lane, b, y);
            }
            arr.mul_skip_zero_input_bits(a, b, p).unwrap();
            for (lane, &y) in interesting.iter().enumerate() {
                assert_eq!(arr.peek_lane(lane, p), x * y, "input-skip {x} * {y}");
            }
            arr.mul_skip_both(a, b, p).unwrap();
            for (lane, &y) in interesting.iter().enumerate() {
                assert_eq!(arr.peek_lane(lane, p), x * y, "skip-both {x} * {y}");
            }
        }
    }

    #[test]
    fn dynamic_variants_validate_like_dense() {
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let narrow = Operand::new(16, 15).unwrap();
        assert!(matches!(
            arr.mul_skip_zero_input_bits(a, b, narrow),
            Err(SramError::DestinationTooNarrow { .. })
        ));
        assert!(matches!(
            arr.mul_skip_both(a, b, narrow),
            Err(SramError::DestinationTooNarrow { .. })
        ));
        let overlapping = Operand::new(4, 16).unwrap();
        assert!(matches!(
            arr.mul_skip_both(a, b, overlapping),
            Err(SramError::OverlappingOperands { .. })
        ));
    }

    #[test]
    fn skip_variant_validates_like_dense() {
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let narrow = Operand::new(16, 15).unwrap();
        assert!(matches!(
            arr.mul_skip_zero_rows(a, b, narrow),
            Err(SramError::DestinationTooNarrow { .. })
        ));
        let overlapping = Operand::new(4, 16).unwrap();
        assert!(matches!(
            arr.mul_skip_zero_rows(a, b, overlapping),
            Err(SramError::OverlappingOperands { .. })
        ));
    }

    #[test]
    fn rejects_narrow_product() {
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let p = Operand::new(16, 15).unwrap();
        assert!(matches!(
            arr.mul(a, b, p),
            Err(SramError::DestinationTooNarrow { .. })
        ));
    }
}
