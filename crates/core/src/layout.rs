//! Operand layouts of the functional executor's shard jobs — the single
//! source of truth for which word-line ranges each in-cache pass occupies,
//! and for the convolution op sequences that run over them.
//!
//! The bit-accurate executor ([`crate::functional`]) stages every pass into
//! fixed row regions of a 256-row array. This module names every region
//! once, so:
//!
//! - the executor builds its operands from here (no drift possible),
//! - [`validate_plan`] proves the whole plan hazard-free before the first
//!   row is touched (debug-mode pre-pass in the executor), including the
//!   in-place hand-off from pass 1 to pass 2 ([`handoff_violations`]),
//! - the `nc-verify` static checker lints the same descriptors, and
//! - every pass's op sequence is a method here: pass 1's MAC tap, reduce
//!   tail and cross-array fold ([`MacReduceLayout`]), pass 2's assembly
//!   ([`AssembleLayout::assemble`]), the ranging trees
//!   ([`RangingLayout::reduce`]), both requantizations
//!   ([`RequantLayout::requantize`], [`CodeRequantLayout::requantize`]) and
//!   pooling ([`PoolMaxLayout::step`], [`PoolAvgLayout`]). The executor
//!   runs them, `nc-verify` records the very same calls on a scratch array
//!   (`ComputeArray::start_recording`) to get the schedules it checks, and
//!   [`crate::cost::DerivedCostModel`] measures its costs from them.

use nc_dnn::quant::CodeRequant;
use nc_dnn::Requantizer;
use nc_sram::ops::copy_lanes_between;
use nc_sram::{ComputeArray, CycleStats, Operand, Result, ROWS};

use crate::sparsity::SparsityMode;

/// The dedicated all-zero row every executor array reserves (mapping-layer
/// convention; see `ComputeArray::set_zero_row`).
pub const ZERO_ROW: usize = 255;

/// The scratch row comparison/clamp micro-ops dump their borrow bit into.
pub const DUMP_ROW: usize = 250;

/// A named operand region of one shard-job layout.
pub type NamedOperand = (&'static str, Operand);

fn op(base: usize, bits: usize) -> Operand {
    Operand::new(base, bits).expect("static executor layout is in bounds")
}

/// Pass 1 (MAC + grouped channel reduction) row layout.
///
/// The reduce leaves the sums in `seg_a` and `s2_a`, which sit above every
/// other pass-1 region: once the cross-array fold is done, rows `0..136`
/// are spent and pass 2 ([`AssembleLayout`]) reuses them in place.
#[derive(Debug, Clone, Copy)]
pub struct MacReduceLayout {
    /// Streamed filter byte of the current tap.
    pub filter_byte: Operand,
    /// Streamed input byte of the current tap.
    pub input_byte: Operand,
    /// 16-bit product scratch of the bit-serial multiply.
    pub scratch16: Operand,
    /// 24-bit per-lane partial sum `S1`.
    pub partial: Operand,
    /// 16-bit zero-point-correction running sum `S2`.
    pub s2sum: Operand,
    /// 32-bit reduction segment of `S1` (Figure 10b).
    pub seg_a: Operand,
    /// Second 32-bit reduction operand of `S1`.
    pub seg_b: Operand,
    /// 32-bit reduction segment of `S2`.
    pub s2_a: Operand,
    /// Second 32-bit reduction operand of `S2`.
    pub s2_b: Operand,
}

impl MacReduceLayout {
    /// The layout used by every pass-1 shard job.
    #[must_use]
    pub fn new() -> Self {
        MacReduceLayout {
            filter_byte: op(0, 8),
            input_byte: op(8, 8),
            scratch16: op(16, 16),
            partial: op(32, 24),
            s2sum: op(56, 16),
            seg_b: op(72, 32),
            s2_b: op(104, 32),
            seg_a: op(136, 32),
            s2_a: op(168, 32),
        }
    }

    /// Clears the per-lane sums `S1` and `S2` before an array's first tap.
    ///
    /// # Errors
    ///
    /// Propagates the array's zero-row check.
    pub fn clear_sums(&self, arr: &mut ComputeArray) -> Result<CycleStats> {
        Ok(arr.zero(self.partial)? + arr.zero(self.s2sum)?)
    }

    /// One MAC tap on every lane: `S1 += w * x; S2 += x`, with the
    /// bit-serial multiply variant `mode` selects.
    ///
    /// Under [`SparsityMode::SkipZeroRows`] the stationary filter byte is
    /// the multiplier, so its bit-slice rows are what the FSM elides for
    /// free; [`SparsityMode::SkipBoth`] flips the roles — the streamed
    /// input byte becomes the multiplier so the per-round wired-NOR detect
    /// can elide all-lanes-zero input-bit rounds, and the stationary filter
    /// byte the multiplicand its live width truncates (the 8x8 multiply
    /// cost is symmetric in the operand order, and the product is identical
    /// either way).
    ///
    /// # Errors
    ///
    /// Propagates the array's operand and zero-row checks.
    pub fn mac_tap(&self, arr: &mut ComputeArray, mode: SparsityMode) -> Result<CycleStats> {
        let (w, x, p) = (self.filter_byte, self.input_byte, self.scratch16);
        let mut cycles = match mode {
            SparsityMode::Dense => arr.mul(x, w, p)?,
            SparsityMode::SkipZeroRows => arr.mul_skip_zero_rows(x, w, p)?,
            SparsityMode::SkipBoth => arr.mul_skip_both(w, x, p)?,
        };
        cycles += arr.add_assign(self.partial, p)?;
        cycles += arr.add_assign(self.s2sum, x)?;
        Ok(cycles)
    }

    /// The per-array reduce tail: widen `S1`/`S2` into the 4-byte reduction
    /// segments (Figure 10b), then tree-reduce `groups` lane groups of
    /// `group_span` lanes each.
    ///
    /// # Errors
    ///
    /// Propagates the array's checks, e.g. a non-power-of-two `group_span`
    /// or groups that overflow the bit lines.
    pub fn reduce(
        &self,
        arr: &mut ComputeArray,
        group_span: usize,
        groups: usize,
    ) -> Result<CycleStats> {
        let mut cycles = arr.copy_zext(self.partial, self.seg_a)?;
        cycles += arr.copy_zext(self.s2sum, self.s2_a)?;
        cycles += arr.reduce_sum_grouped(self.seg_a, self.seg_b, group_span, groups)?;
        cycles += arr.reduce_sum_grouped(self.s2_a, self.s2_b, group_span, groups)?;
        Ok(cycles)
    }

    /// The cross-array fold of a filter spanning two arrays (they share
    /// sense amps, Section III-D): moves the partner's reduced sums, on
    /// lane 0, into `arr`'s spent `seg_b`/`s2_b` and adds them.
    ///
    /// # Errors
    ///
    /// Propagates the arrays' checks.
    pub fn fold(&self, arr: &mut ComputeArray, partner: &mut ComputeArray) -> Result<CycleStats> {
        let mut cycles = copy_lanes_between(partner, self.seg_a, arr, self.seg_b, 0, 1)?;
        cycles += arr.add_assign(self.seg_a, self.seg_b)?;
        cycles += copy_lanes_between(partner, self.s2_a, arr, self.s2_b, 0, 1)?;
        cycles += arr.add_assign(self.s2_a, self.s2_b)?;
        Ok(cycles)
    }

    /// Every region with its name, for generic layout checking.
    #[must_use]
    pub fn named(&self) -> Vec<NamedOperand> {
        vec![
            ("filter_byte", self.filter_byte),
            ("input_byte", self.input_byte),
            ("scratch16", self.scratch16),
            ("partial", self.partial),
            ("s2sum", self.s2sum),
            ("seg_a", self.seg_a),
            ("seg_b", self.seg_b),
            ("s2_a", self.s2_a),
            ("s2_b", self.s2_b),
        ]
    }
}

impl Default for MacReduceLayout {
    fn default() -> Self {
        Self::new()
    }
}

/// Pass 2 (accumulator assembly `ACC = S1 - zp_w*S2 + C0`) row layout.
///
/// Pass 2 runs in place on the pass-1 array, once per array run and on
/// every lane at once: it reads each group's `S1`/`S2` where
/// [`MacReduceLayout::reduce`] leaves them, keeps its temporaries on the
/// rows pass 1 no longer needs, and takes `C0` from a row region pass 1
/// never touches ([`handoff_violations`] checks the hand-off).
#[derive(Debug, Clone, Copy)]
pub struct AssembleLayout {
    /// 32-bit `S1`: pass 1's `seg_a`.
    pub s1_op: Operand,
    /// 32-bit `S2`: pass 1's `s2_a`.
    pub s2_op: Operand,
    /// 40-bit two's-complement accumulator `T`.
    pub t: Operand,
    /// 40-bit product region `U = zp_w * S2`.
    pub u: Operand,
    /// 40-bit subtraction scratch.
    pub scratch: Operand,
    /// 40-bit per-channel constant `C0`.
    pub c0_op: Operand,
}

impl AssembleLayout {
    /// The layout every pass-2 assembly uses.
    #[must_use]
    pub fn new() -> Self {
        let mac = MacReduceLayout::new();
        AssembleLayout {
            s1_op: mac.seg_a,
            s2_op: mac.s2_a,
            t: op(0, 40),
            u: op(40, 40),
            scratch: op(80, 40),
            c0_op: op(200, 40),
        }
    }

    /// Assembles `ACC = S1 - zp_w*S2 + C0` into the 40-bit two's-complement
    /// `t` on every lane, then applies the MSB-masked `ReLU` when `relu` is
    /// set. `zp_w` is the layer's weight zero point, a scalar from the
    /// control FSM; `C0` must already be staged in `c0_op`.
    ///
    /// # Errors
    ///
    /// Propagates the array's operand and zero-row checks.
    pub fn assemble(&self, arr: &mut ComputeArray, zp_w: u64, relu: bool) -> Result<CycleStats> {
        let mut cycles = arr.copy_zext(self.s1_op, self.t)?;
        cycles += arr.mul_scalar(self.s2_op, zp_w, self.u)?;
        cycles += arr.sub(self.t, self.u, self.t, self.scratch)?;
        cycles += arr.add_assign(self.t, self.c0_op)?;
        if relu {
            cycles += arr.relu(self.t)?;
        }
        Ok(cycles)
    }

    /// Every region with its name, for generic layout checking.
    #[must_use]
    pub fn named(&self) -> Vec<NamedOperand> {
        vec![
            ("s1_op", self.s1_op),
            ("s2_op", self.s2_op),
            ("t", self.t),
            ("u", self.u),
            ("scratch", self.scratch),
            ("c0_op", self.c0_op),
        ]
    }
}

impl Default for AssembleLayout {
    fn default() -> Self {
        Self::new()
    }
}

/// Dynamic-ranging (in-array min/max tree) row layout.
#[derive(Debug, Clone, Copy)]
pub struct RangingLayout {
    /// 40-bit offset accumulator value.
    pub v: Operand,
    /// 40-bit reduction scratch.
    pub scratch: Operand,
    /// 40-bit comparison scratch.
    pub cmp: Operand,
}

impl RangingLayout {
    /// The layout used by every ranging job (dump row: [`DUMP_ROW`]).
    #[must_use]
    pub fn new() -> Self {
        RangingLayout {
            v: op(0, 40),
            scratch: op(40, 40),
            cmp: op(80, 40),
        }
    }

    /// Tree-reduces the values staged in `v` on `lanes` lanes to their
    /// minimum, or their maximum when `max` is set, left in lane 0's `v`
    /// (the in-array min/max trees of Section IV-D). The comparison is
    /// unsigned, so signed values must be staged with an offset.
    ///
    /// # Errors
    ///
    /// Propagates the array's checks.
    pub fn reduce(&self, arr: &mut ComputeArray, max: bool, lanes: usize) -> Result<CycleStats> {
        let (v, scratch, cmp) = (self.v, self.scratch, self.cmp);
        if max {
            arr.reduce_max(v, scratch, cmp, DUMP_ROW, lanes)
        } else {
            arr.reduce_min(v, scratch, cmp, DUMP_ROW, lanes)
        }
    }

    /// Every region with its name, for generic layout checking.
    #[must_use]
    pub fn named(&self) -> Vec<NamedOperand> {
        vec![("v", self.v), ("scratch", self.scratch), ("cmp", self.cmp)]
    }
}

impl Default for RangingLayout {
    fn default() -> Self {
        Self::new()
    }
}

/// Pass 3 (requantization) row layout.
#[derive(Debug, Clone, Copy)]
pub struct RequantLayout {
    /// 40-bit shifted accumulator `D`.
    pub d_op: Operand,
    /// 48-bit scalar-multiply product.
    pub prod: Operand,
}

impl RequantLayout {
    /// The layout used by every pass-3 job (dump row: [`DUMP_ROW`]).
    #[must_use]
    pub fn new() -> Self {
        RequantLayout {
            d_op: op(0, 40),
            prod: op(40, 48),
        }
    }

    /// Requantizes the 40-bit two's-complement accumulators staged in
    /// `d_op` on every lane (pass 3): `D = max(ACC - acc_min, 0)`,
    /// `P = D * multiplier`, then `min(P >> shift, 255)`, left in the 8
    /// rows of `prod` from row `shift` on (the shift is row
    /// re-addressing). `requant`'s scalars come from the control FSM.
    ///
    /// # Errors
    ///
    /// Propagates the array's checks.
    pub fn requantize(&self, arr: &mut ComputeArray, requant: Requantizer) -> Result<CycleStats> {
        let mut cycles = arr.add_scalar_signed(self.d_op, -requant.acc_min)?;
        cycles += arr.relu(self.d_op)?;
        let d32 = self.d_op.slice(0, 32)?;
        cycles += arr.mul_scalar(d32, u64::from(requant.multiplier), self.prod)?;
        let shifted = self.prod.slice(requant.shift as usize, 16)?;
        cycles += arr.clamp_max_scalar(shifted, 255, DUMP_ROW)?;
        Ok(cycles)
    }

    /// Every region with its name, for generic layout checking.
    #[must_use]
    pub fn named(&self) -> Vec<NamedOperand> {
        vec![("d_op", self.d_op), ("prod", self.prod)]
    }
}

impl Default for RequantLayout {
    fn default() -> Self {
        Self::new()
    }
}

/// Code-to-code requantization row layout.
#[derive(Debug, Clone, Copy)]
pub struct CodeRequantLayout {
    /// 8-bit input code.
    pub q_in: Operand,
    /// 48-bit multiply/add/shift region.
    pub prod: Operand,
}

impl CodeRequantLayout {
    /// The layout used by every code-requant job (dump row: [`DUMP_ROW`]).
    #[must_use]
    pub fn new() -> Self {
        CodeRequantLayout {
            q_in: op(0, 8),
            prod: op(8, 48),
        }
    }

    /// Maps the codes staged in `q_in` on every lane to
    /// `clamp((q * m + c) >> sh, 0, 255)`, left in the 8 rows of `prod`
    /// from row `sh` on (Section IV-D's batch-norm style multiply, add and
    /// shift). `m` is non-negative for real scale ratios; `c`, possibly
    /// negative, is a two's-complement scalar add.
    ///
    /// # Errors
    ///
    /// Propagates the array's checks.
    pub fn requantize(&self, arr: &mut ComputeArray, map: CodeRequant) -> Result<CycleStats> {
        let mut cycles = arr.mul_scalar(self.q_in, map.m.unsigned_abs(), self.prod)?;
        cycles += arr.add_scalar_signed(self.prod, map.c)?;
        cycles += arr.relu(self.prod)?;
        let shifted = self.prod.slice(map.sh as usize, 16)?;
        cycles += arr.clamp_max_scalar(shifted, 255, DUMP_ROW)?;
        Ok(cycles)
    }

    /// Every region with its name, for generic layout checking.
    #[must_use]
    pub fn named(&self) -> Vec<NamedOperand> {
        vec![("q_in", self.q_in), ("prod", self.prod)]
    }
}

impl Default for CodeRequantLayout {
    fn default() -> Self {
        Self::new()
    }
}

/// Max-pooling row layout.
#[derive(Debug, Clone, Copy)]
pub struct PoolMaxLayout {
    /// 8-bit running maximum.
    pub acc: Operand,
    /// 8-bit streamed window element.
    pub x: Operand,
    /// 8-bit comparison scratch.
    pub scratch: Operand,
}

impl PoolMaxLayout {
    /// The layout used by every max-pool job (dump row: [`DUMP_ROW`]).
    #[must_use]
    pub fn new() -> Self {
        PoolMaxLayout {
            acc: op(0, 8),
            x: op(8, 8),
            scratch: op(16, 8),
        }
    }

    /// One window step on every lane: `acc = max(acc, x)` by subtract,
    /// MSB mask and selective copy.
    ///
    /// # Errors
    ///
    /// Propagates the array's checks.
    pub fn step(&self, arr: &mut ComputeArray) -> Result<CycleStats> {
        arr.max_assign(self.acc, self.x, self.scratch, DUMP_ROW)
    }

    /// Every region with its name, for generic layout checking.
    #[must_use]
    pub fn named(&self) -> Vec<NamedOperand> {
        vec![("acc", self.acc), ("x", self.x), ("scratch", self.scratch)]
    }
}

impl Default for PoolMaxLayout {
    fn default() -> Self {
        Self::new()
    }
}

/// Average-pooling row layout (window sum + restoring division).
#[derive(Debug, Clone, Copy)]
pub struct PoolAvgLayout {
    /// 8-bit streamed window element.
    pub x: Operand,
    /// 16-bit window sum.
    pub sum: Operand,
    /// 8-bit per-lane valid-element count (divisor).
    pub den: Operand,
    /// 16-bit quotient.
    pub quot: Operand,
    /// 9-bit remainder.
    pub rem: Operand,
    /// 9-bit trial-subtraction scratch.
    pub trial: Operand,
    /// 9-bit complemented-divisor scratch.
    pub notden: Operand,
}

impl PoolAvgLayout {
    /// The layout used by every average-pool job.
    #[must_use]
    pub fn new() -> Self {
        PoolAvgLayout {
            x: op(0, 8),
            sum: op(8, 16),
            den: op(24, 8),
            quot: op(32, 16),
            rem: op(48, 9),
            trial: op(57, 9),
            notden: op(66, 9),
        }
    }

    /// Clears the window sum before the first element.
    ///
    /// # Errors
    ///
    /// Propagates the array's checks.
    pub fn clear(&self, arr: &mut ComputeArray) -> Result<CycleStats> {
        arr.zero(self.sum)
    }

    /// Adds the staged window element `x` into the sum on every lane.
    ///
    /// # Errors
    ///
    /// Propagates the array's checks.
    pub fn accumulate(&self, arr: &mut ComputeArray) -> Result<CycleStats> {
        arr.add_assign(self.sum, self.x)
    }

    /// Divides the sum by each lane's valid-element count `den` (lane-wise
    /// restoring division), leaving the average in `quot`.
    ///
    /// # Errors
    ///
    /// Propagates the array's checks.
    pub fn divide(&self, arr: &mut ComputeArray) -> Result<CycleStats> {
        arr.div(
            self.sum,
            self.den,
            self.quot,
            self.rem,
            self.trial,
            self.notden,
        )
    }

    /// Every region with its name, for generic layout checking.
    #[must_use]
    pub fn named(&self) -> Vec<NamedOperand> {
        vec![
            ("x", self.x),
            ("sum", self.sum),
            ("den", self.den),
            ("quot", self.quot),
            ("rem", self.rem),
            ("trial", self.trial),
            ("notden", self.notden),
        ]
    }
}

impl Default for PoolAvgLayout {
    fn default() -> Self {
        Self::new()
    }
}

/// Every shard-job layout with its name, for exhaustive checking by
/// [`validate_plan`] and the `nc-verify` layout lints.
#[must_use]
pub fn all_layouts() -> Vec<(&'static str, Vec<NamedOperand>)> {
    vec![
        ("mac_reduce", MacReduceLayout::new().named()),
        ("assemble", AssembleLayout::new().named()),
        ("ranging", RangingLayout::new().named()),
        ("requant", RequantLayout::new().named()),
        ("code_requant", CodeRequantLayout::new().named()),
        ("pool_max", PoolMaxLayout::new().named()),
        ("pool_avg", PoolAvgLayout::new().named()),
    ]
}

/// The pass-1 to pass-2 hand-off rule. Assembly runs in place on the
/// pass-1 array, so its `S1`/`S2` regions must be exactly the segments the
/// reduce leaves the sums in (`seg_a`/`s2_a`), and no other assembly region
/// may overlap those segments. Returns one human-readable violation per
/// breach (empty = clean).
#[must_use]
pub fn handoff_violations(mac: &MacReduceLayout, asm: &AssembleLayout) -> Vec<String> {
    let mut violations = Vec::new();
    for (name, read, src_name, src) in [
        ("s1_op", asm.s1_op, "seg_a", mac.seg_a),
        ("s2_op", asm.s2_op, "s2_a", mac.s2_a),
    ] {
        if read != src {
            violations.push(format!(
                "assemble: {name} {read} is not mac_reduce's {src_name} {src}"
            ));
        }
        for (other, o) in asm.named() {
            if !matches!(other, "s1_op" | "s2_op") && o.overlaps(&src) {
                violations.push(format!(
                    "assemble: {other} {o} overlaps mac_reduce's {src_name} {src}"
                ));
            }
        }
    }
    violations
}

/// Statically validates every shard-job layout: all regions in bounds,
/// pairwise disjoint, and clear of the reserved zero and dump rows; and
/// the in-place pass-1 to pass-2 hand-off ([`handoff_violations`]).
///
/// Returns one human-readable violation per hazard (empty = clean). The
/// functional executor runs this as a debug-mode pre-pass before touching
/// any array; `nc-verify` re-runs the same descriptors with structured
/// error codes.
#[must_use]
pub fn validate_plan() -> Vec<String> {
    let mut violations = Vec::new();
    for (job, operands) in all_layouts() {
        for (i, (name, o)) in operands.iter().enumerate() {
            if o.rows().end > ROWS {
                violations.push(format!("{job}: {name} {o} exceeds {ROWS} word lines"));
            }
            for reserved in [ZERO_ROW, DUMP_ROW] {
                if o.contains_row(reserved) {
                    violations.push(format!("{job}: {name} {o} claims reserved row {reserved}"));
                }
            }
            for (other_name, other) in &operands[i + 1..] {
                if o.overlaps(other) {
                    violations.push(format!("{job}: {name} {o} overlaps {other_name} {other}"));
                }
            }
        }
    }
    violations.extend(handoff_violations(
        &MacReduceLayout::new(),
        &AssembleLayout::new(),
    ));
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_layouts_are_hazard_free() {
        assert_eq!(validate_plan(), Vec::<String>::new());
    }

    #[test]
    fn layouts_expose_every_field() {
        // `named()` must stay in sync with the struct fields — a region
        // missing from `named()` silently escapes all static checking.
        assert_eq!(MacReduceLayout::new().named().len(), 9);
        assert_eq!(AssembleLayout::new().named().len(), 6);
        assert_eq!(RangingLayout::new().named().len(), 3);
        assert_eq!(RequantLayout::new().named().len(), 2);
        assert_eq!(CodeRequantLayout::new().named().len(), 2);
        assert_eq!(PoolMaxLayout::new().named().len(), 3);
        assert_eq!(PoolAvgLayout::new().named().len(), 7);
    }

    #[test]
    fn handoff_rule_flags_moved_sums_and_overlapping_temporaries() {
        let mac = MacReduceLayout::new();
        let mut asm = AssembleLayout::new();
        assert_eq!(handoff_violations(&mac, &asm), Vec::<String>::new());
        asm.s1_op = op(120, 32);
        asm.u = op(160, 40);
        let found = handoff_violations(&mac, &asm);
        assert_eq!(found.len(), 3, "{found:?}");
        assert!(found[0].contains("s1_op") && found[0].contains("is not mac_reduce's seg_a"));
        assert!(found[1].contains(": u ") && found[1].contains("overlaps mac_reduce's seg_a"));
        assert!(found[2].contains(": u ") && found[2].contains("overlaps mac_reduce's s2_a"));
    }

    #[test]
    fn reserved_rows_sit_above_every_layout() {
        for (job, operands) in all_layouts() {
            for (name, o) in operands {
                assert!(
                    o.rows().end <= DUMP_ROW,
                    "{job}/{name} must stay below the dump row"
                );
            }
        }
    }
}
