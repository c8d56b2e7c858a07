//! Hazard checks over recorded schedules, operand layouts, and planned
//! mappings, plus the proof that the skip-aware MAC costs of the
//! analytical cost model equal the recorded MAC-tap cycles at every
//! skip/live anchor point. The derived cost model's base costs are
//! themselves measured from the layout methods recorded here, so they need
//! no check of their own. The results that depend on no model are proved
//! once per process, into one proof table that every model's check reads.
//!
//! Every check returns structured [`Diagnostic`]s; an empty vector means
//! the artifact is provably hazard-free under the modeled port semantics.

use std::sync::OnceLock;

use nc_sram::{ComputeArray, CycleStats, Schedule, StepKind, COLS, ROWS};
use neural_cache::cost::{CostModel, DerivedCostModel, DATA_BITS};
use neural_cache::layout::{
    self, AssembleLayout, MacReduceLayout, NamedOperand, DUMP_ROW, ZERO_ROW,
};
use neural_cache::mapping::ConvMapping;
use neural_cache::{LaneGeometry, SparsityMode};

use crate::diag::{Diagnostic, ErrorCode};

/// Word-line port budgets of one compute cycle (Section III: two-row
/// activation with a single write-back driver).
pub const READ_PORTS: usize = 2;
/// Write word lines one compute cycle may drive.
pub const WRITE_PORTS: usize = 1;

/// Checks one recorded schedule for per-cycle port hazards: out-of-bounds
/// word lines (V002), read-port overflow or duplicate sensing (V003),
/// write-port overflow (V004), and zero-row clobbering (V005).
#[must_use]
pub fn check_schedule(label: &str, s: &Schedule) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (cycle, step) in s.steps.iter().enumerate() {
        for row in row_indices(&step.reads).chain(row_indices(&step.writes)) {
            if row >= ROWS {
                out.push(
                    Diagnostic::new(
                        ErrorCode::RowOutOfBounds,
                        label,
                        format!(
                            "cycle {cycle} ({}) activates word line {row} >= {ROWS}",
                            step.label
                        ),
                    )
                    .with_rows(row, row + 1),
                );
            }
        }
        if step.kind == StepKind::Compute {
            let duplicate = step.reads.len() == 2 && step.reads[0] == step.reads[1];
            if step.reads.len() > READ_PORTS || duplicate {
                out.push(
                    Diagnostic::new(
                        ErrorCode::ReadPortOverflow,
                        label,
                        format!(
                            "cycle {cycle} ({}) senses rows {:?}: two-row activation \
                             needs at most {READ_PORTS} distinct word lines",
                            step.label, step.reads
                        ),
                    )
                    .with_rows(
                        row_indices(&step.reads).min().unwrap_or(0),
                        row_indices(&step.reads).max().unwrap_or(0) + 1,
                    ),
                );
            }
            if step.writes.len() > WRITE_PORTS {
                out.push(
                    Diagnostic::new(
                        ErrorCode::WritePortOverflow,
                        label,
                        format!(
                            "cycle {cycle} ({}) drives {} write word lines {:?}",
                            step.label,
                            step.writes.len(),
                            step.writes
                        ),
                    )
                    .with_rows(
                        row_indices(&step.writes).min().unwrap_or(0),
                        row_indices(&step.writes).max().unwrap_or(0) + 1,
                    ),
                );
            }
        }
        if row_indices(&step.writes).any(|row| row == ZERO_ROW) {
            out.push(
                Diagnostic::new(
                    ErrorCode::ZeroRowClobbered,
                    label,
                    format!(
                        "cycle {cycle} ({}) writes the dedicated all-zero row {ZERO_ROW}",
                        step.label
                    ),
                )
                .with_rows(ZERO_ROW, ZERO_ROW + 1),
            );
        }
    }
    out
}

/// A recorded word-line set as array row indices.
fn row_indices(set: &[u16]) -> impl Iterator<Item = usize> + '_ {
    set.iter().map(|&row| usize::from(row))
}

/// Lints a named operand set: pairwise overlap (V001), out-of-bounds rows
/// (V002), zero-row claims (V005), and dump-row claims (V012).
#[must_use]
pub fn check_operands(label: &str, operands: &[NamedOperand]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (name, op) in operands {
        let rows = op.rows();
        if rows.end > ROWS {
            out.push(
                Diagnostic::new(
                    ErrorCode::RowOutOfBounds,
                    format!("{label}/{name}"),
                    format!(
                        "operand rows {}..{} exceed the {ROWS}-row array",
                        rows.start, rows.end
                    ),
                )
                .with_rows(rows.start, rows.end),
            );
        }
        if op.contains_row(ZERO_ROW) {
            out.push(
                Diagnostic::new(
                    ErrorCode::ZeroRowClobbered,
                    format!("{label}/{name}"),
                    format!("operand claims the dedicated all-zero row {ZERO_ROW}"),
                )
                .with_rows(rows.start, rows.end),
            );
        }
        if op.contains_row(DUMP_ROW) {
            out.push(
                Diagnostic::new(
                    ErrorCode::DumpRowConflict,
                    format!("{label}/{name}"),
                    format!("operand claims the comparison dump row {DUMP_ROW}"),
                )
                .with_rows(rows.start, rows.end),
            );
        }
    }
    for (i, (name_a, a)) in operands.iter().enumerate() {
        for (name_b, b) in &operands[i + 1..] {
            if a.overlaps(b) {
                let start = a.rows().start.max(b.rows().start);
                let end = a.rows().end.min(b.rows().end);
                out.push(
                    Diagnostic::new(
                        ErrorCode::OperandOverlap,
                        format!("{label}/{name_a}+{name_b}"),
                        format!("operands {name_a} and {name_b} share word lines"),
                    )
                    .with_rows(start, end),
                );
            }
        }
    }
    out
}

/// Lints every named operand layout the functional executor ships
/// ([`layout::all_layouts`]), plus the in-place hand-off from pass 1 to
/// pass 2 ([`layout::handoff_violations`], reported as V001: assembly
/// regions that are not, or overlap, the pass-1 sums they read).
#[must_use]
pub fn check_layouts() -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (name, operands) in layout::all_layouts() {
        out.extend(check_operands(name, &operands));
    }
    for violation in layout::handoff_violations(&MacReduceLayout::new(), &AssembleLayout::new()) {
        out.push(Diagnostic::new(
            ErrorCode::OperandOverlap,
            "mac_reduce->assemble",
            violation,
        ));
    }
    out
}

/// Checks a convolution's lane geometry: non-power-of-two reduction spans
/// (V008) and lane-packing overflow past the array's bit lines (V007).
#[must_use]
pub fn check_lane_geometry(label: &str, geom: &LaneGeometry, filters: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !geom.group_span.is_power_of_two() {
        out.push(Diagnostic::new(
            ErrorCode::NonPowerOfTwoLanes,
            label,
            format!(
                "group span {} is not a power of two: the reduction tree cannot halve it",
                geom.group_span
            ),
        ));
    }
    let packed = geom.group_span * geom.groups_per_array(filters);
    if packed > COLS {
        out.push(Diagnostic::new(
            ErrorCode::LanePackingAlias,
            label,
            format!(
                "{} groups of span {} pack {packed} lanes onto {COLS} bit lines",
                geom.groups_per_array(filters),
                geom.group_span
            ),
        ));
    }
    if geom.group_span * geom.arrays_per_filter < geom.lanes_per_filter {
        out.push(Diagnostic::new(
            ErrorCode::LanePackingAlias,
            label,
            format!(
                "filter needs {} lanes but {} array(s) of span {} map only {}",
                geom.lanes_per_filter,
                geom.arrays_per_filter,
                geom.group_span,
                geom.group_span * geom.arrays_per_filter
            ),
        ));
    }
    out
}

/// Checks a planned convolution mapping's word-line budget (V006).
#[must_use]
pub fn check_row_budget(label: &str, mapping: &ConvMapping) -> Vec<Diagnostic> {
    if mapping.rows.fits() {
        Vec::new()
    } else {
        vec![Diagnostic::new(
            ErrorCode::RowBudgetOverflow,
            label,
            format!(
                "mapping needs {} word lines; the array has {ROWS}",
                mapping.rows.total()
            ),
        )
        .with_rows(0, mapping.rows.total())]
    }
}

// ---------------------------------------------------------------------
// Recorded MAC-tap and reduce schedules.
// ---------------------------------------------------------------------

/// Runs `op` on `arr` with recording on and returns the recorded schedule.
fn record(
    arr: &mut ComputeArray,
    op: impl FnOnce(&mut ComputeArray) -> nc_sram::Result<CycleStats>,
) -> nc_sram::Result<Schedule> {
    arr.start_recording();
    let ran = op(arr);
    let schedule = arr.take_recording().expect("recording was started");
    ran.map(|_| schedule)
}

/// The executor's per-tap MAC schedule ([`MacReduceLayout::mac_tap`])
/// under `mode`, recorded on a scratch array. The control-FSM facts become
/// operand data on lane 0: bit `j` of the multiplier is 0 exactly when
/// `zero_rounds[j]` is set, and under [`SparsityMode::SkipBoth`] the filter
/// byte's highest set bit is `live_bits - 1` (no bit when `live_bits` is 0).
///
/// # Panics
///
/// Panics if `live_bits` exceeds the 8-bit filter byte.
#[must_use]
pub fn mac_tap_schedule(mode: SparsityMode, zero_rounds: &[bool], live_bits: usize) -> Schedule {
    let l = MacReduceLayout::new();
    let multiplier = (0..DATA_BITS)
        .filter(|&j| !zero_rounds.get(j).copied().unwrap_or(false))
        .fold(0u64, |m, j| m | 1 << j);
    let filter = match (mode, live_bits) {
        (SparsityMode::SkipBoth, 0) => 0,
        (SparsityMode::SkipBoth, live) => 1 << (live - 1),
        _ => multiplier,
    };
    let mut arr = ComputeArray::with_zero_row(ZERO_ROW).expect("zero row is in bounds");
    arr.poke_lane(0, l.filter_byte, filter);
    arr.poke_lane(0, l.input_byte, multiplier);
    record(&mut arr, |arr| l.mac_tap(arr, mode)).expect("the pass-1 layout is valid")
}

/// The post-MAC reduce schedule of one array
/// ([`MacReduceLayout::reduce`]) for one lane group of `group_span` lanes,
/// recorded on a scratch array (every group runs the same rows).
///
/// # Errors
///
/// The array's own rejection of the span, e.g. a non-power-of-two
/// `group_span` (which [`check_lane_geometry`] reports as V008).
pub fn reduce_schedule(group_span: usize) -> nc_sram::Result<Schedule> {
    let l = MacReduceLayout::new();
    let mut arr = ComputeArray::with_zero_row(ZERO_ROW)?;
    record(&mut arr, |arr| l.reduce(arr, group_span, 1))
}

/// Proves the derived cost model's skip-aware MAC costs
/// ([`CostModel::mac_cycles_sparse`], [`CostModel::mac_cycles_dynamic`])
/// equal the recorded MAC-tap schedules at every integer skip/live anchor
/// point (V009 on any disagreement). Returns the diagnostics and the
/// number of anchor schedules compared. The sweep depends on no model, so
/// the proof table runs it once per process, like the [`DerivedCostModel`]
/// costs it checks.
#[must_use]
pub fn check_cost_model() -> (Vec<Diagnostic>, u64) {
    let cost = &DerivedCostModel;
    let mut out = Vec::new();
    let mut anchors = 0u64;
    for k in 0..=DATA_BITS {
        let mut flags = [false; DATA_BITS];
        for f in flags.iter_mut().take(k) {
            *f = true;
        }
        let skip = k as f64 / DATA_BITS as f64;

        let s = mac_tap_schedule(SparsityMode::SkipZeroRows, &flags, DATA_BITS);
        let analytical = cost.mac_cycles_sparse(skip);
        anchors += 1;
        if s.compute_cycles() as f64 != analytical {
            out.push(Diagnostic::new(
                ErrorCode::CycleMismatchAnalytical,
                "mac_tap/skip_rows",
                format!(
                    "{k}/{DATA_BITS} rounds elided: static {} vs analytical {analytical}",
                    s.compute_cycles()
                ),
            ));
        }

        for live in 0..=DATA_BITS {
            let s = mac_tap_schedule(SparsityMode::SkipBoth, &flags, live);
            let analytical = cost.mac_cycles_dynamic(skip, live as f64);
            anchors += 1;
            if s.compute_cycles() as f64 != analytical {
                out.push(Diagnostic::new(
                    ErrorCode::CycleMismatchAnalytical,
                    "mac_tap/skip_both",
                    format!(
                        "{k}/{DATA_BITS} elided, {live} live bits: static {} vs \
                         analytical {analytical}",
                        s.compute_cycles()
                    ),
                ));
            }
        }
    }
    (out, anchors)
}

// ---------------------------------------------------------------------
// The model-independent proofs, once per process.
// ---------------------------------------------------------------------

/// Multiplier rounds elided on lane 0 of the MAC-tap schedule checked in
/// each mode: every other round, so the executed and the elided round
/// sequences both run.
const MAC_TAP_ZERO_ROUNDS: [bool; DATA_BITS] = [false, true, false, true, false, true, false, true];

/// Live filter bits of that schedule under [`SparsityMode::SkipBoth`].
const MAC_TAP_LIVE_BITS: usize = 5;

/// Lane-group spans the reduce tree accepts: the powers of two up to the
/// array's [`COLS`] bit lines.
const REDUCE_SPANS: usize = COLS.trailing_zeros() as usize + 1;

/// Every proof [`crate::check_model`] reports that depends on no model: the
/// executor's operand layouts ([`check_layouts`]), the cost-model anchor
/// sweep ([`check_cost_model`]), the hazards of each [`crate::ALL_MODES`]
/// MAC-tap schedule, and the hazards of the reduce schedule of every
/// power-of-two span 1..=256. [`proof_table`] holds the one instance of a
/// process, so each model's check reads these instead of recording the
/// schedules again.
#[derive(Debug)]
pub(crate) struct ProofTable {
    /// The operand-layout lints.
    pub layouts: Vec<Diagnostic>,
    /// The cost-model sweep's diagnostics.
    pub cost_model: Vec<Diagnostic>,
    /// Anchor schedules the cost-model sweep compared.
    pub cost_model_anchors: u64,
    /// Hazards of the MAC-tap schedules, labelled `mac_tap/<mode>`.
    pub mac_taps: Vec<Diagnostic>,
    /// MAC-tap schedules checked, one per mode.
    pub mac_tap_modes: u64,
    /// Hazards of the reduce schedule of span `1 << k` at index `k`, each
    /// proved on first use.
    reduce: [OnceLock<Vec<Diagnostic>>; REDUCE_SPANS],
}

impl ProofTable {
    fn prove() -> Self {
        let (cost_model, cost_model_anchors) = check_cost_model();
        let mac_taps = crate::ALL_MODES
            .iter()
            .flat_map(|&mode| {
                let s = mac_tap_schedule(mode, &MAC_TAP_ZERO_ROUNDS, MAC_TAP_LIVE_BITS);
                check_schedule(&format!("mac_tap/{mode:?}"), &s)
            })
            .collect();
        ProofTable {
            layouts: check_layouts(),
            cost_model,
            cost_model_anchors,
            mac_taps,
            mac_tap_modes: crate::ALL_MODES.len() as u64,
            reduce: [const { OnceLock::new() }; REDUCE_SPANS],
        }
    }

    /// The hazards of [`reduce_schedule`]`(group_span)`, labelled
    /// `reduce/span<group_span>`; `None` for a span the array rejects (not
    /// a power of two, or wider than the array), which
    /// [`check_lane_geometry`] reports as V008 or V007.
    #[must_use]
    pub(crate) fn reduce_hazards(&self, group_span: usize) -> Option<&[Diagnostic]> {
        if !group_span.is_power_of_two() {
            return None;
        }
        let proof = self.reduce.get(group_span.trailing_zeros() as usize)?;
        Some(proof.get_or_init(|| {
            let s = reduce_schedule(group_span).expect("the array reduces every power-of-two span");
            check_schedule(&format!("reduce/span{group_span}"), &s)
        }))
    }
}

/// The process's [`ProofTable`], proved on first use.
#[must_use]
pub(crate) fn proof_table() -> &'static ProofTable {
    static TABLE: OnceLock<ProofTable> = OnceLock::new();
    TABLE.get_or_init(ProofTable::prove)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_sram::Operand;

    fn op(base: usize, bits: usize) -> Operand {
        Operand::new(base, bits).unwrap()
    }

    fn recorded(op: impl FnOnce(&mut ComputeArray) -> nc_sram::Result<CycleStats>) -> Schedule {
        let mut arr = ComputeArray::with_zero_row(ZERO_ROW).unwrap();
        record(&mut arr, op).unwrap()
    }

    fn one_step(reads: Vec<usize>, writes: Vec<usize>) -> Schedule {
        Schedule {
            steps: vec![nc_sram::Step {
                kind: StepKind::Compute,
                reads: reads.into(),
                writes: writes.into(),
                label: "injected",
            }],
            ..Schedule::default()
        }
    }

    #[test]
    fn clean_schedules_produce_no_diagnostics() {
        let (a, b, dst, prod) = (op(0, 8), op(8, 8), op(16, 9), op(32, 16));
        assert!(check_schedule("add", &recorded(|arr| arr.add(a, b, dst))).is_empty());
        assert!(check_schedule("mul", &recorded(|arr| arr.mul(a, b, prod))).is_empty());
        let s = recorded(|arr| arr.mul_skip_both(a, b, prod));
        assert!(check_schedule("mul_skip", &s).is_empty());
    }

    #[test]
    fn duplicate_sense_is_a_read_port_overflow() {
        // Alias every add cycle's second sensed row onto its first.
        let mut s = recorded(|arr| arr.add(op(0, 8), op(8, 8), op(16, 8)));
        for step in &mut s.steps {
            step.reads[1] = step.reads[0];
        }
        let diags = check_schedule("alias", &s);
        assert_eq!(diags.len(), 8);
        assert!(diags.iter().all(|d| d.code == ErrorCode::ReadPortOverflow));
    }

    #[test]
    fn out_of_bounds_rows_are_flagged() {
        let diags = check_schedule("oob", &one_step(vec![ROWS], vec![0]));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, ErrorCode::RowOutOfBounds);
        assert_eq!(diags[0].rows, Some((ROWS, ROWS + 1)));
    }

    #[test]
    fn zero_row_writes_are_flagged() {
        let diags = check_schedule("clobber", &one_step(vec![], vec![ZERO_ROW]));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, ErrorCode::ZeroRowClobbered);
    }

    #[test]
    fn operand_lints_cover_overlap_and_reserved_rows() {
        // `Operand::new` already bounds-rejects out-of-range descriptors, so
        // V002 cannot arise here; it is exercised through `check_schedule`
        // in `out_of_bounds_rows_are_flagged` instead.
        let diags = check_operands(
            "lint",
            &[
                ("a", op(0, 16)),
                ("b", op(8, 8)),
                ("tall", op(248, 8)),
                ("dump", op(249, 2)),
            ],
        );
        let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&ErrorCode::OperandOverlap), "{diags:?}");
        assert!(codes.contains(&ErrorCode::ZeroRowClobbered), "{diags:?}");
        assert!(codes.contains(&ErrorCode::DumpRowConflict), "{diags:?}");
    }

    #[test]
    fn shipped_layouts_are_clean() {
        assert_eq!(check_layouts(), Vec::new());
    }

    #[test]
    fn schedule_constants_match_the_derived_cost_model() {
        // 9 skip anchors (0..=8 rounds elided), each under SkipZeroRows
        // and under SkipBoth at 0..=8 live bits.
        assert_eq!(check_cost_model(), (Vec::new(), 90));
    }

    /// The proof table holds what fresh recordings prove: the layout
    /// lints, the cost-model sweep, each mode's MAC-tap hazards and, at
    /// every power-of-two span up to the array width, the hazards of a
    /// fresh reduce schedule.
    #[test]
    fn the_proof_table_equals_fresh_proofs() {
        let table = proof_table();
        assert_eq!(table.layouts, check_layouts());
        let sweep = (table.cost_model.clone(), table.cost_model_anchors);
        assert_eq!(sweep, check_cost_model());
        let mut mac_taps = Vec::new();
        for mode in crate::ALL_MODES {
            let s = mac_tap_schedule(mode, &MAC_TAP_ZERO_ROUNDS, MAC_TAP_LIVE_BITS);
            mac_taps.extend(check_schedule(&format!("mac_tap/{mode:?}"), &s));
        }
        assert_eq!((&table.mac_taps, table.mac_tap_modes), (&mac_taps, 3));
        for span in (0..=8).map(|k| 1usize << k) {
            let s = reduce_schedule(span).unwrap();
            let fresh = check_schedule(&format!("reduce/span{span}"), &s);
            assert_eq!(table.reduce_hazards(span), Some(&fresh[..]), "span {span}");
        }
    }

    /// A span the array rejects has no table entry, and the geometry check
    /// still reports it: span 3 as V008, span 512 as V007.
    #[test]
    fn rejected_spans_have_no_entry_and_fail_the_geometry_check() {
        for span in [0, 3, 512] {
            assert!(reduce_schedule(span).is_err(), "span {span}");
            assert_eq!(proof_table().reduce_hazards(span), None, "span {span}");
        }
        let codes = |group_span: usize| {
            let geom = LaneGeometry {
                packing: 1,
                split: 1,
                eff_window: 9,
                eff_channels: group_span,
                lanes_per_filter: group_span,
                group_span,
                arrays_per_filter: 1,
                filters_per_array: 1,
            };
            let diags = check_lane_geometry("span", &geom, 1);
            diags.into_iter().map(|d| d.code).collect::<Vec<_>>()
        };
        assert_eq!(codes(3), [ErrorCode::NonPowerOfTwoLanes]);
        assert_eq!(codes(512), [ErrorCode::LanePackingAlias]);
    }

    #[test]
    fn mac_tap_schedules_are_hazard_free_in_every_mode() {
        let flags = [false, true, false, true, false, true, false, true];
        for mode in [
            SparsityMode::Dense,
            SparsityMode::SkipZeroRows,
            SparsityMode::SkipBoth,
        ] {
            let s = mac_tap_schedule(mode, &flags, 6);
            assert!(check_schedule("mac_tap", &s).is_empty(), "{mode:?}");
        }
    }

    /// At every span a lane group can have, the recorded reduce schedule
    /// holds one step per cycle the unrecorded layout method charges, and
    /// is hazard-free.
    #[test]
    fn reduce_schedules_record_every_cycle_at_every_span() {
        for span in (0..=8).map(|k| 1usize << k) {
            let s = reduce_schedule(span).unwrap();
            let mut arr = ComputeArray::with_zero_row(ZERO_ROW).unwrap();
            let charged = MacReduceLayout::new().reduce(&mut arr, span, 1).unwrap();
            assert_eq!(s.compute_cycles(), charged.compute_cycles, "span {span}");
            assert_eq!(s.access_cycles(), charged.access_cycles, "span {span}");
            assert_eq!(check_schedule("reduce", &s), Vec::new(), "span {span}");
        }
        assert!(reduce_schedule(3).is_err(), "the array rejects odd spans");
    }

    #[test]
    fn assemble_schedules_are_hazard_free() {
        let asm = AssembleLayout::new();
        let assemble = |zp_w, relu| recorded(|arr| asm.assemble(arr, zp_w, relu));
        for zp_w in [0, 1, 0x80, 0xFF] {
            for relu in [false, true] {
                let s = assemble(zp_w, relu);
                assert!(!s.steps.is_empty());
                assert_eq!(
                    check_schedule("assemble", &s),
                    Vec::new(),
                    "zp_w {zp_w:#x}, relu {relu}"
                );
            }
        }
        // One shifted add per set bit of zp_w, and ReLU costs cycles.
        let len = |zp_w, relu| assemble(zp_w, relu).compute_cycles();
        assert!(len(0, false) < len(0x80, false));
        assert!(len(0x80, false) < len(0xFF, false));
        assert!(len(1, false) < len(1, true));
    }

    #[test]
    fn pass_schedules_are_hazard_free() {
        use nc_dnn::quant::CodeRequant;
        use nc_dnn::Requantizer;
        use neural_cache::layout::{
            CodeRequantLayout, PoolAvgLayout, PoolMaxLayout, RangingLayout, RequantLayout,
        };
        // Every pass after assembly, at the corners of its control-FSM
        // scalars.
        let mut schedules = Vec::new();
        let ranging = RangingLayout::new();
        schedules.extend([false, true].map(|max| recorded(|arr| ranging.reduce(arr, max, COLS))));
        let (requant, code) = (RequantLayout::new(), CodeRequantLayout::new());
        for multiplier in [1, 0x8000, 0xFFFF] {
            for shift in [0, 24] {
                let r = Requantizer {
                    acc_min: -3,
                    multiplier,
                    shift,
                };
                schedules.push(recorded(|arr| requant.requantize(arr, r)));
                for c in [-(1 << 20), 1 << 15] {
                    let m = multiplier.into();
                    let map = CodeRequant { m, c, sh: shift };
                    schedules.push(recorded(|arr| code.requantize(arr, map)));
                }
            }
        }
        let (max, avg) = (PoolMaxLayout::new(), PoolAvgLayout::new());
        schedules.push(recorded(|arr| max.step(arr)));
        schedules.push(recorded(|arr| avg.clear(arr)));
        schedules.push(recorded(|arr| avg.accumulate(arr)));
        let divisors: Vec<u64> = (1..=9).collect();
        schedules.push(recorded(|arr| {
            arr.poke_lanes(0, avg.den, &divisors)?;
            avg.divide(arr)
        }));
        for (i, s) in schedules.iter().enumerate() {
            assert!(!s.steps.is_empty(), "schedule {i}");
            assert_eq!(check_schedule("pass", s), Vec::new(), "schedule {i}");
        }
    }

    #[test]
    fn recorded_tap_counters_follow_the_fsm_facts() {
        let flags = [true, true, false, false, false, false, false, false];
        let s = mac_tap_schedule(SparsityMode::SkipZeroRows, &flags, DATA_BITS);
        assert_eq!((s.stats.mul_rounds, s.stats.skipped_rounds), (8, 2));
        let s = mac_tap_schedule(SparsityMode::SkipBoth, &flags, 3);
        assert_eq!(s.stats.input_rounds_skipped, 2);
        assert_eq!(s.stats.detect_cycles, 8);
        // 2 elided rounds at n + 2 = 10, plus 6 executed rounds truncated
        // from 8 to 3 live adds.
        assert_eq!(s.stats.skipped_cycles, 2 * 10 + 6 * 5);
    }
}
