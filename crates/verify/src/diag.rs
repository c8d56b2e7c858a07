//! Structured diagnostics with stable error codes.
//!
//! Every hazard the verifier can detect has a fixed `Vxxx` code so CI
//! artifacts, tests, and humans can match on the class of failure without
//! parsing prose. Codes are append-only: existing codes never change
//! meaning or number. Retired codes will not be reused: `V013`–`V019`
//! flagged races in a static model of the Threaded engine's shard graph,
//! which the executed engine-equivalence checks replace, and `V024`
//! flagged over-provisioned operand rows in the narrower widths of a
//! bit-budget advisor whose trims no plan executed.

use std::fmt;

/// Stable error codes of the static plan verifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorCode {
    /// V001: two operand regions of one operation share word lines.
    OperandOverlap,
    /// V002: an operand's rows extend past the array's word lines.
    RowOutOfBounds,
    /// V003: one compute cycle activates more than two read word lines
    /// (or the same word line twice — two-row activation needs distinct
    /// rows).
    ReadPortOverflow,
    /// V004: one compute cycle drives more than one write word line.
    WritePortOverflow,
    /// V005: a compute cycle writes the dedicated all-zero row.
    ZeroRowClobbered,
    /// V006: a convolution mapping's row budget exceeds the array.
    RowBudgetOverflow,
    /// V007: lane packing aliases two filter groups onto one bit line.
    LanePackingAlias,
    /// V008: a reduction group span is not a power of two.
    NonPowerOfTwoLanes,
    /// V009: a recorded MAC-tap schedule's length disagrees with the
    /// analytical cost model.
    CycleMismatchAnalytical,
    /// V010: executed cycle counters disagree with the static schedule.
    CycleMismatchExecuted,
    /// V011: the reserved-way dump overlap exceeds its port-conflict
    /// window.
    ReservedWayPortConflict,
    /// V012: an operand region claims the comparison dump row.
    DumpRowConflict,
    /// V020: an executed run's `ArrayPool` event counts disagree with the
    /// sequential dense run's, or its checkouts and returns do not balance.
    ExecutedPoolMismatch,
    /// V021: a proven accumulator interval exceeds its allocated operand
    /// width (possible silent wraparound), or an executed per-layer
    /// min/max escaped the certified static interval.
    AccumulatorOverflow,
    /// V022: a proven accumulator range is too wide for the requantization
    /// pipeline's 32-bit multiply operand (values past the width would be
    /// clipped before the scalar multiply).
    RequantClippingRange,
    /// V023: a proven interval cannot be biased into unsigned order by the
    /// ranging offset (sign-extension mismatch in the min/max trees).
    SignExtensionMismatch,
    /// V025: a value range is degenerate (statically a single value), so
    /// the layer computes a constant.
    DegenerateRange,
    /// V026: the `SkipBoth` live-bit truncation width is below the highest
    /// set weight bit (unsound truncation would corrupt products).
    UnsoundTruncation,
    /// V027: a reduction-tree operand is narrower than the proven worst
    /// case of the running sums it carries.
    ReduceWidthDeficit,
    /// V028: the model does not validate (`nc_dnn::Model::validate`).
    MalformedModel,
}

/// Coarse diagnostic class used by `plan_lint` to pick its exit code:
/// structural/static hazards versus executed-vs-static reconciliation
/// failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// A static property of the plan or schedule is violated.
    Hazard,
    /// An executed run disagreed with its static prediction.
    Reconciliation,
}

impl ErrorCode {
    /// Every stable code, in `Vxxx` order. This array is the single source
    /// of truth for the diagnostic table: tests derive the README table
    /// check and uniqueness from it.
    pub const ALL: [ErrorCode; 20] = [
        ErrorCode::OperandOverlap,
        ErrorCode::RowOutOfBounds,
        ErrorCode::ReadPortOverflow,
        ErrorCode::WritePortOverflow,
        ErrorCode::ZeroRowClobbered,
        ErrorCode::RowBudgetOverflow,
        ErrorCode::LanePackingAlias,
        ErrorCode::NonPowerOfTwoLanes,
        ErrorCode::CycleMismatchAnalytical,
        ErrorCode::CycleMismatchExecuted,
        ErrorCode::ReservedWayPortConflict,
        ErrorCode::DumpRowConflict,
        ErrorCode::ExecutedPoolMismatch,
        ErrorCode::AccumulatorOverflow,
        ErrorCode::RequantClippingRange,
        ErrorCode::SignExtensionMismatch,
        ErrorCode::DegenerateRange,
        ErrorCode::UnsoundTruncation,
        ErrorCode::ReduceWidthDeficit,
        ErrorCode::MalformedModel,
    ];

    /// The stable `Vxxx` identifier.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::OperandOverlap => "V001",
            ErrorCode::RowOutOfBounds => "V002",
            ErrorCode::ReadPortOverflow => "V003",
            ErrorCode::WritePortOverflow => "V004",
            ErrorCode::ZeroRowClobbered => "V005",
            ErrorCode::RowBudgetOverflow => "V006",
            ErrorCode::LanePackingAlias => "V007",
            ErrorCode::NonPowerOfTwoLanes => "V008",
            ErrorCode::CycleMismatchAnalytical => "V009",
            ErrorCode::CycleMismatchExecuted => "V010",
            ErrorCode::ReservedWayPortConflict => "V011",
            ErrorCode::DumpRowConflict => "V012",
            ErrorCode::ExecutedPoolMismatch => "V020",
            ErrorCode::AccumulatorOverflow => "V021",
            ErrorCode::RequantClippingRange => "V022",
            ErrorCode::SignExtensionMismatch => "V023",
            ErrorCode::DegenerateRange => "V025",
            ErrorCode::UnsoundTruncation => "V026",
            ErrorCode::ReduceWidthDeficit => "V027",
            ErrorCode::MalformedModel => "V028",
        }
    }

    /// Short human title of the hazard class, matching the README table's
    /// second column (the table-coverage test compares against this).
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            ErrorCode::OperandOverlap => "Operand overlap",
            ErrorCode::RowOutOfBounds => "Row out of bounds",
            ErrorCode::ReadPortOverflow => "Read-port overflow",
            ErrorCode::WritePortOverflow => "Write-port overflow",
            ErrorCode::ZeroRowClobbered => "Zero-row clobber",
            ErrorCode::RowBudgetOverflow => "Row-budget overflow",
            ErrorCode::LanePackingAlias => "Lane-packing alias",
            ErrorCode::NonPowerOfTwoLanes => "Non-power-of-two span",
            ErrorCode::CycleMismatchAnalytical => "Static/analytical cycle mismatch",
            ErrorCode::CycleMismatchExecuted => "Static/executed cycle mismatch",
            ErrorCode::ReservedWayPortConflict => "Reserved-way port conflict",
            ErrorCode::DumpRowConflict => "Dump-row conflict",
            ErrorCode::ExecutedPoolMismatch => "Executed pool mismatch",
            ErrorCode::AccumulatorOverflow => "Accumulator overflow",
            ErrorCode::RequantClippingRange => "Requant clipping range",
            ErrorCode::SignExtensionMismatch => "Sign-extension mismatch",
            ErrorCode::DegenerateRange => "Degenerate range",
            ErrorCode::UnsoundTruncation => "Unsound live-bit truncation",
            ErrorCode::ReduceWidthDeficit => "Reduce-tree width deficit",
            ErrorCode::MalformedModel => "Malformed model",
        }
    }

    /// Whether this code reports a static hazard or an executed-vs-static
    /// reconciliation failure (`plan_lint` exits 1 vs 2 on them).
    #[must_use]
    pub fn category(self) -> Category {
        match self {
            ErrorCode::CycleMismatchAnalytical
            | ErrorCode::CycleMismatchExecuted
            | ErrorCode::ExecutedPoolMismatch => Category::Reconciliation,
            _ => Category::Hazard,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One verifier finding: the hazard class, the offending operation, and
/// the word-line range involved (when row-addressed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable hazard class.
    pub code: ErrorCode,
    /// Label of the offending operation or check context (e.g.
    /// `"mac_reduce/mul"` or `"Conv2d_2b_3x3/SkipZeroRows"`).
    pub op: String,
    /// Offending word-line range `[start, end)`, when the hazard is
    /// row-addressed.
    pub rows: Option<(usize, usize)>,
    /// Human-readable description with the concrete values.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic without a row range.
    #[must_use]
    pub fn new(code: ErrorCode, op: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            op: op.into(),
            rows: None,
            message: message.into(),
        }
    }

    /// Attaches the offending word-line range.
    #[must_use]
    pub fn with_rows(mut self, start: usize, end: usize) -> Self {
        self.rows = Some((start, end));
        self
    }

    /// Serializes this diagnostic as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let rows = match self.rows {
            Some((start, end)) => format!(r#"{{"start":{start},"end":{end}}}"#),
            None => "null".to_string(),
        };
        format!(
            r#"{{"code":"{}","op":"{}","rows":{},"message":"{}"}}"#,
            self.code,
            escape_json(&self.op),
            rows,
            escape_json(&self.message)
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]: {}", self.code, self.op, self.message)?;
        if let Some((start, end)) = self.rows {
            write!(f, " (rows {start}..{end})")?;
        }
        Ok(())
    }
}

pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let ids: Vec<&str> = ErrorCode::ALL.into_iter().map(ErrorCode::as_str).collect();
        // ALL is ordered, so strictly increasing identifiers are unique too.
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
        assert!(ErrorCode::ALL.iter().all(|c| !c.description().is_empty()));
        // Retired codes leave gaps; every shipped code keeps its number.
        let expected: Vec<String> = (1..=12)
            .chain(20..=23)
            .chain(25..=28)
            .map(|n| format!("V{n:03}"))
            .collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn categories_split_reconciliation_from_hazards() {
        let recon: Vec<&str> = ErrorCode::ALL
            .into_iter()
            .filter(|c| c.category() == Category::Reconciliation)
            .map(ErrorCode::as_str)
            .collect();
        assert_eq!(recon, ["V009", "V010", "V020"]);
    }

    #[test]
    fn diagnostic_renders_rows_and_json() {
        let d = Diagnostic::new(ErrorCode::OperandOverlap, "mul", "a overlaps b").with_rows(8, 16);
        let shown = d.to_string();
        assert!(shown.contains("V001"));
        assert!(shown.contains("rows 8..16"));
        let json = d.to_json();
        assert!(json.contains(r#""code":"V001""#));
        assert!(json.contains(r#""start":8"#));

        let quoted = Diagnostic::new(ErrorCode::RowOutOfBounds, r#"op"x"#, "msg\n2");
        assert!(quoted.to_json().contains(r#"op\"x"#));
        assert!(quoted.to_json().contains(r"msg\n2"));
    }
}
