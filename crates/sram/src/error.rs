//! Error type shared by all fallible SRAM array operations.

use std::error::Error;
use std::fmt;

/// Errors raised when validating bit-serial operations against the physical
/// constraints of a 256x256 compute SRAM array.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SramError {
    /// A row index exceeded the 256 word lines of the array.
    RowOutOfRange {
        /// Offending row index.
        row: usize,
    },
    /// A column (bit line / lane) index exceeded the 256 bit lines.
    ColOutOfRange {
        /// Offending column index.
        col: usize,
    },
    /// An operand would extend past the last word line.
    OperandOutOfRange {
        /// First row of the operand.
        base: usize,
        /// Bit width of the operand.
        bits: usize,
    },
    /// An operand was declared with zero bits.
    EmptyOperand,
    /// Two operands overlap in a way the micro-op sequence cannot tolerate
    /// (partial overlap; exact aliasing is allowed where documented).
    OverlappingOperands {
        /// Human-readable description of the conflicting operands.
        what: &'static str,
    },
    /// Destination operand is too narrow to hold the result.
    DestinationTooNarrow {
        /// Bits required by the result.
        needed: usize,
        /// Bits available in the destination.
        available: usize,
    },
    /// A compute micro-op attempted to activate the same word line twice.
    ///
    /// The test-chip guarantees no data corruption for simultaneous
    /// activation of *distinct* word lines; activating one row against itself
    /// is meaningless in the analog sensing scheme.
    SelfActivation {
        /// The row that was activated against itself.
        row: usize,
    },
    /// The operation requires the array's dedicated all-zero row, but none
    /// was configured via [`ComputeArray::set_zero_row`].
    ///
    /// [`ComputeArray::set_zero_row`]: crate::ComputeArray::set_zero_row
    MissingZeroRow,
    /// An operation would overwrite the configured all-zero row.
    ZeroRowClobbered {
        /// Row index of the configured zero row.
        row: usize,
    },
    /// The reduction tree requires a power-of-two lane count.
    NonPowerOfTwoLanes {
        /// Number of lanes requested.
        lanes: usize,
    },
    /// Division by a zero divisor was requested on at least one active lane.
    DivisionByZero {
        /// First lane with a zero divisor.
        lane: usize,
    },
}

impl fmt::Display for SramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SramError::RowOutOfRange { row } => {
                write!(f, "row {row} exceeds the 256 word lines of the array")
            }
            SramError::ColOutOfRange { col } => {
                write!(f, "column {col} exceeds the 256 bit lines of the array")
            }
            SramError::OperandOutOfRange { base, bits } => write!(
                f,
                "operand spanning rows {base}..{} does not fit in 256 word lines",
                base + bits
            ),
            SramError::EmptyOperand => write!(f, "operand must be at least one bit wide"),
            SramError::OverlappingOperands { what } => {
                write!(f, "operands overlap: {what}")
            }
            SramError::DestinationTooNarrow { needed, available } => write!(
                f,
                "destination holds {available} bits but the result needs {needed}"
            ),
            SramError::SelfActivation { row } => {
                write!(f, "compute cycle activated word line {row} against itself")
            }
            SramError::MissingZeroRow => {
                write!(
                    f,
                    "operation requires a dedicated all-zero row; none configured"
                )
            }
            SramError::ZeroRowClobbered { row } => {
                write!(f, "operation would overwrite the dedicated zero row {row}")
            }
            SramError::NonPowerOfTwoLanes { lanes } => {
                write!(
                    f,
                    "tree reduction requires a power-of-two lane count, got {lanes}"
                )
            }
            SramError::DivisionByZero { lane } => {
                write!(f, "division by zero on lane {lane}")
            }
        }
    }
}

impl Error for SramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let errors = [
            SramError::RowOutOfRange { row: 300 },
            SramError::EmptyOperand,
            SramError::MissingZeroRow,
            SramError::DivisionByZero { lane: 3 },
        ];
        for err in errors {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SramError>();
    }

    #[test]
    fn every_variant_displays_its_payload() {
        let cases: [(SramError, &[&str]); 11] = [
            (SramError::RowOutOfRange { row: 300 }, &["row 300", "256"]),
            (
                SramError::ColOutOfRange { col: 999 },
                &["column 999", "256"],
            ),
            (
                SramError::OperandOutOfRange { base: 250, bits: 8 },
                &["rows 250..258", "256"],
            ),
            (SramError::EmptyOperand, &["at least one bit"]),
            (
                SramError::OverlappingOperands {
                    what: "mul product overlaps a factor",
                },
                &["operands overlap", "mul product overlaps a factor"],
            ),
            (
                SramError::DestinationTooNarrow {
                    needed: 17,
                    available: 16,
                },
                &["16 bits", "needs 17"],
            ),
            (SramError::SelfActivation { row: 42 }, &["word line 42"]),
            (SramError::MissingZeroRow, &["all-zero row"]),
            (SramError::ZeroRowClobbered { row: 255 }, &["zero row 255"]),
            (
                SramError::NonPowerOfTwoLanes { lanes: 12 },
                &["power-of-two", "got 12"],
            ),
            (SramError::DivisionByZero { lane: 7 }, &["lane 7"]),
        ];
        for (err, needles) in cases {
            let msg = err.to_string();
            for needle in needles {
                assert!(
                    msg.contains(needle),
                    "{err:?} display {msg:?} lacks {needle:?}"
                );
            }
            assert!(msg.chars().next().unwrap().is_lowercase(), "{msg}");
        }
    }

    #[test]
    fn errors_round_trip_through_the_error_paths_that_raise_them() {
        use crate::{ComputeArray, Operand, Predicate};
        // ColOutOfRange: lane moves past the last bit line.
        let mut a = ComputeArray::with_zero_row(255).unwrap();
        let v = Operand::new(0, 8).unwrap();
        let d = Operand::new(8, 8).unwrap();
        assert_eq!(
            a.move_lanes(v, d, 200, 100),
            Err(SramError::ColOutOfRange { col: 300 })
        );
        // SelfActivation: a micro-op sensing one row against itself.
        assert_eq!(
            a.op_and(3, 3, 10, Predicate::Always),
            Err(SramError::SelfActivation { row: 3 })
        );
        // ZeroRowClobbered: writing into the dedicated zero row.
        let z = Operand::new(250, 6).unwrap();
        assert_eq!(a.zero(z), Err(SramError::ZeroRowClobbered { row: 255 }));
        // NonPowerOfTwoLanes: tree reduction over 12 lanes.
        let s = Operand::new(16, 8).unwrap();
        assert_eq!(
            a.reduce_sum(v, s, 12),
            Err(SramError::NonPowerOfTwoLanes { lanes: 12 })
        );
        // MissingZeroRow: complement without a configured zero row.
        let mut bare = ComputeArray::new();
        assert_eq!(
            bare.op_not(0, 8, Predicate::Always),
            Err(SramError::MissingZeroRow)
        );
        // DestinationTooNarrow: 8+8-bit sum into 7 bits.
        let narrow = Operand::new(30, 7).unwrap();
        assert_eq!(
            a.add(v, d, narrow),
            Err(SramError::DestinationTooNarrow {
                needed: 8,
                available: 7,
            })
        );
        // OverlappingOperands: product aliasing a factor.
        let prod = Operand::new(4, 16).unwrap();
        assert!(matches!(
            a.mul(v, d, prod),
            Err(SramError::OverlappingOperands { .. })
        ));
        // DivisionByZero: broadcast division by the constant zero.
        let num = Operand::new(0, 8).unwrap();
        let quot = Operand::new(16, 8).unwrap();
        let rem = Operand::new(24, 9).unwrap();
        let trial = Operand::new(33, 9).unwrap();
        assert_eq!(
            a.div_scalar(num, 0, quot, rem, trial),
            Err(SramError::DivisionByZero { lane: 0 })
        );
    }
}
