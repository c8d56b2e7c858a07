//! Bit-line computing SRAM arrays for the Neural Cache (ISCA 2018) reproduction.
//!
//! An 8KB cache SRAM array (256 word lines x 256 bit lines) is re-purposed as
//! a 256-lane bit-serial vector unit. The hardware primitive, taken from the
//! Jeloka et al. 28nm test chip and the Compute Cache architecture, is the
//! simultaneous activation of **two** word lines: sensing the bit line yields
//! the `AND` of the two stored bits, sensing the bit-line complement yields
//! their `NOR`. A small column peripheral (two single-ended sense amplifiers,
//! an XOR gate, a carry latch `C`, a tag latch `T`, and a 4:1 write-back mux
//! whose driver is gated by the tag) turns that primitive into full bit-serial
//! arithmetic over *transposed* operands: every bit of a data element lives on
//! the same bit line, one element per column, and an n-bit operation is a
//! sequence of single-cycle row operations applied to all 256 columns at once.
//!
//! The crate provides:
//!
//! - [`SramArray`]: raw 256x256 bit storage with the two-row activation
//!   primitive and the data-corruption rule (compute ops may activate at most
//!   two rows; plain reads/writes activate one).
//! - [`ComputeArray`]: the array plus column peripherals and cycle/energy
//!   accounting. Micro-ops cost exactly one cycle; high-level bit-serial
//!   operations (`add`, `sub`, `mul`, `div`, `max`, `relu`, tree reduction,
//!   predicated copies, scalar broadcasts, equality search) are built from
//!   micro-ops, so their cycle counts are *derived*, not asserted. Each
//!   operation checks its operands before its first cycle, so a rejected
//!   one changes nothing. Operands are staged for free through
//!   [`ComputeArray::poke_lanes`]/[`ComputeArray::peek_lanes`], or as
//!   whole rows of planes packed once ([`pack_lanes`],
//!   [`ComputeArray::load_rows`]).
//! - [`Operand`]: a transposed operand descriptor (base row + bit width).
//! - [`Schedule`]: the per-cycle word-line read/write sets a
//!   [`ComputeArray`] records from its own micro-ops while recording is on
//!   — the schedule static checkers verify is the one that ran.
//! - [`TransposeUnit`]: the 8T-SRAM transpose memory unit (TMU) that converts
//!   between bit-parallel and transposed layouts; its bit packing is also
//!   the compute array's operand loader.
//! - [`stats`]: cycle statistics and the paper's per-cycle timing/energy
//!   constants (1022 ps compute cycle, 15.4 pJ/compute cycle at 22 nm, ...).
//! - [`area`]: the Figure-12 area model (7.5% array overhead, TMU and control
//!   FSM areas).
//!
//! # Example
//!
//! ```
//! use nc_sram::{ComputeArray, Operand};
//!
//! let mut array = ComputeArray::new();
//! let a = Operand::new(0, 8)?;
//! let b = Operand::new(8, 8)?;
//! let sum = Operand::new(16, 9)?;
//!
//! // Lane 3 computes 100 + 55; every other lane computes its own values.
//! array.poke_lane(3, a, 100);
//! array.poke_lane(3, b, 55);
//! array.add(a, b, sum)?;
//! assert_eq!(array.peek_lane(3, sum), 155);
//! // Addition of n-bit operands takes n + 1 cycles (paper Section III-B).
//! assert_eq!(array.stats().compute_cycles, 9);
//! # Ok::<(), nc_sram::SramError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![warn(clippy::pedantic)]
// Pedantic allowlist: cycle/energy accounting converts u64 counters to f64
// for ratios (precision loss is fine at simulator scale), peek/poke helpers
// reinterpret two's-complement values, doc panics are internal invariant
// asserts, and several validators take &self only for API symmetry.
#![allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss,
    clippy::missing_panics_doc,
    clippy::unused_self,
    clippy::float_cmp,
    clippy::many_single_char_names
)]

pub mod area;
mod bitrow;
mod compute;
mod error;
mod operand;
pub mod ops;
mod pool;
mod schedule;
mod sram;
pub mod stats;
mod transpose;

pub use bitrow::BitRow;
pub use compute::{ComputeArray, Predicate};
pub use error::SramError;
pub use operand::Operand;
pub use pool::{ArrayPool, PoolStats, PooledArray};
pub use schedule::{Schedule, Step, StepKind, WordLines};
pub use sram::SramArray;
pub use stats::{ArrayEnergy, ArrayTimings, CycleStats, ValueStats};
pub use transpose::{pack_lanes, TransposeUnit, TMU_TILE_DIM};

// Compile-time Send/Sync audit: sharded execution engines move arrays into
// worker threads and share one pool between them, so these bounds are part
// of the crate's public contract — a field change that loses them (e.g. an
// Rc or raw pointer) must fail the build here rather than in a downstream
// crate.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<ComputeArray>();
    assert_send::<SramArray>();
    assert_send_sync::<BitRow>();
    assert_send_sync::<CycleStats>();
    assert_send_sync::<Operand>();
    assert_send_sync::<ArrayPool>();
    assert_send::<PooledArray<'static>>();
};

/// Number of word lines (rows) in one 8KB compute SRAM array.
pub const ROWS: usize = 256;

/// Number of bit lines (columns, i.e. SIMD lanes) in one 8KB compute array.
pub const COLS: usize = 256;

/// Number of 64-bit words backing one [`BitRow`].
pub(crate) const ROW_WORDS: usize = COLS / 64;

/// Convenient alias for results returned by fallible array operations.
pub type Result<T> = std::result::Result<T, SramError>;
