//! Cache geometry, interconnect, and DRAM stream models for the Neural
//! Cache (ISCA 2018) reproduction.
//!
//! The paper models the last-level cache (LLC) of the Intel Xeon E5-2697 v3:
//! 14 slices of 2.5 MB, each slice holding 20 ways of 4 x 32KB banks, each
//! bank two 16KB sub-arrays of two 8KB SRAM arrays (Figure 3). Re-purposing
//! the 4480 8KB arrays yields 1,146,880 bit-line ALU slots.
//!
//! This crate provides:
//!
//! - [`CacheGeometry`]: the slice/way/bank/array hierarchy with the paper's
//!   presets (35/45/60 MB) and derived quantities (array counts, ALU slots,
//!   compute capacity);
//! - [`InterconnectModel`]: deterministic transfer-time calculators for the
//!   bidirectional inter-slice ring and the intra-slice 256-bit data bus
//!   (4 x 64-bit quadrant buses, per-bank 64-bit input latches);
//! - [`DramModel`]: the effective-bandwidth stream model substituted for the
//!   paper's measured C micro-benchmark (Section V);
//! - [`SimTime`]: seconds newtype shared by all timing results.
//!
//! # Example
//!
//! ```
//! use nc_geometry::CacheGeometry;
//!
//! let xeon = CacheGeometry::xeon_e5_2697_v3();
//! assert_eq!(xeon.total_arrays(), 4480);
//! assert_eq!(xeon.alu_slots(), 1_146_880);
//! assert_eq!(xeon.capacity_bytes(), 35 << 20);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![warn(clippy::pedantic)]
// Pedantic allowlist: geometry math moves between usize/u64/f64 freely
// (values are bounded far below 2^52), and the SimTime tests compare exact
// rational results with `==` on purpose.
#![allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::float_cmp
)]

mod dram;
mod geometry;
mod interconnect;
mod time;

pub use dram::DramModel;
pub use geometry::CacheGeometry;
pub use interconnect::InterconnectModel;
pub use time::SimTime;
