//! Quantized DNN substrate for the Neural Cache (ISCA 2018) reproduction.
//!
//! Neural Cache executes 8-bit quantized CNN inference. This crate provides
//! everything the accelerator model needs from the "ML framework" side,
//! built from scratch:
//!
//! - [`Shape`]/[`QTensor`]: NHWC activation tensors quantized to `u8` with
//!   affine (scale, zero-point) parameters;
//! - [`quant`]: the exact integer arithmetic specification shared by the
//!   reference executor and the in-cache functional executor — zero-point
//!   corrected accumulation, dynamic per-layer min/max ranging, and the
//!   multiplier/shift requantization pipeline of Section IV-D;
//! - [`layer`]: convolution / pooling / fully-connected / Inception mixed
//!   blocks, assembled into a [`Model`];
//! - [`graph`]: the one shape walk, [`Model::validate`], which returns the
//!   [`ModelGraph`] of sub-layers every shape-only view iterates, or a
//!   [`ModelError`] naming the offending layer or sub-layer;
//! - [`reference`](mod@crate::reference): the layer walk and requantization
//!   policy every executor shares, and a plain-Rust integer executor on it
//!   (the golden model — our substitute for the instrumented TensorFlow
//!   traces of Section V);
//! - [`inception`]: the complete Inception v3 graph (20 top-level layers,
//!   94 convolution sub-layers) with seeded synthetic weights;
//! - [`summary`]: Table I derivation (layer parameters, convolution counts,
//!   filter/input megabytes).
//!
//! # Example
//!
//! ```
//! use nc_dnn::inception::inception_v3;
//! use nc_dnn::summary::table1;
//!
//! let model = inception_v3();
//! let rows = table1(&model);
//! assert_eq!(rows.len(), 20);
//! assert_eq!(rows[0].convolutions, 710_432); // Conv2D 1a, as printed in Table I
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![warn(clippy::pedantic)]
// Pedantic allowlist: quantized arithmetic converts between integer widths
// and f64 by design (the casts *are* the quantization spec); the workload
// builders are long but linear; bytecount would add a dependency for a
// cold path.
#![allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss,
    clippy::naive_bytecount,
    clippy::too_many_lines
)]

pub mod graph;
pub mod inception;
pub mod layer;
pub mod quant;
pub mod reference;
mod shape;
pub mod summary;
mod tensor;
pub mod workload;

pub use graph::{ModelError, ModelGraph};
pub use layer::{Branch, BranchOp, Conv2d, ConvSpec, Layer, MixedBlock, Model, Pool2d, PoolKind};
pub use quant::{ActQuant, Requantizer, WeightQuant};
pub use shape::{conv_out_dim, pad_before, pad_total, Padding, Shape};
pub use tensor::{AccTensor, QTensor};
