//! Facade crate for the Neural Cache (ISCA 2018) reproduction workspace.
//!
//! This crate re-exports the member crates so the runnable examples under
//! `examples/` and the integration tests under `tests/` can address the whole
//! system through one import. Library users should depend on the individual
//! crates directly:
//!
//! - [`sram`] (`nc-sram`): the bit-line computing SRAM array substrate,
//! - [`geometry`] (`nc-geometry`): cache geometry, interconnect and DRAM models,
//! - [`dnn`] (`nc-dnn`): quantized DNN layers, reference executor, Inception v3,
//! - [`cache`] (`neural-cache`): the Neural Cache mapping + execution engine,
//!   and the table of the paper's published numbers (`cache::paper`),
//! - [`serve`] (`nc-serve`): the discrete-event serving simulator (Poisson
//!   traces, SLO-adaptive batching, latency SLOs),
//! - [`verify`] (`nc-verify`): the static plan verifier (hazard checks,
//!   operand-layout lints, three-way cycle reconciliation),
//! - [`telemetry`] (`nc-telemetry`): simulated-time tracing, the metrics
//!   registry, and the Perfetto-loadable trace exporters.
//!
//! # Examples
//!
//! ```
//! use neural_cache_repro::cache::{NeuralCache, SystemConfig};
//! use neural_cache_repro::dnn::inception::inception_v3;
//!
//! let system = NeuralCache::new(SystemConfig::xeon_e5_2697_v3());
//! let report = system.run_inference(&inception_v3());
//! assert!(report.total().as_millis_f64() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::pedantic)]

pub use nc_dnn as dnn;
pub use nc_geometry as geometry;
pub use nc_serve as serve;
pub use nc_sram as sram;
pub use nc_telemetry as telemetry;
pub use nc_verify as verify;
pub use neural_cache as cache;
