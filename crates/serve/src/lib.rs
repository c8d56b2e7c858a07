//! **nc-serve**: a deterministic discrete-event serving simulator that
//! drives the Neural Cache batch-timing model under Poisson load. It asks
//! how the paper's fixed-batch *throughput* result (604 inferences/s on
//! Inception v3 at batch 256, Section IV-E / Figure 16) behaves once
//! requests arrive over time instead of as one fixed batch.
//!
//! The pipeline:
//!
//! 1. [`trace`]: seeded open-loop **Poisson arrival traces**, each request
//!    carrying a traffic class drawn from a [`TrafficClass`] mix;
//! 2. [`batcher`]: an admission queue feeding the **SLO-adaptive batcher**
//!    ([`adaptive_batch`]), costed through the plan-once
//!    [`neural_cache::BatchCostModel`];
//! 3. [`sim`]: a **multi-slice scheduler** dispatching formed batches onto
//!    independent cache slices (each pays the one-time filter load on its
//!    first batch, Section IV-E) with per-slice utilization tracking;
//! 4. [`metrics`]: p50/p95/p99 latency, queue depth over time, goodput vs
//!    offered load, and per-class SLO violation rates, plus the
//!    conservation invariants (`admitted = completed + dropped + pending`,
//!    goodput ≤ offered load) the simulator's tests check.
//!
//! Everything is deterministic: identical seeds give byte-identical
//! [`ServingTrace`] logs. The simulator runs on the calling thread and
//! reads no [`neural_cache::ExecutionEngine`]; that knob selects the engine
//! of the functional executor only.
//!
//! # Quickstart
//!
//! ```
//! use nc_serve::{simulate, ServeConfig, TraceConfig};
//! use nc_dnn::inception::inception_v3;
//!
//! let config = ServeConfig::default_two_slice();
//! let trace = TraceConfig::poisson(400.0, 64, 2018);
//! let out = simulate(&config, &inception_v3(), &trace);
//! assert_eq!(out.summary.admitted, 64);
//! assert!(out.summary.conservation_holds());
//! println!("p99 = {:.2} ms at {:.0} rps goodput",
//!          out.summary.p99_ms, out.summary.goodput_rps);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![warn(clippy::pedantic)]
// Pedantic allowlist: the event loop converts tick counters to f64 metrics
// (bounded far below 2^52) and is one long, linear state machine; tests
// compare exact rational outputs with `==`.
#![allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::float_cmp,
    clippy::too_many_lines
)]

pub mod batcher;
pub mod metrics;
pub mod sim;
pub mod trace;

pub use batcher::adaptive_batch;
pub use metrics::{percentile, Completion, MetricsCollector, ServingSummary};
pub use sim::{simulate, simulate_traced, ServeConfig, ServingOutcome, ServingTrace, TraceEvent};
pub use trace::{default_traffic_mix, draw_class, Request, TraceConfig, TrafficClass};
