//! **Neural Cache**: bit-serial in-cache acceleration of deep neural
//! networks — the core of the ISCA 2018 reproduction.
//!
//! This crate turns the substrates ([`nc_sram`] compute arrays,
//! [`nc_geometry`] cache/interconnect models, [`nc_dnn`] quantized DNNs)
//! into the paper's system:
//!
//! - [`mapping`]: the Section IV data layout — filter packing/splitting,
//!   channel round-up, array allocation, slice partitioning, serial-round
//!   scheduling;
//! - [`timing`]: the deterministic phase-resolved timing simulator behind
//!   Figures 13-15 and Table IV;
//! - [`energy`]: the chip-side energy/power model behind Table III;
//! - [`batching`]: Section IV-E batch scheduling behind Figure 16;
//! - [`cost`]: paper-published vs micro-op-derived cycle-cost models;
//! - [`isa`]: the Section IV-F instruction/FSM execution model;
//! - [`engine`]: the work-sharded execution engine (sequential or threaded
//!   backends) the simulators dispatch independent shard jobs through;
//! - [`layout`]: the named operand-row layouts of every executor shard job,
//!   shared with the `nc-verify` static plan checker;
//! - [`functional`]: the bit-accurate executor that runs layers on real
//!   [`nc_sram::ComputeArray`]s and must match the [`nc_dnn::reference`]
//!   golden model bit-for-bit;
//! - [`trace`]: exports timing reports onto [`nc_telemetry`] timelines
//!   (Perfetto-loadable via the `nc-bench` exporters), reconciling
//!   bit-exactly with the reports they mirror.
//!
//! # Quickstart
//!
//! ```
//! use neural_cache::{NeuralCache, SystemConfig};
//! use nc_dnn::inception::inception_v3;
//!
//! let system = NeuralCache::new(SystemConfig::xeon_e5_2697_v3());
//! let report = system.run_inference(&inception_v3());
//! println!("Inception v3 inference: {}", report.total());
//! let energy = system.energy(&report);
//! println!("energy: {:.3} J at {:.1} W", energy.total_j(), energy.avg_power_w());
//! # assert!(report.total().as_millis_f64() > 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![warn(clippy::pedantic)]
// Pedantic allowlist: the timing/energy models convert cycle counters and
// byte counts to f64 throughout (bounded far below 2^52); tests compare
// exact rational outputs with `==`; shard-job helpers are declared next to
// the loops that dispatch them; bytecount would add a dependency.
#![allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss,
    clippy::float_cmp,
    clippy::items_after_statements,
    clippy::naive_bytecount,
    clippy::too_many_lines
)]

pub mod batching;
mod config;
pub mod cost;
pub mod energy;
pub mod engine;
pub mod functional;
pub mod isa;
pub mod layout;
pub mod mapping;
pub mod sparsity;
pub mod timing;
pub mod trace;

pub use batching::{throughput_sweep, time_batch, BatchCostModel, BatchReport};
pub use config::SystemConfig;
pub use cost::{CostModel, CostModelKind, DerivedCostModel, PaperCostModel};
pub use energy::{energy_of, EnergyReport};
pub use engine::{ExecutionEngine, ShardObserver, ShardSample};
pub use mapping::{
    plan_model, plan_model_with, ConvMapping, LaneGeometry, LayerPlan, PoolMapping, UnitPlan,
};
pub use sparsity::{ActivationProfile, SparsityMode};
pub use timing::{
    time_inference, time_inference_with_profile, InferenceReport, LayerTiming, Phase,
    PhaseBreakdown,
};
pub use trace::trace_inference_report;

/// The Neural Cache system: a configured accelerator exposing the timing,
/// energy, batching and functional execution entry points.
#[derive(Debug, Clone, Default)]
pub struct NeuralCache {
    config: SystemConfig,
}

impl NeuralCache {
    /// Creates a system from a configuration.
    #[must_use]
    pub fn new(config: SystemConfig) -> Self {
        NeuralCache { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Plans the data layout of every layer (Section IV-A/IV-B) under the
    /// configured sparsity mode, so the returned mappings carry the same
    /// skip fractions the timing entry points use.
    #[must_use]
    pub fn plan(&self, model: &nc_dnn::Model) -> Vec<LayerPlan> {
        plan_model_with(model, &self.config.geometry, self.config.sparsity)
    }

    /// Times one inference (batch size 1).
    #[must_use]
    pub fn run_inference(&self, model: &nc_dnn::Model) -> InferenceReport {
        time_inference(&self.config, model)
    }

    /// Times a batch of inferences (Section IV-E).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn run_batch(&self, model: &nc_dnn::Model, batch: usize) -> BatchReport {
        time_batch(&self.config, model, batch)
    }

    /// Plans `model` once and returns the reusable batch costing the
    /// serving stack (`nc-serve`) prices dynamic batches with.
    #[must_use]
    pub fn batch_cost_model(&self, model: &nc_dnn::Model) -> BatchCostModel {
        BatchCostModel::new(&self.config, model)
    }

    /// Energy/power of a timed inference (Table III).
    #[must_use]
    pub fn energy(&self, report: &InferenceReport) -> EnergyReport {
        energy_of(&self.config, report)
    }

    /// Runs a model bit-accurately on simulated compute arrays and returns
    /// the output tensor (must match the [`nc_dnn::reference`] executor).
    /// Shard jobs run on the engine selected by
    /// [`SystemConfig::parallelism`] and rounds are elided per
    /// [`SystemConfig::sparsity`]; the output is identical under every
    /// combination.
    ///
    /// # Errors
    ///
    /// Returns an error if a sub-layer lacks weights or an internal SRAM
    /// operation is rejected.
    pub fn run_functional(
        &self,
        model: &nc_dnn::Model,
        input: &nc_dnn::QTensor,
    ) -> Result<functional::FunctionalResult, functional::FunctionalError> {
        functional::run_model_configured(
            model,
            input,
            self.config.parallelism,
            self.config.sparsity,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_dnn::inception::inception_v3;

    #[test]
    fn system_facade_end_to_end() {
        let system = NeuralCache::new(SystemConfig::xeon_e5_2697_v3());
        let model = inception_v3();
        let report = system.run_inference(&model);
        assert_eq!(report.layers.len(), 20);
        let energy = system.energy(&report);
        assert!(energy.total_j() > 0.0);
        let batch = system.run_batch(&model, 4);
        assert!(batch.throughput_ips > 0.0);
        assert_eq!(system.plan(&model).len(), 20);
    }

    #[test]
    fn parallel_config_matches_sequential_reports() {
        // The parallelism knob changes host wall-clock only: simulated
        // timing reports must be identical.
        let model = inception_v3();
        let seq = NeuralCache::new(SystemConfig::xeon_e5_2697_v3()).run_inference(&model);
        let par = NeuralCache::new(SystemConfig::with_parallelism(4)).run_inference(&model);
        assert_eq!(seq, par);
    }
}
