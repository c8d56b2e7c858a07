//! System configuration: geometry + interconnect + DRAM + array constants +
//! cost model, bundled for the simulators.

use nc_geometry::{CacheGeometry, DramModel, InterconnectModel};
use nc_sram::{ArrayEnergy, ArrayTimings};

use crate::cost::CostModelKind;
use crate::engine::ExecutionEngine;
use crate::sparsity::SparsityMode;

/// Full configuration of a Neural Cache system.
///
/// # Examples
///
/// ```
/// use neural_cache::SystemConfig;
///
/// let config = SystemConfig::xeon_e5_2697_v3();
/// assert_eq!(config.geometry.slices, 14);
/// assert_eq!(config.sockets, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Cache geometry (slices/ways/banks/arrays).
    pub geometry: CacheGeometry,
    /// Ring and intra-slice bus model.
    pub interconnect: InterconnectModel,
    /// DRAM stream model for filter loads and batch dumps.
    pub dram: DramModel,
    /// Array timing constants (2.5 GHz compute clock).
    pub timings: ArrayTimings,
    /// Array energy constants (22 nm scaled).
    pub array_energy: ArrayEnergy,
    /// Cycle-cost model used by the timing simulator.
    pub cost: CostModelKind,
    /// Host sockets; Neural Cache throughput scales linearly with sockets
    /// (Section VI-B; the paper's platform is dual-socket).
    pub sockets: usize,
    /// Execution engine the functional executor's shard jobs run on
    /// ([`crate::NeuralCache::run_functional`]): [`ExecutionEngine::Sequential`]
    /// or a threaded backend. Both produce bit-identical results; this knob
    /// only changes host wall-clock time, never simulated time or outputs.
    pub parallelism: ExecutionEngine,
    /// Sparsity execution mode: [`SparsityMode::SkipZeroRows`] elides
    /// all-lanes-zero **weight**-bit rounds for free (stationary filters);
    /// [`SparsityMode::SkipBoth`] elides **input**-bit rounds behind a
    /// 1-cycle wired-NOR zero-detect per round (activations are dynamic,
    /// so skips must be re-measured per input — see
    /// `sparsity::activation_profile`) and truncates executed rounds to the
    /// live weight width. Outputs stay bit-identical to
    /// [`SparsityMode::Dense`] under every mode.
    pub sparsity: SparsityMode,
}

impl SystemConfig {
    /// The paper's evaluation system: dual-socket Xeon E5-2697 v3, 35 MB
    /// LLC per socket, paper-published cost constants.
    #[must_use]
    pub fn xeon_e5_2697_v3() -> Self {
        SystemConfig {
            geometry: CacheGeometry::xeon_e5_2697_v3(),
            interconnect: InterconnectModel::paper(),
            dram: DramModel::paper_calibrated(),
            timings: ArrayTimings::paper(),
            array_energy: ArrayEnergy::node_22nm(),
            cost: CostModelKind::Paper,
            sockets: 2,
            parallelism: ExecutionEngine::Sequential,
            sparsity: SparsityMode::Dense,
        }
    }

    /// Same system with a scaled LLC capacity (Table IV: 35/45/60 MB).
    ///
    /// # Panics
    ///
    /// Panics for capacities that are not a multiple of the 2.5 MB slice.
    #[must_use]
    pub fn with_capacity_mb(mb: usize) -> Self {
        SystemConfig {
            geometry: CacheGeometry::with_capacity_mb(mb),
            ..SystemConfig::xeon_e5_2697_v3()
        }
    }

    /// Same system with a threaded functional-executor backend (`0`/`1`
    /// threads fall back to sequential).
    #[must_use]
    pub fn with_parallelism(threads: usize) -> Self {
        SystemConfig {
            parallelism: ExecutionEngine::from_threads(threads),
            ..SystemConfig::xeon_e5_2697_v3()
        }
    }

    /// Same system with an explicit weight-sparsity execution mode.
    #[must_use]
    pub fn with_sparsity(mode: SparsityMode) -> Self {
        SystemConfig {
            sparsity: mode,
            ..SystemConfig::xeon_e5_2697_v3()
        }
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::xeon_e5_2697_v3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let c = SystemConfig::xeon_e5_2697_v3();
        assert_eq!(c.geometry.alu_slots(), 1_146_880);
        assert_eq!(c.cost, CostModelKind::Paper);
        let c60 = SystemConfig::with_capacity_mb(60);
        assert_eq!(c60.geometry.slices, 24);
        assert_eq!(c60.sockets, 2);
        assert_eq!(SystemConfig::default(), SystemConfig::xeon_e5_2697_v3());
        assert_eq!(c.parallelism, ExecutionEngine::Sequential);
        let c4 = SystemConfig::with_parallelism(4);
        assert_eq!(c4.parallelism, ExecutionEngine::Threaded { threads: 4 });
        assert_eq!(c4.geometry, c.geometry);
        assert_eq!(
            SystemConfig::with_parallelism(1).parallelism,
            ExecutionEngine::Sequential
        );
        assert_eq!(c.sparsity, SparsityMode::Dense, "dense by default");
        let sparse = SystemConfig::with_sparsity(SparsityMode::SkipZeroRows);
        assert_eq!(sparse.sparsity, SparsityMode::SkipZeroRows);
        assert_eq!(sparse.geometry, c.geometry);
    }
}
