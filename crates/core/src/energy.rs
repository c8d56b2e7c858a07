//! System energy and power model (Table III).
//!
//! Energy is accounted chip-side, matching the paper's RAPL-package scope
//! (Section V): dynamic array energy (15.4 pJ per active-array compute
//! cycle, 8.6 pJ per access cycle at 22 nm), interconnect wire energy, and
//! a calibrated background power covering uncore, clocking and leakage of
//! the idle structures. DRAM device energy is excluded, as in the paper's
//! measurement scope.

use nc_geometry::SimTime;

use crate::config::SystemConfig;
use crate::timing::InferenceReport;

/// Background (non-array) power while Neural Cache computes: ring/uncore
/// clocks, leakage of tag/LRU/control structures and the reserved ways.
/// Calibrated so the Inception v3 average power lands at the paper's
/// 52.92 W (Table III).
pub const BACKGROUND_WATTS: f64 = 15.0;

/// Energy/power results for one inference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Dynamic energy of compute cycles in active arrays, joules.
    pub compute_j: f64,
    /// Dynamic energy of array access cycles (streaming), joules.
    pub access_j: f64,
    /// Interconnect (bus + ring) wire energy, joules.
    pub interconnect_j: f64,
    /// Background energy (power x latency), joules.
    pub background_j: f64,
    /// Inference latency used for power.
    pub latency: SimTime,
}

impl EnergyReport {
    /// Total energy, joules.
    #[must_use]
    pub fn total_j(&self) -> f64 {
        self.compute_j + self.access_j + self.interconnect_j + self.background_j
    }

    /// Average power over the inference, watts.
    #[must_use]
    pub fn avg_power_w(&self) -> f64 {
        self.total_j() / self.latency.as_secs_f64()
    }

    /// Energy-delay product, joule-seconds (Section VI-C).
    #[must_use]
    pub fn edp(&self) -> f64 {
        self.total_j() * self.latency.as_secs_f64()
    }
}

/// Computes the energy of a timed inference.
#[must_use]
pub fn energy_of(config: &SystemConfig, report: &InferenceReport) -> EnergyReport {
    let compute_arrays = config.geometry.compute_arrays() as f64;
    let e = config.array_energy;

    let mut compute_j = 0.0;
    let mut access_j = 0.0;
    let mut interconnect_j = 0.0;
    for layer in &report.layers {
        // Compute cycles execute in every active array simultaneously.
        let active = compute_arrays * layer.active_fraction;
        compute_j += layer.compute_cycles as f64 * active * e.compute_cycle_pj * 1e-12;
        // Streaming: one 256-bit array access moves 32 bytes.
        let access_cycles = (layer.streamed_bytes as f64 / 32.0).ceil();
        access_j += access_cycles * e.access_cycle_pj * 1e-12;
        interconnect_j += config.interconnect.bus_energy_joules(layer.streamed_bytes)
            + config.interconnect.ring_energy_joules(layer.dram_bytes);
    }

    let latency = report.total();
    EnergyReport {
        compute_j,
        access_j,
        interconnect_j,
        background_j: BACKGROUND_WATTS * latency.as_secs_f64(),
        latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::time_inference;
    use nc_dnn::inception::inception_v3;

    fn report() -> EnergyReport {
        let config = SystemConfig::xeon_e5_2697_v3();
        let timing = time_inference(&config, &inception_v3());
        energy_of(&config, &timing)
    }

    #[test]
    fn total_energy_in_paper_ballpark() {
        // Table III: Neural Cache inference energy 0.246 J.
        let e = report();
        let total = e.total_j();
        assert!((0.1..0.5).contains(&total), "got {total:.3} J");
    }

    #[test]
    fn average_power_near_53_w() {
        // Table III: 52.92 W average power.
        let p = report().avg_power_w();
        assert!((35.0..75.0).contains(&p), "got {p:.1} W");
    }

    #[test]
    fn compute_energy_dominates_dynamic_energy() {
        let e = report();
        assert!(e.compute_j > e.access_j);
        assert!(e.compute_j > e.interconnect_j);
    }

    #[test]
    fn edp_is_energy_times_delay() {
        let e = report();
        let expect = e.total_j() * e.latency.as_secs_f64();
        assert!((e.edp() - expect).abs() < 1e-12);
    }
}
