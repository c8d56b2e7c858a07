//! The executed sparsity comparisons behind the `run_all` sparsity and
//! activation-sparsity artifacts: dense vs `SkipZeroRows` on the pruned
//! workloads, and dense vs the dynamic `SkipBoth` mode on ReLU-sparse
//! inputs. Every comparison also *verifies* its invariant: the skipping
//! runs must be bit-identical to dense with their executed skip fractions
//! agreeing with the `sparsity::analyze` / `activation_profile`
//! predictions, and `run_all` fails when one does not ([`crate::gate`]).
//! Host wall time is measured by the `perfbench` benchmark,
//! not here.

use nc_dnn::workload::{
    pruned_conv_model, pruned_inception, random_input, relu_sparse_conv_model, relu_sparse_input,
    relu_sparse_mini,
};
use nc_dnn::{Model, QTensor};
use neural_cache::functional::{run_model_configured, FunctionalResult};
use neural_cache::sparsity::activation_profile;
use neural_cache::{
    time_inference, time_inference_with_profile, ExecutionEngine, SparsityMode, SystemConfig,
};

/// Dense-vs-SkipZeroRows comparison of one pruned workload: simulated
/// cycles and the predicted-vs-executed skip cross-check.
#[derive(Debug, Clone)]
pub struct SparsityComparison {
    /// Workload name.
    pub name: String,
    /// Simulated compute cycles of the dense functional run.
    pub dense_compute_cycles: u64,
    /// Simulated compute cycles of the skipping functional run.
    pub sparse_compute_cycles: u64,
    /// Simulated MAC-phase cycles of the timing model, dense mode.
    pub timing_mac_cycles_dense: u64,
    /// Simulated MAC-phase cycles of the timing model, skipping mode
    /// (each array skips its own all-lanes-zero rounds).
    pub timing_mac_cycles_sparse: u64,
    /// Multiplier-bit rounds scheduled by the skipping run.
    pub mul_rounds: u64,
    /// Rounds the skipping run elided.
    pub skipped_rounds: u64,
    /// `skipped_rounds / mul_rounds`.
    pub executed_skip_fraction: f64,
    /// `sparsity::analyze` prediction on the mapper's lane packing.
    pub predicted_skip_fraction: f64,
    /// Whether skipping reproduced the dense bytes and records exactly.
    pub bit_identical: bool,
}

impl SparsityComparison {
    /// Tolerance on the predicted-vs-executed agreement: the analysis
    /// weights sub-layers by executed rounds (per-window rounds times
    /// output windows), so both fractions are ratios of the same integer
    /// counts and must agree to floating-point exactness on any model.
    pub const SKIP_FRACTION_TOLERANCE: f64 = 1e-9;

    /// Simulated compute-cycle speedup of skipping (functional executor).
    #[must_use]
    pub fn cycle_speedup(&self) -> f64 {
        self.dense_compute_cycles as f64 / self.sparse_compute_cycles as f64
    }

    /// Simulated MAC-phase speedup of skipping (timing model).
    #[must_use]
    pub fn mac_speedup(&self) -> f64 {
        self.timing_mac_cycles_dense as f64 / self.timing_mac_cycles_sparse as f64
    }

    /// The acceptance gate: bit identity plus skip-fraction agreement.
    #[must_use]
    pub fn verified(&self) -> bool {
        self.bit_identical
            && (self.executed_skip_fraction - self.predicted_skip_fraction).abs()
                <= Self::SKIP_FRACTION_TOLERANCE
    }
}

fn pruned_workloads() -> Vec<(String, Model, QTensor)> {
    let pruned = pruned_inception(2018);
    let pruned_input = random_input(pruned.input_shape, pruned.input_quant, 7);
    let single = pruned_conv_model(2018);
    let single_input = random_input(single.input_shape, single.input_quant, 8);
    vec![
        ("pruned_inception".to_owned(), pruned, pruned_input),
        ("pruned_conv_crosscheck".to_owned(), single, single_input),
    ]
}

/// MAC cycles of the deterministic timing model under `mode`.
fn timing_mac_cycles(model: &Model, mode: SparsityMode) -> u64 {
    let config = SystemConfig::with_sparsity(mode);
    let report = time_inference(&config, model);
    report.layers.iter().map(|l| l.mac_cycles).sum()
}

/// One sequential functional run of `model` under `mode`.
fn run_mode(model: &Model, input: &QTensor, mode: SparsityMode) -> FunctionalResult {
    run_model_configured(model, input, ExecutionEngine::Sequential, mode).expect("functional run")
}

/// Runs the pruned workloads densely and with round skipping, verifying
/// bit identity and the analytical skip prediction against the executed
/// counters.
#[must_use]
pub fn compare_sparsity() -> Vec<SparsityComparison> {
    pruned_workloads()
        .into_iter()
        .map(|(name, model, input)| {
            let dense = run_mode(&model, &input, SparsityMode::Dense);
            let sparse = run_mode(&model, &input, SparsityMode::SkipZeroRows);
            let predicted = neural_cache::sparsity::analyze(&model).simd_skip();
            SparsityComparison {
                name,
                dense_compute_cycles: dense.cycles.compute_cycles,
                sparse_compute_cycles: sparse.cycles.compute_cycles,
                timing_mac_cycles_dense: timing_mac_cycles(&model, SparsityMode::Dense),
                timing_mac_cycles_sparse: timing_mac_cycles(&model, SparsityMode::SkipZeroRows),
                mul_rounds: sparse.cycles.mul_rounds,
                skipped_rounds: sparse.cycles.skipped_rounds,
                executed_skip_fraction: sparse.cycles.skip_fraction(),
                predicted_skip_fraction: predicted,
                bit_identical: dense.output.data() == sparse.output.data()
                    && dense.sublayers == sparse.sublayers,
            }
        })
        .collect()
}

/// What a dynamic-sparsity workload is expected to demonstrate — the two
/// sides of the detect-overhead break-even.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationExpectation {
    /// ReLU-sparse activations: the elided rounds must repay the 1-cycle
    /// per-round detect with room to spare — a **net** MAC-phase speedup.
    NetSpeedup,
    /// Dense activations: almost nothing skips, so the detect charge must
    /// show up as a MAC-phase *slowdown* (the break-even's other side).
    Overhead,
}

/// Dense-vs-dynamic comparison of one workload under `SkipBoth`:
/// functional cycles and counters, the `activation_profile` cross-check,
/// and the timing-model MAC phase priced with the measured profile.
#[derive(Debug, Clone)]
pub struct ActivationComparison {
    /// Workload name.
    pub name: String,
    /// Which break-even side this workload demonstrates.
    pub expectation: ActivationExpectation,
    /// Simulated compute cycles of the dense functional run.
    pub dense_compute_cycles: u64,
    /// Simulated compute cycles under `SkipBoth` (detects included).
    pub both_compute_cycles: u64,
    /// Wired-NOR detect cycles the `SkipBoth` run charged.
    pub detect_cycles: u64,
    /// Multiplier-bit rounds scheduled.
    pub mul_rounds: u64,
    /// Input-bit rounds the detect elided.
    pub input_rounds_skipped: u64,
    /// `input_rounds_skipped / mul_rounds`.
    pub executed_input_skip_fraction: f64,
    /// `sparsity::activation_profile` prediction on the same input.
    pub predicted_input_skip_fraction: f64,
    /// Timing-model MAC cycles, dense mode.
    pub timing_mac_cycles_dense: u64,
    /// Timing-model MAC cycles, `SkipBoth` with the measured profile
    /// applied (detect overhead charged).
    pub timing_mac_cycles_both: u64,
    /// Whether `SkipBoth` reproduced the dense bytes and records.
    pub bit_identical: bool,
}

impl ActivationComparison {
    /// Simulated compute-cycle speedup of `SkipBoth` over dense in the
    /// functional executor (below 1.0 when detects outweigh skips).
    #[must_use]
    pub fn cycle_speedup(&self) -> f64 {
        self.dense_compute_cycles as f64 / self.both_compute_cycles as f64
    }

    /// Net timing-model MAC-phase speedup of `SkipBoth`, detect overhead
    /// included.
    #[must_use]
    pub fn mac_speedup(&self) -> f64 {
        self.timing_mac_cycles_dense as f64 / self.timing_mac_cycles_both as f64
    }

    /// The acceptance gate: bit identity, exact predicted-vs-executed
    /// agreement, one detect per scheduled round, and the workload's
    /// break-even expectation (net speedup for ReLU-sparse activations,
    /// visible overhead for dense ones).
    #[must_use]
    pub fn verified(&self) -> bool {
        let exact = (self.executed_input_skip_fraction - self.predicted_input_skip_fraction).abs()
            <= SparsityComparison::SKIP_FRACTION_TOLERANCE;
        let detect_per_round = self.detect_cycles == self.mul_rounds;
        let expectation = match self.expectation {
            ActivationExpectation::NetSpeedup => self.mac_speedup() > 1.0,
            ActivationExpectation::Overhead => {
                self.timing_mac_cycles_both > self.timing_mac_cycles_dense
            }
        };
        self.bit_identical && exact && detect_per_round && expectation
    }
}

fn activation_workloads() -> Vec<(String, ActivationExpectation, Model, QTensor)> {
    // ReLU-sparse single conv: 70% exact zeros, low-magnitude survivors —
    // the regime the tag-latch detect exists for.
    let conv = relu_sparse_conv_model(2018);
    let sparse_in = relu_sparse_input(conv.input_shape, 0.7, 2, 7);
    // The same conv fed fully dense activations: the break-even's far side
    // (VALID padding, so no padding zeros rescue it).
    let dense_in = relu_sparse_input(conv.input_shape, 0.0, 8, 7);
    // Multi-layer: mini-Inception consuming a ReLU-sparse input; interior
    // activations re-densify, so this measures the whole-network blend.
    let mini = relu_sparse_mini(2018);
    let mini_in = relu_sparse_input(mini.input_shape, 0.6, 3, 8);
    vec![
        (
            "relu_sparse_conv".to_owned(),
            ActivationExpectation::NetSpeedup,
            conv.clone(),
            sparse_in,
        ),
        (
            "dense_acts_break_even".to_owned(),
            ActivationExpectation::Overhead,
            conv,
            dense_in,
        ),
        (
            "relu_sparse_mini".to_owned(),
            ActivationExpectation::NetSpeedup,
            mini,
            mini_in,
        ),
    ]
}

/// Timing-model MAC cycles of `model` under `SkipBoth`, priced for the
/// measured activation `profile` of one input.
fn timing_mac_cycles_profiled(model: &Model, profile: &neural_cache::ActivationProfile) -> u64 {
    let config = SystemConfig::with_sparsity(SparsityMode::SkipBoth);
    let report = time_inference_with_profile(&config, model, profile);
    report.layers.iter().map(|l| l.mac_cycles).sum()
}

/// Runs the dynamic-sparsity workloads densely and under `SkipBoth`,
/// verifying bit identity, the per-round detect charge, and the
/// `activation_profile` prediction against the executed counters.
#[must_use]
pub fn compare_activation_sparsity() -> Vec<ActivationComparison> {
    activation_workloads()
        .into_iter()
        .map(|(name, expectation, model, input)| {
            let dense = run_mode(&model, &input, SparsityMode::Dense);
            let both = run_mode(&model, &input, SparsityMode::SkipBoth);
            let profile = activation_profile(&model, &input);
            ActivationComparison {
                name,
                expectation,
                dense_compute_cycles: dense.cycles.compute_cycles,
                both_compute_cycles: both.cycles.compute_cycles,
                detect_cycles: both.cycles.detect_cycles,
                mul_rounds: both.cycles.mul_rounds,
                input_rounds_skipped: both.cycles.input_rounds_skipped,
                executed_input_skip_fraction: both.cycles.input_skip_fraction(),
                predicted_input_skip_fraction: profile.input_skip(),
                timing_mac_cycles_dense: timing_mac_cycles(&model, SparsityMode::Dense),
                timing_mac_cycles_both: timing_mac_cycles_profiled(&model, &profile),
                bit_identical: dense.output.data() == both.output.data()
                    && dense.sublayers == both.sublayers,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparsity_comparisons_verify_and_render() {
        let comps = compare_sparsity();
        assert_eq!(comps.len(), 2);
        for s in &comps {
            assert!(s.verified(), "{} failed verification", s.name);
            assert!(s.bit_identical, "{} diverged from dense", s.name);
            assert!(s.skipped_rounds > 0, "{} elided nothing", s.name);
            assert!(
                s.cycle_speedup() > 1.2,
                "{}: compute-cycle speedup {:.2}",
                s.name,
                s.cycle_speedup()
            );
            assert!(
                s.mac_speedup() >= 1.3,
                "{}: simulated MAC speedup {:.2} below the pruned target",
                s.name,
                s.mac_speedup()
            );
        }
        for s in &comps {
            assert!(
                (s.executed_skip_fraction - s.predicted_skip_fraction).abs() < 1e-12,
                "{}: predicted-vs-executed must agree exactly (round-weighted analysis)",
                s.name
            );
        }

        let text = crate::sparsity(&comps);
        assert!(text.contains("SkipZeroRows execution"));
        for s in &comps {
            assert!(
                text.contains(&s.name),
                "{} missing from the artifact",
                s.name
            );
        }
        assert!(!text.contains("bit-identical: false"));
    }

    #[test]
    fn activation_comparisons_verify_and_render() {
        let comps = compare_activation_sparsity();
        assert_eq!(comps.len(), 3);
        for a in &comps {
            assert!(a.verified(), "{} failed verification", a.name);
            assert!(a.bit_identical, "{} diverged from dense", a.name);
            assert_eq!(a.detect_cycles, a.mul_rounds, "{}", a.name);
        }
        let sparse = comps
            .iter()
            .find(|a| a.name == "relu_sparse_conv")
            .expect("relu workload present");
        assert!(
            sparse.mac_speedup() > 1.3,
            "ReLU-sparse net MAC speedup {:.2} after detect overhead",
            sparse.mac_speedup()
        );
        assert!(sparse.input_rounds_skipped > 0);
        assert!(sparse.cycle_speedup() > 1.0);
        let dense = comps
            .iter()
            .find(|a| a.name == "dense_acts_break_even")
            .expect("break-even workload present");
        assert!(
            dense.mac_speedup() < 1.0,
            "dense activations must show the detect overhead: {:.3}",
            dense.mac_speedup()
        );
        assert!(
            dense.executed_input_skip_fraction < 0.05,
            "dense activations barely skip"
        );

        let text = crate::activation_sparsity(&comps);
        assert!(text.contains("relu_sparse_conv"));
        assert!(text.contains("dense_acts_break_even"));
        assert!(text.contains("net MAC"));
        assert!(!text.contains("bit-identical: false"));
    }
}
