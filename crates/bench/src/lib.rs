//! Benchmark harness for the Neural Cache (ISCA 2018) reproduction: one
//! function per table/figure of the paper's evaluation, each returning the
//! regenerated artifact as formatted text (the `src/bin/*` binaries print
//! them; integration tests smoke-check them). Every artifact reports
//! simulated numbers only; the simulator's host wall time is measured by the
//! `perfbench` benchmark.
//!
//! | Artifact | Function | Binary |
//! |---|---|---|
//! | Table I | [`table1`] | `table1_layers` |
//! | Table II | [`table2`] | `table2_baselines` |
//! | Table III | [`table3`] | `table3_energy` |
//! | Table IV | [`table4`] | `table4_capacity` |
//! | Figure 2 | [`fig2`] | `fig2_bitline_ops` |
//! | Figures 4-6 | [`fig4_6`] | `fig4_6_arithmetic` |
//! | Figure 12 | [`fig12`] | `fig12_area` |
//! | Figure 13 | [`fig13`] | `fig13_layer_latency` |
//! | Figure 14 | [`fig14`] | `fig14_breakdown` |
//! | Figure 15 | [`fig15`] | `fig15_total_latency` |
//! | Figure 16 | [`fig16`] | `fig16_throughput` |
//! | §I/III headlines | [`headlines`] | `headline_numbers` |

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::pedantic)]
// Pedantic allowlist: speedup ratios convert cycle counters to f64
// (bounded far below 2^52); gate helpers panic by design on malformed
// expectations; artifact renderers import helpers next to their use.
#![allow(
    clippy::cast_precision_loss,
    clippy::items_after_statements,
    clippy::many_single_char_names,
    clippy::missing_panics_doc,
    clippy::too_many_lines
)]

pub mod perf;
pub mod serving;
pub mod telemetry;

use std::fmt::Write as _;
use std::sync::Once;

use nc_baselines::{cpu_xeon_e5, gpu_titan_xp, PlatformConfig};
use nc_dnn::inception::inception_v3;
use nc_sram::area::AreaModel;
use nc_sram::{ComputeArray, Operand, SramArray};
use neural_cache::{energy_of, throughput_sweep, time_inference, NeuralCache, Phase, SystemConfig};

/// Returns the value following `flag` in `args` (the shared CLI
/// convention of every artifact binary).
#[must_use]
pub fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Static pre-flight every artifact binary runs before printing numbers:
/// full plan verification — operand layouts, hazard checks, cycle
/// reconciliation, and value-range certification
/// (`nc_verify::check_model`) — on the canary workload. Shape-only and
/// cheap (nothing executes), and it guarantees no artifact is ever
/// rendered from an unsound plan. Runs at most once per process.
///
/// # Panics
///
/// Panics with the full report when any diagnostic fires.
pub fn verify_prepass() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let report = nc_verify::check_model(
            &SystemConfig::xeon_e5_2697_v3(),
            &nc_dnn::workload::tiny_cnn(42),
        );
        assert!(report.is_clean(), "verify pre-pass failed:\n{report}");
    });
}

/// Entry point shared by the single-artifact binaries: run the
/// [`verify_prepass`], then print the rendered artifact.
pub fn emit_artifact(render: fn() -> String) {
    verify_prepass();
    print!("{}", render());
    telemetry::emit_canary_artifacts();
}

/// Table I — Inception v3 layer parameters, derived from our graph.
#[must_use]
pub fn table1() -> String {
    let rows = nc_dnn::summary::table1(&inception_v3());
    let mut out = String::from("Table I: Parameters of the Layers of Inception v3 (derived)\n");
    out.push_str(&nc_dnn::summary::render_table1(&rows));
    out.push_str(
        "\nNotes: Mixed_6e convolution count derives to 554,880 (paper prints 499,392);\n\
         Mixed_6a/6e filter sizes derive to 1.099/2.039 MB (paper prints 0.255/1.898,\n\
         inconsistent with its own convolution counts). All other cells match.\n",
    );
    out
}

/// Table II — baseline CPU & GPU configuration.
#[must_use]
pub fn table2() -> String {
    let mut out = String::from("Table II: Baseline CPU & GPU Configuration\n");
    for c in [
        PlatformConfig::xeon_e5_2697_v3(),
        PlatformConfig::titan_xp(),
    ] {
        let _ = writeln!(
            out,
            "{}\n  frequency: {} GHz | cores: {} | process: {} nm | TDP: {} W\n  cache: {}\n  memory: {}",
            c.name, c.frequency_ghz, c.cores, c.process_nm, c.tdp_w, c.cache, c.memory
        );
    }
    out
}

/// Table III — energy consumption and average power.
#[must_use]
pub fn table3() -> String {
    let config = SystemConfig::xeon_e5_2697_v3();
    let model = inception_v3();
    let report = time_inference(&config, &model);
    let nc = energy_of(&config, &report);
    let cpu = cpu_xeon_e5();
    let gpu = gpu_titan_xp();

    let mut out = String::from("Table III: Energy Consumption and Average Power\n");
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>14}",
        "", "CPU", "GPU", "Neural Cache"
    );
    let _ = writeln!(
        out,
        "{:<16} {:>12.3} {:>12.3} {:>14.3}   (paper: 9.137 / 4.087 / 0.246)",
        "Total Energy/J",
        cpu.energy_j(),
        gpu.energy_j(),
        nc.total_j()
    );
    let _ = writeln!(
        out,
        "{:<16} {:>12.2} {:>12.2} {:>14.2}   (paper: 105.56 / 112.87 / 52.92)",
        "Avg Power/W",
        cpu.avg_power_w,
        gpu.avg_power_w,
        nc.avg_power_w()
    );
    let _ = writeln!(
        out,
        "energy efficiency: {:.1}x vs CPU, {:.1}x vs GPU (paper: 37.1x / 16.6x)",
        cpu.energy_j() / nc.total_j(),
        gpu.energy_j() / nc.total_j()
    );
    out
}

/// Table IV — inference latency vs cache capacity (batch size 1).
#[must_use]
pub fn table4() -> String {
    let model = inception_v3();
    let mut out = String::from("Table IV: Scaling with Cache Capacity (Batch Size = 1)\n");
    let paper = [(35usize, 4.72f64), (45, 4.12), (60, 3.79)];
    for (mb, paper_ms) in paper {
        let t = time_inference(&SystemConfig::with_capacity_mb(mb), &model)
            .total()
            .as_millis_f64();
        let _ = writeln!(
            out,
            "{mb} MB ({} slices): {t:.2} ms   (paper: {paper_ms:.2} ms)",
            mb * 1024 / 2560
        );
    }
    out
}

/// Figure 2 — in-place AND/NOR bit-line operations on a real array.
#[must_use]
pub fn fig2() -> String {
    let mut arr = SramArray::new();
    let mut out = String::from("Figure 2: SRAM circuit for in-place operations\n");
    // Store the four (A, B) combinations of Figure 2b on columns 0..4.
    for (col, (a, b)) in [(false, false), (false, true), (true, false), (true, true)]
        .iter()
        .enumerate()
    {
        arr.set(10, col, *a).expect("in range");
        arr.set(20, col, *b).expect("in range");
    }
    let sensed = arr.sense(10, 20).expect("two-row activation");
    let _ = writeln!(
        out,
        "{:>6} {:>3} {:>3} | {:>7} {:>7}",
        "col", "A", "B", "BL=AND", "BLB=NOR"
    );
    for col in 0..4 {
        let _ = writeln!(
            out,
            "{:>6} {:>3} {:>3} | {:>7} {:>7}",
            col,
            u8::from(arr.get(10, col).expect("in range")),
            u8::from(arr.get(20, col).expect("in range")),
            u8::from(sensed.and.get(col)),
            u8::from(sensed.nor.get(col)),
        );
    }
    out
}

/// Figures 4-6 — the addition, reduction and multiplication walkthroughs,
/// executed on a real compute array with cycle counts.
#[must_use]
pub fn fig4_6() -> String {
    let mut out = String::new();

    // Figure 4: 4-bit addition of two vectors.
    let mut arr = ComputeArray::with_zero_row(255).expect("zero row");
    let a = Operand::new(0, 4).expect("operand");
    let b = Operand::new(4, 4).expect("operand");
    let sum = Operand::new(8, 5).expect("operand");
    let pairs = [(5u64, 3u64), (7, 7), (15, 1), (2, 2)];
    for (lane, (x, y)) in pairs.iter().enumerate() {
        arr.poke_lane(lane, a, *x);
        arr.poke_lane(lane, b, *y);
    }
    let d = arr.add(a, b, sum).expect("add");
    let _ = writeln!(
        out,
        "Figure 4 (addition): {} compute cycles for 4-bit operands (paper: n+1 = 5)",
        d.compute_cycles
    );
    for (lane, (x, y)) in pairs.iter().enumerate() {
        let _ = writeln!(
            out,
            "  word {}: {x} + {y} = {}",
            lane + 1,
            arr.peek_lane(lane, sum)
        );
    }

    // Figure 5: reduction of four words.
    let mut arr = ComputeArray::with_zero_row(255).expect("zero row");
    let v = Operand::new(0, 32).expect("operand");
    let s = Operand::new(32, 32).expect("operand");
    for (lane, c) in [17u64, 4, 9, 30].iter().enumerate() {
        arr.poke_lane(lane, v, *c);
    }
    let d = arr.reduce_sum(v, s, 4).expect("reduce");
    let _ = writeln!(
        out,
        "Figure 5 (reduction): C1+C2+C3+C4 = {} in {} cycles (log2(4) = 2 steps)",
        arr.peek_lane(0, v),
        d.compute_cycles
    );

    // Figure 6: 2-bit multiplication (the published operands).
    let mut arr = ComputeArray::with_zero_row(255).expect("zero row");
    let a = Operand::new(0, 2).expect("operand");
    let b = Operand::new(2, 2).expect("operand");
    let p = Operand::new(4, 4).expect("operand");
    let cases = [(3u64, 3u64), (1, 2), (3, 1), (2, 2)];
    for (lane, (x, y)) in cases.iter().enumerate() {
        arr.poke_lane(lane, a, *x);
        arr.poke_lane(lane, b, *y);
    }
    let d = arr.mul(a, b, p).expect("mul");
    let _ = writeln!(
        out,
        "Figure 6 (multiplication): {} cycles for 2-bit operands (paper: n^2+5n-2 = 12)",
        d.compute_cycles
    );
    for (lane, (x, y)) in cases.iter().enumerate() {
        let _ = writeln!(
            out,
            "  word {}: {x} * {y} = {}",
            lane + 1,
            arr.peek_lane(lane, p)
        );
    }
    out
}

/// Figure 12 — SRAM array area overhead.
#[must_use]
pub fn fig12() -> String {
    let m = AreaModel::paper_28nm();
    let g = nc_geometry::CacheGeometry::xeon_e5_2697_v3();
    let mut out = String::from("Figure 12: SRAM array layout / area model (28 nm)\n");
    let _ = writeln!(
        out,
        "array compute overhead: {:.1}% (paper: 7.5%)",
        100.0 * m.array_overhead_fraction()
    );
    let _ = writeln!(
        out,
        "added compute area over {} arrays: {:.2} mm^2",
        g.total_arrays(),
        m.total_compute_area_mm2(g.total_arrays())
    );
    let _ = writeln!(
        out,
        "control FSM area over {} banks: {:.2} mm^2 (paper: 0.23 mm^2)",
        g.total_banks(),
        m.total_fsm_area_mm2(g.total_banks())
    );
    let _ = writeln!(
        out,
        "TMU area: {:.3} mm^2 each | die overhead at 70% cache area: {:.2}% (paper: <2%)",
        m.tmu_area_mm2,
        100.0 * m.die_overhead_fraction(0.7)
    );
    out
}

/// Figure 13 — inference latency by layer for CPU, GPU and Neural Cache.
#[must_use]
pub fn fig13() -> String {
    let model = inception_v3();
    let nc = time_inference(&SystemConfig::xeon_e5_2697_v3(), &model);
    let cpu = cpu_xeon_e5().layer_latencies(&model);
    let gpu = gpu_titan_xp().layer_latencies(&model);
    let mut out = String::from("Figure 13: Inference latency by layer of Inception v3 (ms)\n");
    let _ = writeln!(
        out,
        "{:<18} {:>10} {:>10} {:>13}",
        "Layer", "CPU", "GPU", "Neural Cache"
    );
    for ((layer, (_, c)), (_, g)) in nc.layers.iter().zip(&cpu).zip(&gpu) {
        let _ = writeln!(
            out,
            "{:<18} {:>10.3} {:>10.3} {:>13.4}",
            layer.name,
            c.as_millis_f64(),
            g.as_millis_f64(),
            layer.total().as_millis_f64()
        );
    }
    out
}

/// Figure 14 — Neural Cache inference latency breakdown.
#[must_use]
pub fn fig14() -> String {
    let report = time_inference(&SystemConfig::xeon_e5_2697_v3(), &inception_v3());
    let b = report.breakdown();
    let paper = [
        (Phase::FilterLoad, 46.0),
        (Phase::InputStream, 15.0),
        (Phase::Mac, 20.0),
        (Phase::Reduce, 10.0),
        (Phase::Quantize, 5.0),
        (Phase::Pool, 0.04),
        (Phase::OutputTransfer, 4.0),
    ];
    let mut out = String::from("Figure 14: Inference latency breakdown\n");
    for (phase, paper_pct) in paper {
        let _ = writeln!(
            out,
            "{:>12}: {:>5.1}%  (paper: {:>5.2}%)  [{}]",
            phase.label(),
            100.0 * b.fraction(phase),
            paper_pct,
            b.get(phase)
        );
    }
    out
}

/// Figure 15 — total Inception v3 inference latency for the three systems.
#[must_use]
pub fn fig15() -> String {
    let nc = time_inference(&SystemConfig::xeon_e5_2697_v3(), &inception_v3()).total();
    let cpu = cpu_xeon_e5().total_latency();
    let gpu = gpu_titan_xp().total_latency();
    let mut out = String::from("Figure 15: Total latency on Inception v3 inference\n");
    let _ = writeln!(out, "CPU (Xeon E5):   {:.2} ms", cpu.as_millis_f64());
    let _ = writeln!(out, "GPU (Titan Xp):  {:.2} ms", gpu.as_millis_f64());
    let _ = writeln!(out, "Neural Cache:    {:.2} ms", nc.as_millis_f64());
    let _ = writeln!(
        out,
        "speedup: {:.1}x over CPU (paper: 18.3x), {:.1}x over GPU (paper: 7.7x)",
        cpu / nc,
        gpu / nc
    );
    out
}

/// Figure 16 — throughput vs batch size for the three systems.
#[must_use]
pub fn fig16() -> String {
    let model = inception_v3();
    let config = SystemConfig::xeon_e5_2697_v3();
    let batches = [1usize, 2, 4, 8, 16, 32, 64, 128, 256];
    let nc = throughput_sweep(&config, &model, &batches);
    let cpu = cpu_xeon_e5();
    let gpu = gpu_titan_xp();
    let mut out = String::from("Figure 16: Throughput (inferences/sec) with varying batch size\n");
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>10} {:>13}",
        "batch", "CPU", "GPU", "Neural Cache"
    );
    for (i, &b) in batches.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>6} {:>10.1} {:>10.1} {:>13.1}",
            b,
            cpu.throughput(b),
            gpu.throughput(b),
            nc[i].throughput_ips
        );
    }
    let peak = nc.last().expect("non-empty sweep");
    let _ = writeln!(
        out,
        "peak: {:.0} inf/s = {:.1}x GPU, {:.1}x CPU (paper: 604 = 2.2x GPU, 12.4x CPU)",
        peak.throughput_ips,
        peak.throughput_ips / gpu.peak_throughput(),
        peak.throughput_ips / cpu.peak_throughput()
    );
    out
}

/// Sparsity extension (Section VII future work): weight-sparsity analysis
/// of Inception v3, the bit-serial cycle savings it could unlock, and the
/// executed dense-vs-pruned comparison of `SparsityMode::SkipZeroRows`
/// (skip fractions computed on the mapper's real lane packing, so the
/// analytical and executed numbers agree).
#[must_use]
pub fn sparsity() -> String {
    sparsity_with(&perf::compare_sparsity())
}

/// [`sparsity`] rendered from precomputed dense-vs-pruned comparisons, so
/// callers that also gate on them (`paper_check`) run the pruned
/// simulations once.
#[must_use]
pub fn sparsity_with(comparisons: &[perf::SparsityComparison]) -> String {
    use nc_dnn::inception::inception_v3_with_weights;
    use neural_cache::{CostModel as _, DerivedCostModel};
    let cost = &DerivedCostModel;
    let model = inception_v3_with_weights(1);
    let report = neural_cache::sparsity::analyze(&model);
    let mut out = String::from("Sparsity analysis (paper Section VII future work)\n");
    let _ = writeln!(
        out,
        "weight bit density: {:.3} | oracle skip: {:.1}% | SIMD-feasible skip: {:.1}%",
        1.0 - report.oracle_skip(),
        100.0 * report.oracle_skip(),
        100.0 * report.simd_skip()
    );
    let _ = writeln!(
        out,
        "MAC speedup ({} cost model): oracle (per-lane) {:.2}x | SIMD (all-lanes-zero rows) {:.2}x",
        cost.name(),
        report.oracle_mac_speedup(cost),
        report.simd_mac_speedup(cost)
    );
    let _ = writeln!(
        out,
        "(synthetic dense weights: pruned/quantized-sparse models raise the SIMD number)"
    );

    // Executed dense-vs-pruned comparison: SkipZeroRows on the pruned
    // workloads, bit-identical to dense by construction.
    out.push_str("\nSkipZeroRows execution (dense vs pruned workloads):\n");
    for s in comparisons {
        let _ = writeln!(
            out,
            "{:<24} executed skip {:>5.1}% (predicted {:>5.1}%) | compute cycles {:.2}x | \
             simulated MAC {:.2}x | bit-identical: {}",
            s.name,
            100.0 * s.executed_skip_fraction,
            100.0 * s.predicted_skip_fraction,
            s.cycle_speedup(),
            s.mac_speedup(),
            s.bit_identical
        );
    }
    out
}

/// Activation-sparsity artifact: dynamic input-bit round skipping
/// (ROADMAP's input-activation item) — dense vs ReLU-sparse executed
/// cycles under `SkipBoth`, the per-round wired-NOR detect charge, and the
/// break-even on dense activations.
#[must_use]
pub fn activation_sparsity() -> String {
    activation_sparsity_with(&perf::compare_activation_sparsity())
}

/// [`activation_sparsity`] rendered from precomputed comparisons.
#[must_use]
pub fn activation_sparsity_with(comparisons: &[perf::ActivationComparison]) -> String {
    let mut out = String::from(
        "Activation sparsity (dynamic input-bit round skipping, 1-cycle wired-NOR detect/round)\n",
    );
    for a in comparisons {
        let _ = writeln!(
            out,
            "{:<24} input skip {:>5.1}% (predicted {:>5.1}%) | compute cycles {:.2}x | \
             net MAC {:.2}x | detects {} | bit-identical: {}",
            a.name,
            100.0 * a.executed_input_skip_fraction,
            100.0 * a.predicted_input_skip_fraction,
            a.cycle_speedup(),
            a.mac_speedup(),
            a.detect_cycles,
            a.bit_identical
        );
    }
    let _ = writeln!(
        out,
        "(net = after the per-round detect charge; the dense-activation row shows the \
         break-even's overhead side)"
    );
    out
}

/// Serving-under-load artifact: the `nc-serve` discrete-event simulator's
/// offered-load sweep and trace/policy matrix (see [`serving`]).
#[must_use]
pub fn serving_under_load() -> String {
    serving::render_text(&serving::run_serving_bench())
}

/// Section I/III headline numbers: ALU slots, peak TOP/s, area overheads.
#[must_use]
pub fn headlines() -> String {
    let g = nc_geometry::CacheGeometry::xeon_e5_2697_v3();
    let system = NeuralCache::new(SystemConfig::xeon_e5_2697_v3());
    let mut out = String::from("Headline numbers\n");
    let _ = writeln!(
        out,
        "bit-serial ALU slots: {} (paper: 1,146,880)",
        g.alu_slots()
    );
    let _ = writeln!(
        out,
        "8KB arrays: {} ({} per slice) | compute arrays: {}",
        g.total_arrays(),
        g.arrays_per_slice(),
        g.compute_arrays()
    );
    let _ = writeln!(
        out,
        "peak throughput at 204-cycle 8-bit MAC: {:.1} TOP/s (paper: 28 TOP/s at 22 nm)",
        g.peak_ops_per_sec(204, system.config().timings.compute_freq_hz) / 1e12
    );
    let m = AreaModel::paper_28nm();
    let _ = writeln!(
        out,
        "area overhead: {:.1}% per array, {:.2}% of a 70%-cache die",
        100.0 * m.array_overhead_fraction(),
        100.0 * m.die_overhead_fraction(0.7)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_artifact_renders() {
        for (name, text) in [
            ("table1", table1()),
            ("table2", table2()),
            ("table3", table3()),
            ("table4", table4()),
            ("fig2", fig2()),
            ("fig4_6", fig4_6()),
            ("fig12", fig12()),
            ("fig13", fig13()),
            ("fig14", fig14()),
            ("fig15", fig15()),
            ("fig16", fig16()),
            ("headlines", headlines()),
            ("activation_sparsity", activation_sparsity()),
            ("serving", serving_under_load()),
        ] {
            assert!(text.lines().count() >= 3, "{name} too short:\n{text}");
        }
    }

    #[test]
    fn fig15_reports_speedups_over_both_baselines() {
        let text = fig15();
        assert!(text.contains("CPU"));
        assert!(text.contains("GPU"));
        assert!(text.contains("speedup"));
    }

    #[test]
    fn fig2_truth_table_is_correct() {
        let text = fig2();
        assert!(text.contains("BL=AND"));
        // Only the A=1,B=1 column has AND=1; only A=0,B=0 has NOR=1.
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[2].trim().starts_with("0   0   0 |       0       1"));
        assert!(lines[5].trim().starts_with("3   1   1 |       1       0"));
    }
}
