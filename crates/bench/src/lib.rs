//! Benchmark harness for the Neural Cache (ISCA 2018) reproduction: one
//! function per table/figure of the paper's evaluation, each returning the
//! regenerated artifact as formatted text, and the paper-anchor gate.
//! `run_all` prints the [`sections`] and the [`paper_anchors`] table, and
//! exits non-zero when [`gate`] reports a failure. Every paper value an
//! artifact cites comes from [`neural_cache::paper`]. Every artifact
//! reports simulated numbers only; the simulator's host wall time is
//! measured by the `perfbench` benchmark.
//!
//! | Section | Function |
//! |---|---|
//! | Table I | [`table1`] |
//! | Table II | [`table2`] |
//! | Table III | [`table3`] |
//! | Table IV | [`table4`] |
//! | Figure 2 | [`fig2`] |
//! | Figures 4-6 | [`fig4_6`] |
//! | Figure 12 | [`fig12`] |
//! | Figure 13 | [`fig13`] |
//! | Figure 14 | [`fig14`] |
//! | Figure 15 | [`fig15`] |
//! | Figure 16 | [`fig16`] |
//! | Sparsity | [`sparsity`] |
//! | Activation sparsity | [`activation_sparsity`] |
//! | §I/III headlines | [`headlines`] |
//! | Paper anchors | [`paper_anchors`] |

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
pub mod telemetry;

use std::fmt::Write as _;
use std::sync::Once;

use nc_dnn::inception::inception_v3;
use nc_sram::area::AreaModel;
use nc_sram::{ComputeArray, Operand, SramArray};
use neural_cache::paper::{self, anchor, Anchor, Kind, CPU, GPU};
use neural_cache::{energy_of, throughput_sweep, time_inference, NeuralCache, Phase, SystemConfig};

/// Returns the value following `flag` in `args` (the shared CLI
/// convention of every bench binary).
#[must_use]
pub fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Static pre-flight every bench binary runs before printing numbers:
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

/// The 8-bit MAC cost behind the §I peak-throughput headline. Neither cost
/// model produces it (`PaperCostModel` 236, `DerivedCostModel` 136), so
/// the `peak 8-bit throughput` anchor is fitted to it.
const HEADLINE_MAC_CYCLES: u64 = 204;

/// The 14 artifact sections `run_all` prints, titled and in order. The
/// two sparsity sections render the comparisons the caller gates on.
#[must_use]
pub fn sections(
    sparsity_runs: &[perf::SparsityComparison],
    activation_runs: &[perf::ActivationComparison],
) -> [(&'static str, String); 14] {
    [
        ("Table I", table1()),
        ("Table II", table2()),
        ("Table III", table3()),
        ("Table IV", table4()),
        ("Figure 2", fig2()),
        ("Figures 4-6", fig4_6()),
        ("Figure 12", fig12()),
        ("Figure 13", fig13()),
        ("Figure 14", fig14()),
        ("Figure 15", fig15()),
        ("Figure 16", fig16()),
        ("Sparsity", sparsity(sparsity_runs)),
        ("Activation sparsity", activation_sparsity(activation_runs)),
        ("Headlines", headlines()),
    ]
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

/// Table II — baseline CPU & GPU configuration, as the paper prints it.
#[must_use]
pub fn table2() -> String {
    let mut out = [
        "Table II: Baseline CPU & GPU Configuration",
        "Intel Xeon E5-2697 v3",
        "  frequency: 2.6 GHz | cores: 14 | process: 22 nm | TDP: 145 W",
        "  cache: 32 kB i-L1 + 32 kB d-L1 per core, 256 kB L2 per core, 35 MB shared L3",
        "  memory: 64 GB DDR4 DRAM",
        "Nvidia Titan Xp",
        "  frequency: 1.6 GHz | cores: 3840 | process: 16 nm | TDP: 250 W",
        "  cache: 3 MB shared L2",
        "  memory: 12 GB GDDR5X DRAM",
    ]
    .join("\n");
    out.push('\n');
    out
}

/// Table III — energy consumption and average power, beside the
/// paper's measured CPU/GPU values.
#[must_use]
pub fn table3() -> String {
    let config = SystemConfig::xeon_e5_2697_v3();
    let report = time_inference(&config, &inception_v3());
    let nc = energy_of(&config, &report);

    let mut out = String::from("Table III: Energy Consumption and Average Power\n");
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>14}",
        "", "CPU", "GPU", "Neural Cache"
    );
    let _ = writeln!(
        out,
        "{:<16} {c:>12.3} {g:>12.3} {:>14.3}   (paper: {c:.3} / {g:.3} / {:.3})",
        "Total Energy/J",
        nc.total_j(),
        anchor("energy per inference").paper,
        c = CPU.energy_j,
        g = GPU.energy_j,
    );
    let _ = writeln!(
        out,
        "{:<16} {c:>12.2} {g:>12.2} {:>14.2}   (paper: {c:.2} / {g:.2} / {:.2})",
        "Avg Power/W",
        nc.avg_power_w(),
        anchor("average power").paper,
        c = CPU.power_w,
        g = GPU.power_w,
    );
    let _ = writeln!(
        out,
        "energy efficiency: {:.1}x vs CPU, {:.1}x vs GPU (paper: {:.1}x / {:.1}x)",
        CPU.energy_j / nc.total_j(),
        GPU.energy_j / nc.total_j(),
        CPU.efficiency(),
        GPU.efficiency()
    );
    out
}

/// Table IV — inference latency vs cache capacity (batch size 1).
#[must_use]
pub fn table4() -> String {
    let model = inception_v3();
    let mut out = String::from("Table IV: Scaling with Cache Capacity (Batch Size = 1)\n");
    for (mb, name) in [
        (35usize, "latency"),
        (45, "latency at 45 MB"),
        (60, "latency at 60 MB"),
    ] {
        let t = time_inference(&SystemConfig::with_capacity_mb(mb), &model)
            .total()
            .as_millis_f64();
        let _ = writeln!(
            out,
            "{mb} MB ({} slices): {t:.2} ms   (paper: {:.2} ms)",
            mb * 1024 / 2560,
            anchor(name).paper
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
        "Figure 4 (addition): {} compute cycles for 4-bit operands (paper: n+1 = {})",
        d.compute_cycles,
        anchor("4-bit add cycles").paper
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
        "Figure 6 (multiplication): {} cycles for 2-bit operands (paper: n^2+5n-2 = {})",
        d.compute_cycles,
        anchor("2-bit multiply cycles").paper
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
        "array compute overhead: {:.1}% (paper: {:.1}%)",
        100.0 * m.array_overhead_fraction(),
        anchor("array area overhead").paper
    );
    let _ = writeln!(
        out,
        "added compute area over {} arrays: {:.2} mm^2",
        g.total_arrays(),
        m.total_compute_area_mm2(g.total_arrays())
    );
    let _ = writeln!(
        out,
        "control FSM area over {} banks: {:.2} mm^2 (paper: {:.2} mm^2)",
        g.total_banks(),
        m.total_fsm_area_mm2(g.total_banks()),
        anchor("FSM area").paper
    );
    let _ = writeln!(
        out,
        "TMU area: {:.3} mm^2 each | die overhead at 70% cache area: {:.2}% (paper: <2%)",
        m.tmu_area_mm2,
        100.0 * m.die_overhead_fraction(0.7)
    );
    out
}

/// Figure 13 — Neural Cache inference latency by layer, with the paper's
/// measured CPU/GPU totals (the paper plots their per-layer bars but
/// prints no per-layer values).
#[must_use]
pub fn fig13() -> String {
    let nc = time_inference(&SystemConfig::xeon_e5_2697_v3(), &inception_v3());
    let mut out = String::from("Figure 13: Inference latency by layer of Inception v3 (ms)\n");
    let _ = writeln!(out, "{:<18} {:>13}", "Layer", "Neural Cache");
    for layer in &nc.layers {
        let _ = writeln!(
            out,
            "{:<18} {:>13.4}",
            layer.name,
            layer.total().as_millis_f64()
        );
    }
    let _ = writeln!(
        out,
        "total: {:.2} ms (paper's measured totals: CPU {:.2} ms, GPU {:.2} ms)",
        nc.total().as_millis_f64(),
        CPU.latency_ms,
        GPU.latency_ms
    );
    out
}

/// The Fig. 14 anchor of `phase`.
fn share_anchor(phase: Phase) -> &'static Anchor {
    anchor(&format!("{} share", phase.label()))
}

/// Figure 14 — Neural Cache inference latency breakdown.
#[must_use]
pub fn fig14() -> String {
    let report = time_inference(&SystemConfig::xeon_e5_2697_v3(), &inception_v3());
    let b = report.breakdown();
    let mut out = String::from("Figure 14: Inference latency breakdown\n");
    for phase in Phase::ALL {
        let _ = writeln!(
            out,
            "{:>12}: {:>5.1}%  (paper: {:>5.2}%)  [{}]",
            phase.label(),
            100.0 * b.fraction(phase),
            share_anchor(phase).paper,
            b.get(phase)
        );
    }
    out
}

/// Figure 15 — total Inception v3 inference latency against the paper's
/// measured CPU/GPU latencies.
#[must_use]
pub fn fig15() -> String {
    let nc = time_inference(&SystemConfig::xeon_e5_2697_v3(), &inception_v3())
        .total()
        .as_millis_f64();
    let mut out = String::from("Figure 15: Total latency on Inception v3 inference\n");
    for m in [CPU, GPU] {
        let _ = writeln!(out, "{:<17}{:.2} ms", format!("{}:", m.name), m.latency_ms);
    }
    let _ = writeln!(out, "{:<17}{nc:.2} ms", "Neural Cache:");
    let _ = writeln!(
        out,
        "speedup: {:.1}x over CPU (paper: {:.1}x), {:.1}x over GPU (paper: {:.1}x)",
        CPU.latency_ms / nc,
        CPU.speedup,
        GPU.latency_ms / nc,
        GPU.speedup
    );
    out
}

/// Figure 16 — Neural Cache throughput vs batch size, and its largest
/// batch against the paper's CPU/GPU peaks.
#[must_use]
pub fn fig16() -> String {
    let batches = [1usize, 2, 4, 8, 16, 32, 64, 128, 256];
    let nc = throughput_sweep(&SystemConfig::xeon_e5_2697_v3(), &inception_v3(), &batches);
    let mut out = String::from("Figure 16: Throughput (inferences/sec) with varying batch size\n");
    let _ = writeln!(out, "{:>6} {:>13}", "batch", "Neural Cache");
    for r in &nc {
        let _ = writeln!(out, "{:>6} {:>13.1}", r.batch, r.throughput_ips);
    }
    let last = nc.last().expect("non-empty sweep");
    let _ = writeln!(
        out,
        "batch {}: {:.0} inf/s = {:.1}x GPU, {:.1}x CPU (paper: {:.0} = {:.1}x GPU, {:.1}x CPU)",
        last.batch,
        last.throughput_ips,
        last.throughput_ips / GPU.peak_ips(),
        last.throughput_ips / CPU.peak_ips(),
        anchor("throughput at batch 256").paper,
        GPU.throughput_ratio,
        CPU.throughput_ratio
    );
    out
}

/// Sparsity extension (Section VII future work): the executed
/// dense-vs-pruned comparisons of `SparsityMode::SkipZeroRows` (skip
/// fractions computed on the mapper's real lane packing, so the
/// analytical and executed numbers agree).
#[must_use]
pub fn sparsity(comparisons: &[perf::SparsityComparison]) -> String {
    let mut out = String::from("Sparsity analysis (paper Section VII future work)\n");

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

/// Activation-sparsity artifact: dynamic input-bit round skipping —
/// dense vs ReLU-sparse executed cycles under `SkipBoth`, the per-round
/// wired-NOR detect charge, and the break-even on dense activations.
#[must_use]
pub fn activation_sparsity(comparisons: &[perf::ActivationComparison]) -> String {
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

/// Section I/III headline numbers: ALU slots, peak TOP/s, area overheads.
#[must_use]
pub fn headlines() -> String {
    let g = nc_geometry::CacheGeometry::xeon_e5_2697_v3();
    let system = NeuralCache::new(SystemConfig::xeon_e5_2697_v3());
    let mut out = String::from("Headline numbers\n");
    let _ = writeln!(
        out,
        "bit-serial ALU slots: {} (paper: {})",
        g.alu_slots(),
        thousands(anchor("bit-serial ALU slots").paper)
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
        "peak throughput at {HEADLINE_MAC_CYCLES}-cycle 8-bit MAC: {:.1} TOP/s (paper: {:.0} TOP/s at 22 nm)",
        g.peak_ops_per_sec(HEADLINE_MAC_CYCLES, system.config().timings.compute_freq_hz) / 1e12,
        anchor("peak 8-bit throughput").paper
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

/// `n` with thousands separators, as the paper prints counts.
fn thousands(n: f64) -> String {
    let digits = format!("{n:.0}");
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Measures every [`paper::ANCHORS`] entry once, in table order:
/// `(anchor name, measured value in the anchor's unit)`.
#[must_use]
pub fn measure_anchors() -> Vec<(&'static str, f64)> {
    let g = nc_geometry::CacheGeometry::xeon_e5_2697_v3();
    let config = SystemConfig::xeon_e5_2697_v3();
    let model = inception_v3();
    let area = AreaModel::paper_28nm();
    let report = time_inference(&config, &model);
    let energy = energy_of(&config, &report);
    let latency_at = |mb| {
        time_inference(&SystemConfig::with_capacity_mb(mb), &model)
            .total()
            .as_millis_f64()
    };
    let rows = nc_dnn::summary::table1(&model);
    let convolutions = |layer: &str| {
        rows.iter()
            .find(|r| r.name == layer)
            .expect("a Table I layer")
            .convolutions as f64
    };
    let mut arr = ComputeArray::with_zero_row(255).expect("zero row");
    let op = |base, bits| Operand::new(base, bits).expect("operand");
    let add = arr.add(op(0, 4), op(4, 4), op(8, 5)).expect("add");
    let mul = arr.mul(op(0, 2), op(2, 2), op(4, 4)).expect("mul");

    let mut measured = vec![
        ("bit-serial ALU slots", g.alu_slots() as f64),
        ("4-bit add cycles", add.compute_cycles as f64),
        ("2-bit multiply cycles", mul.compute_cycles as f64),
        ("Conv2d_1a_3x3 convolutions", convolutions("Conv2d_1a_3x3")),
        ("Conv2d_2b_3x3 convolutions", convolutions("Conv2d_2b_3x3")),
        ("Mixed_5b convolutions", convolutions("Mixed_5b")),
        ("Mixed_7a convolutions", convolutions("Mixed_7a")),
        ("Mixed_7b convolutions", convolutions("Mixed_7b")),
        (
            "peak 8-bit throughput",
            g.peak_ops_per_sec(HEADLINE_MAC_CYCLES, config.timings.compute_freq_hz) / 1e12,
        ),
        (
            "array area overhead",
            100.0 * area.array_overhead_fraction(),
        ),
        ("FSM area", area.total_fsm_area_mm2(g.total_banks())),
        ("latency", report.total().as_millis_f64()),
        ("latency at 45 MB", latency_at(45)),
        ("latency at 60 MB", latency_at(60)),
        (
            "throughput at batch 256",
            throughput_sweep(&config, &model, &[256])[0].throughput_ips,
        ),
        ("energy per inference", energy.total_j()),
        ("average power", energy.avg_power_w()),
    ];
    let b = report.breakdown();
    measured.extend(Phase::ALL.map(|p| (share_anchor(p).name, 100.0 * b.fraction(p))));
    measured
}

/// The "Paper anchors" section: each measured anchor beside the paper's
/// value, with its deviation, tolerance and kind.
#[must_use]
pub fn paper_anchors(measured: &[(&'static str, f64)]) -> String {
    let mut out = String::from(
        "Paper anchors (arXiv 1805.03718): |measured - paper| against each tolerance\n",
    );
    let _ = writeln!(
        out,
        "{:<27} {:<11} {:>10} {:>14} {:>10} {:>9} {:<6} {:<5} kind",
        "anchor", "source", "paper", "measured", "deviation", "tolerance", "unit", "gate"
    );
    for &(name, value) in measured {
        let a = anchor(name);
        let decimals = if a.kind == Kind::Exact { 0 } else { 4 };
        let kind = match a.kind {
            Kind::Exact => "exact".to_owned(),
            Kind::Predicted => "predicted".to_owned(),
            Kind::Fitted(constant) => format!("fitted: {constant}"),
        };
        let _ = writeln!(
            out,
            "{:<27} {:<11} {:>10} {:>14.decimals$} {:>10.decimals$} {:>9} {:<6} {:<5} {kind}",
            a.name,
            a.source,
            a.paper,
            value,
            a.deviation(value),
            a.tolerance,
            a.unit,
            if a.holds(value) { "ok" } else { "DRIFT" },
        );
    }
    out
}

/// The gate `run_all` exits on: every anchor measured exactly once and
/// within its tolerance, and every sparsity comparison `verified()`.
/// Returns one line per failure, empty when everything holds.
#[must_use]
pub fn gate(
    measured: &[(&'static str, f64)],
    sparsity_runs: &[perf::SparsityComparison],
    activation_runs: &[perf::ActivationComparison],
) -> Vec<String> {
    let mut failures = Vec::new();
    for a in &paper::ANCHORS {
        let values: Vec<f64> = measured
            .iter()
            .filter(|(name, _)| *name == a.name)
            .map(|&(_, v)| v)
            .collect();
        match values[..] {
            [v] if a.holds(v) => {}
            [v] => failures.push(format!(
                "{}: measured {v} {}, {} from the paper's {}, past the tolerance {}",
                a.name,
                a.unit,
                a.deviation(v),
                a.paper,
                a.tolerance
            )),
            _ => failures.push(format!(
                "{}: measured {} times, not once",
                a.name,
                values.len()
            )),
        }
    }
    for s in sparsity_runs.iter().filter(|s| !s.verified()) {
        failures.push(format!("{} not verified: {s:?}", s.name));
    }
    for a in activation_runs.iter().filter(|a| !a.verified()) {
        failures.push(format!("{} not verified: {a:?}", a.name));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use perf::{ActivationComparison, ActivationExpectation, SparsityComparison};

    #[test]
    fn every_anchor_is_measured_once_and_holds() {
        let measured = measure_anchors();
        assert_eq!(measured.len(), paper::ANCHORS.len());
        assert_eq!(gate(&measured, &[], &[]), Vec::<String>::new());
        assert!(!paper_anchors(&measured).contains("DRIFT"));

        // A missing or a repeated measurement fails the gate.
        let failures = gate(&measured[1..], &[], &[]);
        assert_eq!(failures.len(), 1, "{failures:?}");
        let mut twice = measured.clone();
        twice.push(measured[0]);
        assert_eq!(gate(&twice, &[], &[]).len(), 1);
    }

    #[test]
    fn drift_just_past_any_tolerance_fails_the_gate() {
        let measured = measure_anchors();
        for i in 0..measured.len() {
            let a = anchor(measured[i].0);
            let step = a.paper.abs().max(1.0) * 1e-9;
            for sign in [1.0, -1.0] {
                let mut moved = measured.clone();
                moved[i].1 = a.paper + sign * (a.tolerance - step).max(0.0);
                assert_eq!(gate(&moved, &[], &[]), Vec::<String>::new(), "{}", a.name);
                moved[i].1 = a.paper + sign * (a.tolerance + step);
                let failures = gate(&moved, &[], &[]);
                assert_eq!(failures.len(), 1, "{}: {failures:?}", a.name);
                assert!(failures[0].starts_with(a.name), "{failures:?}");
                assert!(paper_anchors(&moved).contains("DRIFT"));
            }
        }
    }

    #[test]
    fn an_unverified_sparsity_comparison_fails_the_gate() {
        let measured = measure_anchors();
        let weights = SparsityComparison {
            name: "pruned".to_owned(),
            dense_compute_cycles: 4,
            sparse_compute_cycles: 3,
            timing_mac_cycles_dense: 4,
            timing_mac_cycles_sparse: 3,
            mul_rounds: 8,
            skipped_rounds: 2,
            executed_skip_fraction: 0.25,
            predicted_skip_fraction: 0.25,
            bit_identical: true,
        };
        let inputs = ActivationComparison {
            name: "relu".to_owned(),
            expectation: ActivationExpectation::NetSpeedup,
            dense_compute_cycles: 4,
            both_compute_cycles: 3,
            detect_cycles: 8,
            mul_rounds: 8,
            input_rounds_skipped: 2,
            executed_input_skip_fraction: 0.25,
            predicted_input_skip_fraction: 0.25,
            timing_mac_cycles_dense: 4,
            timing_mac_cycles_both: 3,
            bit_identical: true,
        };
        let ok = gate(
            &measured,
            std::slice::from_ref(&weights),
            std::slice::from_ref(&inputs),
        );
        assert_eq!(ok, Vec::<String>::new());

        let diverged = SparsityComparison {
            bit_identical: false,
            ..weights.clone()
        };
        let mispredicted = SparsityComparison {
            predicted_skip_fraction: 0.5,
            ..weights
        };
        let slower = ActivationComparison {
            timing_mac_cycles_both: 5,
            ..inputs
        };
        for (s, a) in [
            (vec![diverged], vec![]),
            (vec![mispredicted], vec![]),
            (vec![], vec![slower]),
        ] {
            assert_eq!(gate(&measured, &s, &a).len(), 1, "{s:?} {a:?}");
        }
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
