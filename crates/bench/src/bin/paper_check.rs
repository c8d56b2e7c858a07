//! Self-check binary: regenerates every table/figure artifact and verifies
//! the paper's headline constants appear in each, exiting non-zero on any
//! mismatch. A fast end-to-end sanity gate for the whole reproduction
//! (`cargo run --release --bin paper_check`).

use std::process::ExitCode;

fn main() -> ExitCode {
    nc_bench::verify_prepass();
    // Dense-vs-pruned skip comparisons: computed once, shared by the
    // sparsity artifact rendering and the cross-check guard below.
    let sparsity_comps = nc_bench::perf::compare_sparsity();

    // (artifact name, rendered text, substrings the paper fixes).
    let checks: [(&str, String, &[&str]); 13] = [
        // Table I row: Conv2d_1a_3x3 performs 710,432 convolutions.
        ("table1", nc_bench::table1(), &["Conv2d_1a_3x3", "710432"]),
        // Table II: the calibrated baselines.
        ("table2", nc_bench::table2(), &["Xeon", "Titan Xp"]),
        ("table3", nc_bench::table3(), &["Neural Cache"]),
        ("table4", nc_bench::table4(), &["MB"]),
        // Figure 2: the two-word-line AND/NOR bit-line primitive.
        ("fig2", nc_bench::fig2(), &["AND", "NOR"]),
        // Figures 4-6: n-bit add takes n+1 compute cycles.
        ("fig4_6", nc_bench::fig4_6(), &["add"]),
        // Figure 12: 7.5% array area overhead.
        ("fig12", nc_bench::fig12(), &["7.5"]),
        ("fig13", nc_bench::fig13(), &["Conv2d_1a_3x3"]),
        // Figure 14: phase breakdown is dominated by filter loading.
        ("fig14", nc_bench::fig14(), &["filter-load", "mac"]),
        ("fig15", nc_bench::fig15(), &["Neural Cache"]),
        // Figure 16: 604 inferences/sec peak throughput.
        ("fig16", nc_bench::fig16(), &["604"]),
        (
            "sparsity",
            nc_bench::sparsity_with(&sparsity_comps),
            &["oracle", "MAC speedup"],
        ),
        // Section I: 1,146,880 bit-serial ALU slots in 35 MB of LLC.
        ("headlines", nc_bench::headlines(), &["1146880", "28 TOP/s"]),
    ];

    let mut failures = 0u32;
    for (name, text, expects) in &checks {
        if text.trim().is_empty() {
            println!("FAIL {name}: rendered nothing");
            failures += 1;
            continue;
        }
        let missing: Vec<&&str> = expects.iter().filter(|e| !text.contains(**e)).collect();
        if missing.is_empty() {
            println!("ok   {name}");
        } else {
            println!("FAIL {name}: missing {missing:?}");
            failures += 1;
        }
    }

    // Sparsity guard: the artifact's *executed* skip fraction (the
    // SkipZeroRows counters of the functional executor) must match the
    // analytical one computed on the mapper's lane packing, and skipping
    // must stay bit-identical to dense.
    for s in &sparsity_comps {
        let delta = (s.executed_skip_fraction - s.predicted_skip_fraction).abs();
        if s.verified() {
            println!(
                "ok   sparsity/{}: executed {:.4} vs predicted {:.4}",
                s.name, s.executed_skip_fraction, s.predicted_skip_fraction
            );
        } else {
            println!(
                "FAIL sparsity/{}: bit_identical={} skip-fraction delta {delta:.4}",
                s.name, s.bit_identical
            );
            failures += 1;
        }
    }

    nc_bench::telemetry::emit_canary_artifacts();

    if failures == 0 {
        println!(
            "paper_check: all {} artifacts + sparsity cross-check verified",
            checks.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("paper_check: {failures} artifact(s) FAILED");
        ExitCode::FAILURE
    }
}
