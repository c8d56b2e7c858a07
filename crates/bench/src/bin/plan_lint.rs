//! Static plan lint gate: runs the `nc-verify` hazard checks, cycle
//! reconciliation, and the value-range overflow certification over every
//! shipped workload under all three sparsity modes, writes the diagnostics
//! (and per-workload value-range stats) as a JSON artifact, and exits
//! non-zero on *any* diagnostic — so CI fails the moment a plan, schedule,
//! cost model, executor, or execution engine drifts out of agreement.
//!
//! Shape-only workloads (the full Inception v3 graph) get the static
//! passes: operand-layout lints, per-mode MAC-tap schedule hazards,
//! cost-model anchors, per-layer lane geometry / row budget, one reduce
//! schedule per distinct group span, the reserved-way dump-overlap window,
//! and the value-range abstract interpretation with its overflow/width
//! certificates (V021–V023, V025–V027) checked against the shipped Figure
//! 10 bit budget. Weighted workloads additionally run the functional
//! executor under every sparsity mode on both engines, reconcile the
//! executed `CycleStats` against the static predictions, check that every
//! run's `ArrayPool` events match the sequential dense run's (V020), and
//! reconcile every executed per-layer accumulator min/max against the
//! static interval certificate (V021 on escape).
//!
//! ```bash
//! cargo run --release -p nc-bench --bin plan_lint -- --out PLAN_LINT.json
//! ```
//!
//! Exit codes: `0` all workloads clean, `1` at least one hazard-category
//! diagnostic (a malformed model, V028, or plan/schedule/width defects,
//! including V021–V023 and V025–V027), `2` reconciliation-category only
//! (V009/V010/V020 — the static and executed views drifted but no plan
//! hazard was proven), `3` the artifact could not be written.

use std::process::ExitCode;

use nc_dnn::inception::inception_v3;
use nc_dnn::workload::{
    pruned_conv_model, pruned_inception, random_input, relu_sparse_conv_model, relu_sparse_mini,
    tiny_cnn,
};
use nc_dnn::Model;
use nc_verify::diag::Category;
use nc_verify::report::VerifyReport;
use nc_verify::{check_executed_model, check_model};
use neural_cache::SystemConfig;

/// Runs the static-only or static+executed verification for one workload.
fn verify(model: &Model, executed: bool) -> VerifyReport {
    let config = SystemConfig::xeon_e5_2697_v3();
    if executed {
        let input = random_input(model.input_shape, model.input_quant, 7);
        match check_executed_model(&config, model, &input) {
            Ok(report) => report,
            Err(e) => {
                // An executor failure is itself a gate failure: surface it
                // as a report whose only "diagnostic" is the error text.
                let mut report = check_model(&config, model);
                report.record(
                    "executed-reconciliation",
                    vec![nc_verify::diag::Diagnostic::new(
                        nc_verify::diag::ErrorCode::CycleMismatchExecuted,
                        model.name.clone(),
                        format!("functional executor failed: {e}"),
                    )],
                );
                report
            }
        }
    } else {
        check_model(&config, model)
    }
}

fn range_stats_line(report: &VerifyReport) -> Option<String> {
    let stat = |name: &str| {
        report
            .stats
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    };
    let convs = stat("range_convs")?;
    Some(format!(
        "{} conv range(s), {} exact-weighted, acc width max {} bit(s)",
        convs,
        stat("range_exact_weighted").unwrap_or(0),
        stat("range_acc_bits_max").unwrap_or(0),
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = nc_bench::parse_flag(&args, "--out").unwrap_or_else(|| "PLAN_LINT.json".into());

    // (workload, run the executed leg too). Inception v3 proper is
    // shape-only; every weighted workload executes under all three modes
    // on both engines.
    let workloads: [(Model, bool); 6] = [
        (inception_v3(), false),
        (pruned_inception(3), true),
        (relu_sparse_mini(7), true),
        (tiny_cnn(42), true),
        (pruned_conv_model(5), true),
        (relu_sparse_conv_model(7), true),
    ];

    let mut reports = Vec::new();
    let mut dirty = 0u32;
    let mut hazards = 0u32;
    let mut reconciliations = 0u32;
    for (model, executed) in &workloads {
        let report = verify(model, *executed);
        let n = report.diagnostics.len();
        if report.is_clean() {
            println!(
                "ok   {}: {} check(s) clean{}",
                report.subject,
                report.checks.len(),
                if *executed {
                    " (static + executed)"
                } else {
                    " (static)"
                }
            );
        } else {
            println!("FAIL {}: {n} diagnostic(s)", report.subject);
            for d in &report.diagnostics {
                println!("     {d}");
            }
            dirty += 1;
        }
        if let Some(line) = range_stats_line(&report) {
            println!("     ranges: {line}");
        }
        for d in &report.diagnostics {
            match d.code.category() {
                Category::Hazard => hazards += 1,
                Category::Reconciliation => reconciliations += 1,
            }
        }
        reports.push(report);
    }

    let json: Vec<String> = reports.iter().map(VerifyReport::to_json).collect();
    let artifact = format!("[{}]\n", json.join(","));
    if let Err(e) = std::fs::write(&out, artifact) {
        eprintln!("failed to write {out}: {e}");
        return ExitCode::from(3);
    }
    println!("wrote {out}");
    nc_bench::telemetry::emit_canary_artifacts();

    if dirty == 0 {
        println!(
            "plan_lint: all {} workload(s) verified clean",
            workloads.len()
        );
        ExitCode::SUCCESS
    } else if hazards > 0 {
        eprintln!(
            "plan_lint: {dirty} workload(s) dirty ({hazards} hazard, {reconciliations} \
             reconciliation diagnostic(s))"
        );
        ExitCode::from(1)
    } else {
        eprintln!(
            "plan_lint: {dirty} workload(s) with reconciliation-only drift \
             ({reconciliations} diagnostic(s))"
        );
        ExitCode::from(2)
    }
}
