//! `nc-perfbench`: the repository's seeded benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mini_inception_dense --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process, one caller, closed loop: the next unit of work starts only
//! after the previous one returned. `--trace 0` measures the end-to-end
//! metrics with telemetry off; `--trace 1` is a separate run that measures
//! the per-layer metrics. Human-readable detail goes to stderr; the last
//! line of stdout is the JSON result. See `perfbench/README.md`.

#![forbid(unsafe_code)]
#![warn(clippy::pedantic)]
// The workspace's pedantic waivers: cycle counters and sample counts convert
// to f64 for ratios (far below 2^52), and tests compare exact values.
#![allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::float_cmp
)]

mod calib;
mod layers;
mod paper;
mod report;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use nc_telemetry::Telemetry;

use calib::Calibration;
use report::{median, render_result, tail, Metrics, Tally};
use workload::{Analytic, AnalyticPass, Functional, Unit, NAMES};

const USAGE: &str = "usage: nc-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>";

/// Set-ups per run; `setup_s` is their median. The first builds the state
/// the run measures; the rest are spread evenly over the run, so a short
/// burst of host load cannot hit most of them.
const SETUP_REPS: usize = 11;
/// Units every untraced run measures at least, so the tail percentile
/// exists.
const MIN_UNITS: usize = 31;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    NAMES
                        .into_iter()
                        .find(|n| *n == value)
                        .ok_or_else(|| format!("unknown workload {value}; one of {NAMES:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value} is outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nc-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("nc-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let seed = args.seed;
    eprintln!(
        "nc-perfbench: workload {} seed {seed} seconds {} trace {} on {} host threads",
        args.workload,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    match (args.workload, args.trace) {
        ("inception_v3_analytic", false) => untraced(|| Analytic::setup(seed), seed, budget),
        (name, false) => untraced(|| Functional::setup(name, seed), seed, budget),
        ("inception_v3_analytic", true) => traced_analytic(seed, budget),
        (name, true) => traced_functional(name, seed, budget),
    }
}

/// Seconds one call of `setup` takes, and its result.
fn timed<B>(setup: &impl Fn() -> Result<B, String>) -> Result<(B, f64), String> {
    let t = Instant::now();
    let state = setup()?;
    Ok((state, t.elapsed().as_secs_f64()))
}

/// Process high-water resident set (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The paper-anchor errors of an analytic pass, into `m`; prints the
/// anchor table.
fn paper_errors(pass: &AnalyticPass, m: &mut Metrics) {
    let ips = pass.sweep_ips();
    let sim = paper::simulated(&pass.report, &pass.energy, &ips);
    for (a, s) in paper::ANCHORS.iter().zip(&sim) {
        m.insert(a.metric.to_owned(), a.error(*s));
    }
    eprint!("{}", paper::table(&sim, &ips));
}

fn untraced<B: Unit>(
    setup: impl Fn() -> Result<B, String>,
    seed: u64,
    budget: Duration,
) -> Result<String, String> {
    // Every unit and every set-up is scaled to the reference host speed by
    // the calibration kernel timed next to it (see `calib`).
    let mut cal = Calibration::default();
    let (bench, first_setup) = timed(&setup)?;
    let mut setups = vec![(cal.sample(), first_setup)];
    let setup_every = budget / SETUP_REPS as u32;
    let disabled = Telemetry::disabled();
    let mut tally = Tally::default();
    let mut raw = Vec::new();
    let start = Instant::now();
    while raw.len() < MIN_UNITS || start.elapsed() < budget {
        let k = cal.sample();
        let t = Instant::now();
        let out = std::hint::black_box(bench.run(&disabled));
        raw.push((k, layers::ms_since(t)));
        tally.record(bench.check(&out));
        if setups.len() < SETUP_REPS && start.elapsed() >= setup_every * setups.len() as u32 {
            let (_, secs) = timed(&setup)?;
            setups.push((cal.sample(), secs));
            // One untimed unit, so the set-up's cache and allocator churn
            // does not land on a timed one.
            tally.record(bench.check(&bench.run(&disabled)));
        }
    }
    let scaled: Vec<f64> = raw.iter().map(|&(k, ms)| ms / cal.factor(k)).collect();
    let raw: Vec<f64> = raw.into_iter().map(|(_, ms)| ms).collect();
    let setup_ref: Vec<f64> = setups.iter().map(|&(i, s)| s / cal.factor(i)).collect();
    let setup_s = median(&setup_ref).expect("one set-up ran");
    let p50 = median(&scaled).expect("MIN_UNITS > 0");
    let tail = tail(&scaled).expect("MIN_UNITS exceeds the tail's minimum");
    let raw_tail = report::tail(&raw).expect("as above");
    eprintln!(
        "host: kernel median {:.4} ms (reference {}); wall ms p50 {:.4}, tail {:.4}; set-up wall s {:.4?}",
        cal.median_ms(),
        calib::REF_KERNEL_MS,
        median(&raw).expect("MIN_UNITS > 0"),
        raw_tail.value,
        setups.iter().map(|s| s.1).collect::<Vec<_>>()
    );

    let mut m = Metrics::new();
    m.insert("host_ref_ms_p50".into(), p50);
    m.insert("host_ref_ms_tail".into(), tail.value);
    m.insert("setup_s".into(), setup_s);
    m.insert("sim_cycles".into(), bench.sim_cycles() as f64);
    // The anchors do not depend on the seed or the workload; every
    // workload reports them so each run carries the full metric set.
    paper_errors(&Analytic::setup(seed)?.first, &mut m);
    m.insert("peak_rss_mb".into(), peak_rss_mb()?);
    eprintln!(
        "host ref ms: p50 {p50:.4}, tail p{:.2} {:.4} ({} samples, {} beyond); setup {setup_s:.4} ref s; {} sim cycles; error rate {}",
        tail.percentile,
        tail.value,
        tail.samples,
        report::TAIL_BEYOND,
        bench.sim_cycles(),
        tally.error_rate()
    );
    Ok(render_result(
        tally.failed == 0,
        tally,
        &report::end_to_end(),
        &m,
    ))
}

/// Per-layer metric names the workload does not exercise read 0.
fn zero_unexercised(m: &mut Metrics, prefixes: &[&str]) {
    for (name, _) in report::per_layer() {
        if prefixes.iter().any(|p| name.starts_with(p)) {
            m.entry(name).or_insert(0.0);
        }
    }
}

fn traced_functional(name: &str, seed: u64, budget: Duration) -> Result<String, String> {
    let f = Functional::setup(name, seed)?;
    let mut m = Metrics::new();
    let mut tally = Tally::default();
    let o = layers::overhead(&f, budget.mul_f64(0.4), &mut tally);
    m.insert("telemetry.overhead_pct".into(), o.pct());
    m.insert("host.kernel_ms".into(), o.kernel_ms);
    let mut reconciled = layers::functional_counters(&f, &o, &mut m);
    reconciled &= layers::functional_split(&f, budget.mul_f64(0.25), &mut m);
    layers::engine_probe(&f, budget.mul_f64(0.25), &mut m, &mut tally);
    layers::sram_probe(seed, budget.mul_f64(0.1), &mut m)
        .map_err(|e| format!("sram probe: {e}"))?;
    layers::simulated(&Analytic::setup(seed)?.first, &mut m);
    zero_unexercised(
        &mut m,
        &[
            "verify.check_model_ms",
            "mapping.plan_us",
            "timing.time_inference_us",
            "batching.sweep_us",
            "serve.simulate_ms",
        ],
    );
    Ok(render_result(
        tally.failed == 0 && reconciled,
        tally,
        &report::per_layer(),
        &m,
    ))
}

fn traced_analytic(seed: u64, budget: Duration) -> Result<String, String> {
    let a = Analytic::setup(seed)?;
    let mut m = Metrics::new();
    let mut tally = Tally::default();
    let o = layers::overhead(&a, budget.mul_f64(0.5), &mut tally);
    m.insert("telemetry.overhead_pct".into(), o.pct());
    m.insert("host.kernel_ms".into(), o.kernel_ms);
    layers::analytic_calls(&a, budget.mul_f64(0.4), &mut m, &mut tally);
    layers::sram_probe(seed, budget.mul_f64(0.1), &mut m)
        .map_err(|e| format!("sram probe: {e}"))?;
    layers::simulated(&a.first, &mut m);
    zero_unexercised(&mut m, &["functional.", "engine."]);
    Ok(render_result(
        tally.failed == 0,
        tally,
        &report::per_layer(),
        &m,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_owned)
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(argv(
            "--workload inception_v3_analytic --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "inception_v3_analytic",
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload mini_inception_dense --seed 1 --seconds 0 --trace 0",
            "--workload mini_inception_dense --seed 1 --seconds 1 --trace 2",
            "--workload mini_inception_dense --seconds 1 --trace 0",
            "--workload mini_inception_dense --seed",
        ] {
            assert!(parse_args(argv(bad)).is_err(), "{bad}");
        }
    }

    /// A unit whose output is corrupted counts as failed; the untouched
    /// output of the same unit passes.
    #[test]
    fn injected_mismatch_counts_as_a_failure() {
        let f = Functional::setup("mini_inception_dense", 3).expect("setup");
        let good = f.run(&Telemetry::disabled());
        let mut bad = good.clone();
        if let Ok(r) = &mut bad {
            let mut data = r.output.data().to_vec();
            data[0] ^= 1;
            r.output = nc_dnn::QTensor::from_vec(r.output.shape(), r.output.params(), data);
        }
        let mut cycles_off = good.clone();
        if let Ok(r) = &mut cycles_off {
            r.cycles.compute_cycles += 1;
        }
        let mut tally = Tally::default();
        for out in [&good, &bad, &cycles_off, &good] {
            tally.record(f.check(out));
        }
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        assert_eq!(tally.error_rate(), 0.5);
    }

    /// Same seed, same simulated results: the warm-up unit of a second
    /// set-up, the analytic pass and every simulated per-layer metric
    /// repeat exactly.
    #[test]
    fn simulated_results_repeat_for_a_seed() {
        for name in ["mini_inception_dense", "relu_sparse_skipboth"] {
            let a = Functional::setup(name, 11).expect("setup");
            let b = Functional::setup(name, 11).expect("setup");
            assert_eq!(a.first, b.first, "{name}");
            assert!(a.check(&b.run(&Telemetry::disabled())), "{name}");
        }
        let (mut ma, mut mb) = (Metrics::new(), Metrics::new());
        let pa = Analytic::setup(11).expect("pass").first;
        let pb = Analytic::setup(11).expect("pass").first;
        assert_eq!(pa, pb);
        paper_errors(&pa, &mut ma);
        paper_errors(&pb, &mut mb);
        layers::simulated(&pa, &mut ma);
        layers::simulated(&pb, &mut mb);
        assert_eq!(ma, mb);
        assert!(ma.values().all(|v| v.is_finite()));
    }

    #[test]
    fn per_layer_split_reconciles_with_the_whole_run() {
        for name in ["mini_inception_dense", "relu_sparse_skipboth"] {
            let f = Functional::setup(name, 5).expect("setup");
            let mut m = Metrics::new();
            assert!(
                layers::functional_split(&f, Duration::ZERO, &mut m),
                "{name}"
            );
            let sum: f64 = report::MINI_LAYERS
                .iter()
                .map(|l| m[&format!("functional.{l}.sim_cycles")])
                .sum();
            assert_eq!(sum, f.sim_cycles() as f64, "{name}");
        }
    }
}
