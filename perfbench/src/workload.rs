//! The three seeded workloads: what one unit of work is, how it is set up
//! from the seed, and how its output is checked.

use nc_dnn::inception::inception_v3;
use nc_dnn::reference::{self, SublayerRecord};
use nc_dnn::workload::{mini_inception, random_input, relu_sparse_input, relu_sparse_mini};
use nc_dnn::{Model, QTensor};
use nc_serve::{simulate_traced, ServeConfig, ServingSummary, TraceConfig};
use nc_telemetry::Telemetry;
use neural_cache::functional::{self, FunctionalError, FunctionalResult};
use neural_cache::{
    energy_of, plan_model, throughput_sweep, time_inference, trace_inference_report,
    BatchCostModel, BatchReport, EnergyReport, ExecutionEngine, InferenceReport, LayerPlan,
    NeuralCache, SparsityMode, SystemConfig,
};

use crate::report::SWEEP_BATCHES;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = [
    "mini_inception_dense",
    "relu_sparse_skipboth",
    "inception_v3_analytic",
];

/// Share of exact-zero input codes of the ReLU-sparse workload.
const RELU_ZERO_FRACTION: f64 = 0.6;
/// Low bits kept by the surviving ReLU-sparse input codes.
const RELU_KEEP_BITS: u32 = 3;
/// Workers of the Threaded engine in the engine probe (the benchmark host
/// has two cores).
pub const THREADS: usize = 2;
/// Offered load of the serving trace: the paper's 604 inf/s, rounded.
const SERVE_RATE_RPS: f64 = 600.0;
/// Requests in the serving trace.
const SERVE_REQUESTS: usize = 256;

/// A benchmark workload's unit of work.
pub trait Unit {
    /// What one unit returns.
    type Out;
    /// Runs one unit, recording into `tel` (the disabled sink on untraced
    /// runs).
    fn run(&self, tel: &Telemetry) -> Self::Out;
    /// Whether a unit's output is correct.
    fn check(&self, out: &Self::Out) -> bool;
    /// Simulated array cycles of one unit.
    fn sim_cycles(&self) -> u64;
}

/// A bit-accurate inference workload (`mini_inception_dense`,
/// `relu_sparse_skipboth`).
#[derive(Debug)]
pub struct Functional {
    /// The network, built from the seed.
    pub model: Model,
    /// The input tensor, built from the seed.
    pub input: QTensor,
    /// The configured system the unit runs on.
    pub system: NeuralCache,
    /// Output of the `nc_dnn::reference` golden run.
    pub golden_output: QTensor,
    /// Sub-layer records of the golden run.
    pub golden_sublayers: Vec<SublayerRecord>,
    /// The warm-up unit, whose simulated counters every later unit must
    /// repeat.
    pub first: FunctionalResult,
}

impl Functional {
    /// Builds the workload named `name` from `seed`: model, input, golden
    /// reference run and one checked warm-up unit.
    pub fn setup(name: &str, seed: u64) -> Result<Self, String> {
        let input_seed = seed.wrapping_add(1);
        let (model, input, config) = match name {
            "mini_inception_dense" => {
                let model = mini_inception(seed);
                let input = random_input(model.input_shape, model.input_quant, input_seed);
                (model, input, SystemConfig::xeon_e5_2697_v3())
            }
            "relu_sparse_skipboth" => {
                let model = relu_sparse_mini(seed);
                let input = relu_sparse_input(
                    model.input_shape,
                    RELU_ZERO_FRACTION,
                    RELU_KEEP_BITS,
                    input_seed,
                );
                let config = SystemConfig::with_sparsity(SparsityMode::SkipBoth);
                (model, input, config)
            }
            other => return Err(format!("{other} is not a functional workload")),
        };
        let golden = reference::run_model(&model, &input);
        let system = NeuralCache::new(config);
        let first = system
            .run_functional(&model, &input)
            .map_err(|e| format!("warm-up unit failed: {e}"))?;
        let bench = Functional {
            golden_sublayers: golden
                .layers
                .into_iter()
                .flat_map(|l| l.sublayers)
                .collect(),
            golden_output: golden.output,
            model,
            input,
            system,
            first,
        };
        if !bench.matches_golden(&bench.first) {
            return Err("warm-up unit differs from the reference run".into());
        }
        Ok(bench)
    }

    /// Runs one unit on an explicit engine (same sparsity mode).
    pub fn run_on(
        &self,
        engine: ExecutionEngine,
        tel: &Telemetry,
    ) -> Result<FunctionalResult, FunctionalError> {
        let mode = self.system.config().sparsity;
        functional::run_model_traced(&self.model, &self.input, engine, mode, tel)
    }

    fn matches_golden(&self, r: &FunctionalResult) -> bool {
        r.output.data() == self.golden_output.data()
            && r.output.params() == self.golden_output.params()
            && r.sublayers == self.golden_sublayers
    }
}

impl Unit for Functional {
    type Out = Result<FunctionalResult, FunctionalError>;

    fn run(&self, tel: &Telemetry) -> Self::Out {
        if tel.is_enabled() {
            self.run_on(self.system.config().parallelism, tel)
        } else {
            self.system.run_functional(&self.model, &self.input)
        }
    }

    /// Output bytes and sub-layer records must match the reference run, and
    /// the simulated counters must repeat the warm-up unit's.
    fn check(&self, out: &Self::Out) -> bool {
        match out {
            Ok(r) => {
                self.matches_golden(r) && r.cycles == self.first.cycles && r.pool == self.first.pool
            }
            Err(_) => false,
        }
    }

    fn sim_cycles(&self) -> u64 {
        self.first.cycles.total_cycles()
    }
}

/// Everything one analytic pass over Inception v3 produces.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticPass {
    /// `check_model` diagnostics.
    pub diagnostics: usize,
    /// Whether `check_model` came back clean.
    pub clean: bool,
    /// The per-layer plans.
    pub plans: Vec<LayerPlan>,
    /// Batch-1 timing report.
    pub report: InferenceReport,
    /// Energy of the batch-1 inference.
    pub energy: EnergyReport,
    /// Figure 16 sweep over [`SWEEP_BATCHES`].
    pub sweep: Vec<BatchReport>,
    /// Serving-simulation summary.
    pub serving: ServingSummary,
}

impl AnalyticPass {
    /// Sweep throughputs, in [`SWEEP_BATCHES`] order.
    #[must_use]
    pub fn sweep_ips(&self) -> Vec<f64> {
        self.sweep.iter().map(|b| b.throughput_ips).collect()
    }
}

/// The analytic Inception v3 workload (`inception_v3_analytic`): nothing
/// executes bit by bit.
#[derive(Debug)]
pub struct Analytic {
    /// The full 299x299 network (shape only).
    pub model: Model,
    /// The paper's system.
    pub config: SystemConfig,
    /// Serving setup.
    pub serve: ServeConfig,
    /// Seeded Poisson arrival trace.
    pub trace: TraceConfig,
    /// The warm-up pass every later pass must repeat.
    pub first: AnalyticPass,
}

impl Analytic {
    /// Builds the model and the seeded trace and runs one checked warm-up
    /// pass.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let model = inception_v3();
        let config = SystemConfig::xeon_e5_2697_v3();
        let serve = ServeConfig::default_two_slice();
        let trace = TraceConfig::poisson(SERVE_RATE_RPS, SERVE_REQUESTS, seed);
        let first = analytic_pass(&model, &config, &serve, &trace, &Telemetry::disabled());
        if !Self::sound(&first) {
            return Err(format!(
                "warm-up pass unsound: clean={} conservation={}",
                first.clean,
                first.serving.conservation_holds()
            ));
        }
        Ok(Analytic {
            model,
            config,
            serve,
            trace,
            first,
        })
    }

    fn sound(p: &AnalyticPass) -> bool {
        p.clean && p.serving.conservation_holds() && p.serving.goodput_bounded()
    }
}

impl Unit for Analytic {
    type Out = AnalyticPass;

    fn run(&self, tel: &Telemetry) -> AnalyticPass {
        analytic_pass(&self.model, &self.config, &self.serve, &self.trace, tel)
    }

    /// The verifier must be clean, serving must conserve requests, and every
    /// simulated report must repeat the warm-up pass.
    fn check(&self, out: &AnalyticPass) -> bool {
        Self::sound(out) && *out == self.first
    }

    fn sim_cycles(&self) -> u64 {
        self.first
            .report
            .layers
            .iter()
            .map(|l| l.compute_cycles)
            .sum()
    }
}

/// One pass of the analytic workload: verify, plan, time, price, sweep and
/// serve.
fn analytic_pass(
    model: &Model,
    config: &SystemConfig,
    serve: &ServeConfig,
    trace: &TraceConfig,
    tel: &Telemetry,
) -> AnalyticPass {
    let verify = nc_verify::check_model(config, model);
    let plans = plan_model(model, &config.geometry);
    let report = time_inference(config, model);
    trace_inference_report(tel, &report);
    let energy = energy_of(config, &report);
    let sweep = throughput_sweep(config, model, &SWEEP_BATCHES);
    let cost = BatchCostModel::new(&serve.system, model);
    let serving = simulate_traced(serve, &cost, trace, tel).summary;
    AnalyticPass {
        diagnostics: verify.diagnostics.len(),
        clean: verify.is_clean(),
        plans,
        report,
        energy,
        sweep,
        serving,
    }
}
