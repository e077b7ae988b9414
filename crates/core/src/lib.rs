//! # hida — an end-to-end reproduction of the HIDA hierarchical dataflow HLS compiler
//!
//! HIDA (ASPLOS 2024) converts algorithmic descriptions — PyTorch models or HLS C++
//! kernels — into optimized dataflow architectures for FPGAs. This crate ties the
//! workspace together into one user-facing pipeline:
//!
//! ```text
//! front-end (model zoo / PolyBench)      hida-frontend
//!   -> Functional dataflow (dispatch/task)    hida-opt::construct, ::fusion
//!   -> Structural dataflow (schedule/node/buffer)  hida-opt::lower
//!   -> structural optimization + IA/CA parallelization  hida-opt
//!   -> QoR estimation (throughput, resources, DSP efficiency)  hida-estimator
//!   -> HLS C++ emission  hida-emitter
//! ```
//!
//! # Quickstart
//!
//! ```
//! use hida::{Compiler, Workload};
//!
//! let result = Compiler::polybench_defaults()
//!     .compile(Workload::Polybench(hida::PolybenchKernel::TwoMm))
//!     .expect("compilation succeeds");
//! assert!(result.hls_cpp.contains("#pragma HLS dataflow"));
//! assert!(result.estimate.throughput() > 0.0);
//! ```
//!
//! Per-node optimization and estimation can run on worker threads with
//! [`Compiler::with_jobs`]; the merge order is deterministic, so any job count
//! produces byte-identical results (see `docs/ARCHITECTURE.md`):
//!
//! ```
//! use hida::{Compiler, Workload};
//!
//! let sequential = Compiler::polybench_defaults()
//!     .compile(Workload::Polybench(hida::PolybenchKernel::TwoMm))
//!     .unwrap();
//! let parallel = Compiler::polybench_defaults()
//!     .with_jobs(4)
//!     .compile(Workload::Polybench(hida::PolybenchKernel::TwoMm))
//!     .unwrap();
//! assert_eq!(sequential.estimate, parallel.estimate);
//! assert_eq!(sequential.hls_cpp, parallel.hls_cpp);
//! ```

pub mod explore;
pub mod sweep;

pub use hida_baselines as baselines;
pub use hida_dataflow_ir as dataflow_ir;
pub use hida_dialects as dialects;
pub use hida_emitter as emitter;
pub use hida_estimator as estimator;
pub use hida_frontend as frontend;
pub use hida_ir_core as ir;
pub use hida_opt as opt;
pub use hida_sim as sim;

pub use explore::{
    ExploreConfig, ExploreOutcome, Explorer, Frontier, FrontierPoint, GenerationStats, Objective,
};
pub use hida_estimator::device::FpgaDevice;
pub use hida_estimator::report::DesignEstimate;
pub use hida_estimator::shared_cache::{SharedCacheStats, SharedEstimateCache};
pub use hida_frontend::nn::Model;
pub use hida_frontend::polybench::PolybenchKernel;
pub use hida_ir_core::analysis::{
    Analysis, AnalysisCacheStats, AnalysisManager, PreservedAnalyses,
};
pub use hida_ir_core::fault::{CancelToken, FaultKind, FaultPlan, PointFaults, WorkerFault};
pub use hida_ir_core::pass::{PassOption, PassStatistics, PipelineState};
pub use hida_ir_core::registry::{PassRegistry, PipelineError};
pub use hida_ir_core::PassInvocation;
pub use hida_opt::{registry, registry_listing, HidaOptions, ParallelMode, Pipeline};
pub use sweep::{
    classify_failure, AdaptiveBudget, FailureReason, JobBudget, PointAttempt, PointFailure,
    SweepEngine, SweepOutcome, SweepPoint, SweepPointOutcome,
};

use hida_dataflow_ir::structural::ScheduleOp;
use hida_estimator::dataflow::DataflowEstimator;
use hida_ir_core::{Context, IrError, IrResult, OpId};
use std::sync::Arc;
use std::time::Instant;

/// A workload accepted by the compiler: a neural network from the model zoo, a
/// PolyBench kernel, or a module parsed from textual IR.
///
/// `Clone` is cheap for every variant (`TextIr` holds its text behind an
/// `Arc`), so the sweep and explore engines clone freely per design point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Workload {
    /// A neural network from the PyTorch-style model zoo.
    Model(Model),
    /// A PolyBench kernel with its default problem size.
    Polybench(PolybenchKernel),
    /// A PolyBench kernel with an explicit square problem size.
    PolybenchSized(PolybenchKernel, i64),
    /// A module parsed from textual IR (`hida-opt --input file.hir`).
    TextIr {
        /// Display name (typically the input file stem).
        name: Arc<str>,
        /// Module text, re-parsed into each compilation's fresh context.
        text: Arc<str>,
    },
}

impl Workload {
    /// A textual-IR workload from a display name and module text.
    pub fn text_ir(name: impl Into<Arc<str>>, text: impl Into<Arc<str>>) -> Self {
        Workload::TextIr {
            name: name.into(),
            text: text.into(),
        }
    }

    /// Human-readable workload name.
    pub fn name(&self) -> String {
        match self {
            Workload::Model(m) => m.name().to_string(),
            Workload::Polybench(k) | Workload::PolybenchSized(k, _) => k.name().to_string(),
            Workload::TextIr { name, .. } => name.to_string(),
        }
    }

    /// The widest per-point worker parallelism this workload can usefully
    /// exploit: per-node pass work and estimation fan out over dataflow
    /// nodes, so a deep DNN pipeline scales to ~its layer count while a
    /// two-node PolyBench kernel saturates almost immediately. Used by
    /// [`sweep::AdaptiveBudget`] to cap per-point thread claims.
    ///
    /// External IR gets the PolyBench width: the node count is unknown until
    /// parse time, and hand-written kernels look like PolyBench, not DNNs.
    pub fn node_parallel_width(&self) -> usize {
        match self {
            Workload::Model(Model::ResNet18) => 20,
            Workload::Model(_) => 8,
            Workload::Polybench(_) | Workload::PolybenchSized(..) | Workload::TextIr { .. } => 2,
        }
    }
}

/// Everything produced by one compilation run.
#[derive(Debug)]
pub struct CompilationResult {
    /// The IR context holding the compiled design.
    pub ctx: Context,
    /// The compiled function.
    pub func: OpId,
    /// The optimized structural schedule.
    pub schedule: ScheduleOp,
    /// The QoR estimate of the dataflow design.
    pub estimate: DesignEstimate,
    /// The QoR estimate with dataflow disabled (sequential execution).
    pub estimate_sequential: DesignEstimate,
    /// Generated Vitis-HLS-style C++.
    pub hls_cpp: String,
    /// Compile time of the HIDA flow itself, in seconds.
    pub compile_seconds: f64,
    /// Per-pass statistics recorded by the optimizer's pass pipeline (timing, op
    /// deltas, configured options, analysis cache traffic), in execution order.
    pub pass_statistics: Vec<PassStatistics>,
    /// Aggregate analysis-cache counters over the whole pipeline: how often the
    /// optimizer reused a cached profile/graph instead of re-walking the IR.
    pub analysis_cache: AnalysisCacheStats,
    /// Analysis-cache counters of the QoR estimator (the dataflow and
    /// sequential estimates share per-node results).
    pub estimator_cache: AnalysisCacheStats,
    /// This compilation's traffic against the cross-compilation estimate
    /// cache, when one was attached with [`Compiler::with_shared_estimates`]
    /// (e.g. by the [`sweep`] engine). `None` for isolated compilations.
    pub shared_estimator_cache: Option<SharedCacheStats>,
}

/// A workload lowered through the pass pipeline but not yet estimated or
/// emitted — the output of [`Compiler::lower`].
#[derive(Debug)]
pub struct LoweredDesign {
    /// The IR context holding the lowered design.
    pub ctx: Context,
    /// The module op.
    pub module: OpId,
    /// The compiled function.
    pub func: OpId,
    /// The optimized structural schedule.
    pub schedule: ScheduleOp,
}

/// Builds `workload`'s IR into a fresh module inside `ctx`; returns the
/// module and the workload function.
///
/// # Errors
/// Fails for [`Workload::TextIr`] when the module text does not parse or
/// contains no `func.func`; builder-based workloads are infallible.
pub fn build_workload(ctx: &mut Context, workload: Workload) -> IrResult<(OpId, OpId)> {
    match workload {
        Workload::Model(model) => {
            let module = ctx.create_module(model.name());
            Ok((module, hida_frontend::nn::build_model(ctx, module, model)))
        }
        Workload::Polybench(kernel) => {
            let module = ctx.create_module(kernel.name());
            let func =
                hida_frontend::polybench::build_kernel(ctx, module, kernel, kernel.default_size());
            Ok((module, func))
        }
        Workload::PolybenchSized(kernel, n) => {
            let module = ctx.create_module(kernel.name());
            let func = hida_frontend::polybench::build_kernel(ctx, module, kernel, n);
            Ok((module, func))
        }
        Workload::TextIr { name, text } => {
            let module = hida_ir_core::parse_module_into(ctx, &text)
                .map_err(|e| IrError::InvalidEntity(format!("parsing textual IR '{name}': {e}")))?;
            if !ctx.op(module).is(hida_ir_core::op_names::MODULE) {
                return Err(IrError::InvalidEntity(format!(
                    "textual IR '{name}' must have a builtin.module root, found \"{}\"",
                    ctx.op(module).name
                )));
            }
            let func = ctx
                .body_ops(module)
                .into_iter()
                .find(|&op| ctx.op(op).is(hida_ir_core::op_names::FUNC))
                .ok_or_else(|| {
                    IrError::InvalidEntity(format!(
                        "textual IR '{name}' contains no func.func to compile"
                    ))
                })?;
            Ok((module, func))
        }
    }
}

/// The end-to-end HIDA compiler.
#[derive(Debug, Clone)]
pub struct Compiler {
    options: HidaOptions,
    /// Explicit textual pipeline overriding the options-derived flow, when set.
    pipeline: Option<String>,
    /// Worker threads for per-node pass work and QoR estimation (1 = fully
    /// sequential).
    jobs: usize,
    /// Cross-compilation estimate cache shared with other compilations of the
    /// same sweep, when attached.
    shared_estimates: Option<Arc<SharedEstimateCache>>,
    /// Whether the pipeline verifies the IR between passes and after the run
    /// (on by default; disable to trade safety for compile time).
    verification: bool,
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler::new(HidaOptions::default())
    }
}

impl Compiler {
    /// Creates a compiler with explicit options and sequential (one-job)
    /// execution.
    pub fn new(options: HidaOptions) -> Self {
        Compiler {
            options,
            pipeline: None,
            jobs: 1,
            shared_estimates: None,
            verification: true,
        }
    }

    /// Compiler tuned for the PolyBench kernels on the ZU3EG device (Table 7 setup).
    pub fn polybench_defaults() -> Self {
        Compiler::new(HidaOptions::polybench())
    }

    /// Compiler tuned for DNN models on one VU9P SLR (Table 8 setup).
    pub fn dnn_defaults() -> Self {
        Compiler::new(HidaOptions::dnn())
    }

    /// Returns the configured options.
    pub fn options(&self) -> &HidaOptions {
        &self.options
    }

    /// Replaces the options (builder style).
    pub fn with_options(mut self, options: HidaOptions) -> Self {
        self.options = options;
        self
    }

    /// Uses an explicit textual pass pipeline instead of the flow derived from
    /// the options (builder style). The text is parsed through the HIDA pass
    /// registry at compile time; the options still drive workload construction
    /// and QoR estimation (the target device).
    pub fn with_pipeline(mut self, text: impl Into<String>) -> Self {
        self.pipeline = Some(text.into());
        self
    }

    /// The explicit pipeline text, when one was set with
    /// [`Compiler::with_pipeline`].
    pub fn pipeline_text(&self) -> Option<&str> {
        self.pipeline.as_deref()
    }

    /// Sets the worker-thread count for per-node pass work (tiling,
    /// parallelization, profiling) and per-node QoR estimation. `1` — the
    /// default — is the bitwise-reproducibility escape hatch; any other value
    /// produces byte-identical results faster on multi-node designs.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The configured worker-thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Attaches a cross-compilation estimate cache (builder style): per-node
    /// QoR estimates are shared with every other compilation holding a clone
    /// of the same `Arc`, keyed by content fingerprint and device, so a
    /// design-space sweep re-estimates only the nodes that actually changed
    /// between design points. Results are byte-identical with or without the
    /// cache; [`CompilationResult::shared_estimator_cache`] reports the
    /// traffic.
    pub fn with_shared_estimates(mut self, cache: Arc<SharedEstimateCache>) -> Self {
        self.shared_estimates = Some(cache);
        self
    }

    /// The attached cross-compilation estimate cache, if any.
    pub fn shared_estimates(&self) -> Option<&Arc<SharedEstimateCache>> {
        self.shared_estimates.as_ref()
    }

    /// Enables or disables IR verification (builder style): inter-pass
    /// verification inside the pipeline and the final whole-module check.
    /// On by default; the CLI's `--no-verify` maps to `false`.
    pub fn with_verification(mut self, enabled: bool) -> Self {
        self.verification = enabled;
        self
    }

    /// Whether IR verification runs (see [`Compiler::with_verification`]).
    pub fn verification(&self) -> bool {
        self.verification
    }

    /// Compiles a workload end to end.
    ///
    /// # Errors
    /// Propagates front-end or optimization failures.
    pub fn compile(&self, workload: Workload) -> IrResult<CompilationResult> {
        let mut ctx = Context::new();
        let (module, func) = build_workload(&mut ctx, workload)?;
        self.compile_func(ctx, module, func)
    }

    /// Runs the front end and the pass pipeline only — no QoR estimation, no
    /// emission. This is the cheap "probe" half of a compilation the
    /// design-space explorer scores candidates with: the returned design
    /// holds the optimized structural schedule, ready for
    /// [`hida_estimator::surrogate::design_bound`].
    ///
    /// # Errors
    /// Propagates front-end or optimization failures.
    pub fn lower(&self, workload: Workload) -> IrResult<LoweredDesign> {
        let mut ctx = Context::new();
        let (module, func) = build_workload(&mut ctx, workload)?;
        let mut pipeline = self.build_pipeline()?;
        let schedule = pipeline.run(&mut ctx, func)?;
        Ok(LoweredDesign {
            ctx,
            module,
            func,
            schedule,
        })
    }

    /// The pass pipeline this compiler runs: the explicit pipeline text if
    /// one was set, else the flow derived from the options, with the job
    /// count and verification setting applied.
    fn build_pipeline(&self) -> IrResult<Pipeline> {
        let pipeline = match &self.pipeline {
            Some(text) => Pipeline::parse(&registry(), text)
                .map_err(|e| IrError::pass_failed("hida-pipeline", e.to_string()))?,
            None => Pipeline::from_options(&self.options),
        };
        Ok(pipeline
            .with_jobs(self.jobs)
            .with_verification(self.verification))
    }

    /// Compiles an already-constructed function (advanced use: custom front-ends).
    ///
    /// # Errors
    /// Propagates optimization failures and IR verification errors.
    pub fn compile_func(
        &self,
        mut ctx: Context,
        module: OpId,
        func: OpId,
    ) -> IrResult<CompilationResult> {
        let start = Instant::now();
        // Chaos-harness site: an armed stall sleeps here, at the very start of
        // the point's compilation, where a per-point deadline will catch it.
        hida_ir_core::fault::injected_stall("compile:start");
        let mut pipeline = self.build_pipeline()?;
        let schedule = pipeline.run(&mut ctx, func)?;
        let pass_statistics = pipeline.statistics().to_vec();
        let analysis_cache = PassStatistics::aggregate_cache(&pass_statistics);
        if self.verification {
            hida_ir_core::verifier::verify(&ctx, module)
                .map_err(|e| IrError::pass_failed("hida-pipeline", e.to_string()))?;
        }
        let mut estimator =
            DataflowEstimator::new(self.options.device.clone()).with_jobs(self.jobs);
        if let Some(cache) = &self.shared_estimates {
            estimator = estimator.with_shared_cache(cache.clone());
        }
        let estimate = estimator.estimate_schedule(&ctx, schedule, true);
        let estimate_sequential = estimator.estimate_schedule(&ctx, schedule, false);
        let estimator_cache = estimator.cache_stats();
        let shared_estimator_cache = self
            .shared_estimates
            .as_ref()
            .map(|_| estimator.shared_cache_stats());
        let hls_cpp = hida_emitter::emit_schedule(&ctx, schedule);
        let compile_seconds = start.elapsed().as_secs_f64();
        Ok(CompilationResult {
            ctx,
            func,
            schedule,
            estimate,
            estimate_sequential,
            hls_cpp,
            compile_seconds,
            pass_statistics,
            analysis_cache,
            estimator_cache,
            shared_estimator_cache,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_polybench_compilation_works_end_to_end() {
        let result = Compiler::polybench_defaults()
            .compile(Workload::PolybenchSized(PolybenchKernel::TwoMm, 32))
            .unwrap();
        assert!(result.estimate.throughput() > 0.0);
        assert!(result.estimate.throughput() >= result.estimate_sequential.throughput());
        assert!(result.hls_cpp.contains("#pragma HLS dataflow"));
        assert!(result.compile_seconds < 60.0);
        assert_eq!(result.schedule.nodes(&result.ctx).len(), 2);
    }

    #[test]
    fn dnn_compilation_produces_a_deep_pipeline() {
        let result = Compiler::dnn_defaults()
            .compile(Workload::Model(Model::LeNet))
            .unwrap();
        assert!(result.schedule.nodes(&result.ctx).len() >= 3);
        assert!(result.estimate.macs_per_sample > 100_000);
        assert!(result.estimate.dsp_efficiency() > 0.0);
    }

    #[test]
    fn workload_names_are_stable() {
        assert_eq!(Workload::Model(Model::ResNet18).name(), "resnet-18");
        assert_eq!(Workload::Polybench(PolybenchKernel::Atax).name(), "atax");
        assert_eq!(
            Workload::PolybenchSized(PolybenchKernel::Mvt, 64).name(),
            "mvt"
        );
    }

    #[test]
    fn compilation_result_exposes_per_pass_statistics() {
        let result = Compiler::polybench_defaults()
            .compile(Workload::PolybenchSized(PolybenchKernel::TwoMm, 32))
            .unwrap();
        let expected = Pipeline::from_options(&HidaOptions::polybench()).pass_names();
        let recorded: Vec<String> = result
            .pass_statistics
            .iter()
            .map(|s| s.pass.clone())
            .collect();
        assert!(!recorded.is_empty());
        assert_eq!(recorded, expected);
        // Statistics are genuinely per-pass: every record carries op counts, and the
        // construction pass visibly grows the IR.
        assert!(result.pass_statistics[0].op_delta() > 0);
        for stat in &result.pass_statistics {
            assert!(stat.live_ops_after > 0);
        }
    }

    #[test]
    fn explicit_pipeline_overrides_the_options_flow() {
        let result = Compiler::polybench_defaults()
            .with_pipeline("construct,lower,parallelize{max-factor=16,device=zu3eg}")
            .compile(Workload::PolybenchSized(PolybenchKernel::TwoMm, 32))
            .unwrap();
        let recorded: Vec<String> = result
            .pass_statistics
            .iter()
            .map(|s| s.pass.clone())
            .collect();
        assert_eq!(
            recorded,
            vec![
                "hida-construct-dataflow",
                "hida-lower-structural",
                "hida-parallelize",
            ]
        );
        // A malformed pipeline surfaces as an error, not a panic.
        let err = Compiler::polybench_defaults()
            .with_pipeline("construct,,lower")
            .compile(Workload::PolybenchSized(PolybenchKernel::TwoMm, 32));
        assert!(err.is_err());
    }

    #[test]
    fn compilation_reports_analysis_cache_reuse() {
        let result = Compiler::polybench_defaults()
            .compile(Workload::PolybenchSized(PolybenchKernel::TwoMm, 32))
            .unwrap();
        // The pipeline reuses profiles across passes: tiling consumes the node
        // profiles warmed during lowering, parallelization re-queries them for
        // connection analysis, node sorting and partition assignment.
        assert!(
            result.analysis_cache.hits >= 2,
            "expected cross-pass cache hits, got {:?}",
            result.analysis_cache
        );
        assert!(result.analysis_cache.misses >= 1);
        // The polybench preset may omit tiling; when present it must reuse the
        // node profiles warmed during lowering.
        if let Some(tiling) = result
            .pass_statistics
            .iter()
            .find(|s| s.pass == "hida-tiling")
        {
            assert!(tiling.cache.hits >= 1, "{:?}", tiling.cache);
        }
        let parallelize = result
            .pass_statistics
            .iter()
            .find(|s| s.pass == "hida-parallelize")
            .unwrap();
        assert!(parallelize.cache.hits >= 1, "{:?}", parallelize.cache);
        // The sequential estimate reused the dataflow estimate's node results.
        assert!(
            result.estimator_cache.hits >= 1,
            "{:?}",
            result.estimator_cache
        );
        assert!(result.pass_statistics.iter().all(|s| !s.failed));
    }

    #[test]
    fn options_builder_round_trips() {
        let compiler = Compiler::default().with_options(HidaOptions {
            max_parallel_factor: 128,
            ..HidaOptions::dnn()
        });
        assert_eq!(compiler.options().max_parallel_factor, 128);
    }
}
