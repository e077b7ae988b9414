//! The traced compile: `Compiler::compile` taken apart into the calls it makes
//! into each layer's public functions, with a span around every call.
//!
//! Nothing inside the compiler is instrumented. The front end, pipeline
//! construction, the pass pipeline, final verification, both estimates and
//! emission are called here in the same order and with the same arguments as
//! `Compiler::compile_func` (one job, verification on, no shared cache), and
//! each registry-created pass is wrapped in a [`TimedPass`] that delegates
//! every trait method. The outputs must therefore be byte-identical to an
//! untraced compile; the benchmark checks that on every traced compile.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hida::estimator::dataflow::DataflowEstimator;
use hida::ir::analysis::AnalysisSnapshot;
use hida::ir::{
    parse_pipeline, AnalysisCacheStats, AnalysisManager, Context, IrError, IrResult, NodeScope,
    OpId, Pass, PassOption, PipelineState, PreservedAnalyses,
};
use hida::{registry, Compiler, Pipeline, Workload};

use crate::designs::Outputs;

/// The passes of the standard flows, in pipeline order; every traced run
/// reports all of them (zero for a pass a workload's flow leaves out).
pub const PASSES: [&str; 7] = [
    "hida-construct-dataflow",
    "hida-task-fusion",
    "hida-lower-structural",
    "hida-eliminate-multi-producers",
    "hida-tiling",
    "hida-balance-data-paths",
    "hida-parallelize",
];

/// Time and IR size recorded by one [`TimedPass`]. Atomics only because a
/// `Pass` must be `Sync`; the traced compile runs on one thread.
#[derive(Default)]
pub struct PassProbe {
    nanos: AtomicU64,
    ops_after: AtomicUsize,
}

impl PassProbe {
    fn record(&self, start: Instant, ctx: &Context) {
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.ops_after.store(ctx.num_live_ops(), Ordering::Relaxed);
    }

    fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// A pass wrapper that times the wrapped pass's body and records the live op
/// count after it. Every trait method delegates, so the pass manager sees
/// the wrapped pass's name, options, verification and preservation
/// declarations and parallel hooks unchanged. Worker-side `run_on_root`
/// calls are not timed: they overlap on the pool (the traced compile runs
/// with one job, where the manager never calls them).
pub struct TimedPass {
    inner: Box<dyn Pass>,
    probe: Arc<PassProbe>,
}

impl TimedPass {
    pub fn new(inner: Box<dyn Pass>) -> Self {
        TimedPass {
            inner,
            probe: Arc::new(PassProbe::default()),
        }
    }

    pub fn probe(&self) -> Arc<PassProbe> {
        Arc::clone(&self.probe)
    }
}

impl Pass for TimedPass {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn options(&self) -> Vec<PassOption> {
        self.inner.options()
    }

    fn verify_after(&self) -> bool {
        self.inner.verify_after()
    }

    fn preserved_analyses(&self) -> PreservedAnalyses {
        self.inner.preserved_analyses()
    }

    fn run(
        &self,
        ctx: &mut Context,
        root: OpId,
        state: &mut PipelineState,
        analyses: &mut AnalysisManager,
    ) -> IrResult<()> {
        let start = Instant::now();
        let result = self.inner.run(ctx, root, state, analyses);
        self.probe.record(start, ctx);
        result
    }

    fn parallelizable_roots(
        &self,
        ctx: &Context,
        root: OpId,
        state: &PipelineState,
        analyses: &mut AnalysisManager,
    ) -> Option<Vec<Vec<OpId>>> {
        let start = Instant::now();
        let roots = self.inner.parallelizable_roots(ctx, root, state, analyses);
        self.probe.record(start, ctx);
        roots
    }

    fn run_on_root(&self, scope: &mut NodeScope<'_>, snapshot: &AnalysisSnapshot) -> IrResult<()> {
        self.inner.run_on_root(scope, snapshot)
    }

    fn finish_parallel(
        &self,
        ctx: &mut Context,
        root: OpId,
        state: &mut PipelineState,
        analyses: &mut AnalysisManager,
    ) -> IrResult<()> {
        let start = Instant::now();
        let result = self.inner.finish_parallel(ctx, root, state, analyses);
        self.probe.record(start, ctx);
        result
    }
}

/// Per-layer spans of one traced compile, in seconds.
#[derive(Debug, Default, Clone)]
pub struct CompileTrace {
    /// The whole traced compile: front end to emitted C++.
    pub wall: f64,
    /// `build_workload` through a builder (model zoo, PolyBench builder).
    pub frontend_build: f64,
    /// `build_workload` through the textual-IR parser.
    pub ir_parse: f64,
    /// `registry()`, pipeline parsing and pass creation.
    pub pipeline_build: f64,
    /// `Pipeline::run`, of which the pass spans are a part.
    pub pipeline_run: f64,
    /// Per pass of [`PASSES`]: (seconds in the pass, live ops after it).
    pub passes: [(f64, usize); PASSES.len()],
    /// Final `verifier::verify` of the module.
    pub verify_final: f64,
    /// Both `estimate_schedule` calls, estimator construction included.
    pub estimator: f64,
    /// `emit_schedule`.
    pub emitter: f64,
    /// `structural_fingerprint` of the lowered module (outside `wall`: a
    /// compile does not fingerprint, a cache keyed on it would).
    pub fingerprint: f64,
    /// The estimator's memo traffic over both estimates.
    pub estimator_memo: AnalysisCacheStats,
    /// Analysis-cache traffic over the pass pipeline.
    pub analysis_cache: AnalysisCacheStats,
}

impl CompileTrace {
    /// Seconds in the pass bodies.
    pub fn pass_total(&self) -> f64 {
        self.passes.iter().map(|(s, _)| s).sum()
    }

    /// `Pipeline::run` time outside the pass bodies: inter-pass verification
    /// and the pass manager's bookkeeping.
    pub fn verify_interpass(&self) -> f64 {
        (self.pipeline_run - self.pass_total()).max(0.0)
    }

    /// Seconds covered by the layer spans inside `wall`.
    pub fn covered(&self) -> f64 {
        self.frontend_build
            + self.ir_parse
            + self.pipeline_build
            + self.pipeline_run
            + self.verify_final
            + self.estimator
            + self.emitter
    }
}

fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Compiles `workload` the way `compiler.compile` does, timing each layer.
/// Only the compiler's options and pipeline text are used: the traced
/// compile always runs with one job, verification on and no shared cache,
/// which is how every reference is compiled.
///
/// # Errors
/// The same errors `Compiler::compile` reports for the same input.
pub fn traced_compile(
    compiler: &Compiler,
    workload: Workload,
) -> IrResult<(Outputs, CompileTrace)> {
    let mut trace = CompileTrace::default();
    let start = Instant::now();

    let mut ctx = Context::new();
    let parsed = matches!(workload, Workload::TextIr { .. });
    let t = Instant::now();
    let (module, func) = hida::build_workload(&mut ctx, workload)?;
    if parsed {
        trace.ir_parse = seconds_since(t);
    } else {
        trace.frontend_build = seconds_since(t);
    }

    let t = Instant::now();
    let text = compiler
        .pipeline_text()
        .map(str::to_string)
        .unwrap_or_else(|| compiler.options().pipeline_text());
    let registry = registry();
    let mut pipeline = Pipeline::new();
    let mut probes = Vec::new();
    let invocations =
        parse_pipeline(&text).map_err(|e| IrError::pass_failed("hida-pipeline", e.to_string()))?;
    for invocation in &invocations {
        let (_, pass) = registry
            .create(invocation)
            .map_err(|e| IrError::pass_failed("hida-pipeline", e.to_string()))?;
        let timed = TimedPass::new(pass);
        probes.push((timed.name().to_string(), timed.probe()));
        pipeline.add_pass(timed);
    }
    drop(registry);
    let mut pipeline = pipeline.with_jobs(1);
    trace.pipeline_build = seconds_since(t);

    let t = Instant::now();
    let schedule = pipeline.run(&mut ctx, func)?;
    trace.pipeline_run = seconds_since(t);
    for (name, probe) in &probes {
        if let Some(slot) = PASSES.iter().position(|p| p == name) {
            trace.passes[slot].0 += probe.seconds();
            trace.passes[slot].1 = probe.ops_after.load(Ordering::Relaxed);
        }
    }
    trace.analysis_cache = hida::PassStatistics::aggregate_cache(pipeline.statistics());

    let t = Instant::now();
    hida::ir::verifier::verify(&ctx, module)
        .map_err(|e| IrError::pass_failed("hida-pipeline", e.to_string()))?;
    trace.verify_final = seconds_since(t);

    let t = Instant::now();
    let estimator = DataflowEstimator::new(compiler.options().device.clone()).with_jobs(1);
    let estimate = estimator.estimate_schedule(&ctx, schedule, true);
    let estimate_sequential = estimator.estimate_schedule(&ctx, schedule, false);
    trace.estimator = seconds_since(t);
    trace.estimator_memo = estimator.cache_stats();

    let t = Instant::now();
    let hls_cpp = hida::emitter::emit_schedule(&ctx, schedule);
    trace.emitter = seconds_since(t);
    // `Compiler::compile` drops its pipeline and estimator before it
    // returns; so does the traced compile, inside `wall`.
    drop(pipeline);
    drop(estimator);
    trace.wall = seconds_since(start);

    let t = Instant::now();
    std::hint::black_box(hida::ir::structural_fingerprint(&ctx, module));
    trace.fingerprint = seconds_since(t);

    Ok((
        Outputs {
            hls_cpp,
            estimate,
            estimate_sequential,
        },
        trace,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida::{HidaOptions, Model, PolybenchKernel};

    fn assert_identical(compiler: &Compiler, workload: Workload) {
        let plain = compiler
            .compile(workload.clone())
            .expect("untraced compile");
        let (traced, trace) = traced_compile(compiler, workload).expect("traced compile");
        assert_eq!(traced.hls_cpp, plain.hls_cpp);
        assert_eq!(traced.estimate, plain.estimate);
        assert_eq!(traced.estimate_sequential, plain.estimate_sequential);
        assert_eq!(trace.analysis_cache, plain.analysis_cache);
        assert_eq!(trace.estimator_memo, plain.estimator_cache);
        // Every pass the flow ran was seen by its wrapper, with the same IR
        // size the pass manager recorded.
        for stat in &plain.pass_statistics {
            let slot = PASSES
                .iter()
                .position(|p| *p == stat.pass)
                .expect("known pass");
            assert_eq!(trace.passes[slot].1, stat.live_ops_after, "{}", stat.pass);
        }
        assert!(trace.covered() <= trace.wall);
    }

    #[test]
    fn wrapped_passes_produce_byte_identical_output() {
        assert_identical(
            &Compiler::polybench_defaults(),
            Workload::PolybenchSized(PolybenchKernel::TwoMm, 16),
        );
        assert_identical(&Compiler::dnn_defaults(), Workload::Model(Model::LeNet));
        assert_identical(
            &Compiler::new(HidaOptions::dnn()).with_pipeline(hida_bench::variants::fig10(8, 4)),
            Workload::Model(Model::LeNet),
        );
    }

    #[test]
    fn text_input_is_timed_as_parsing() {
        let mut ctx = Context::new();
        let module = ctx.create_module("atax");
        hida::frontend::polybench::build_kernel(&mut ctx, module, PolybenchKernel::Atax, 16);
        let text = hida::ir::printer::print_op(&ctx, module);
        let workload = Workload::text_ir("atax", text);
        assert_identical(&Compiler::polybench_defaults(), workload.clone());
        let (_, trace) = traced_compile(&Compiler::polybench_defaults(), workload).unwrap();
        assert!(trace.ir_parse > 0.0);
        assert_eq!(trace.frontend_build, 0.0);
    }
}
