//! The HIDA-OPT pass pipeline.
//!
//! Every step of the optimizer (paper §6) is wrapped as a named
//! [`Pass`] so the whole flow becomes *data*: a [`Pipeline`]
//! assembled by [`Pipeline::from_options`] and executed by the shared
//! [`PassManager`]. Option toggles map to pipeline membership (fusion, balancing
//! and tiling passes are simply absent when disabled) while scalar knobs become
//! pass-instance options, visible in the recorded
//! [`PassStatistics`].
//!
//! The structural [`ScheduleOp`] produced by [`LowerPass`] flows to the later
//! structural passes through the typed [`PipelineState`] slot map, so a custom
//! pipeline can splice in extra passes between lowering and parallelization
//! without any signature changes. Compute profiles and dataflow graphs flow
//! through the pass manager's `AnalysisManager` instead: each pass fetches
//! them from the cache and declares which analyses its mutations preserve, so
//! a profile computed once (e.g. while lowering a task to a node) is reused by
//! every later pass until the IR underneath it actually changes.
//!
//! The default pipeline assembled from [`HidaOptions`] is:
//!
//! | pass | gated by |
//! |------|----------|
//! | [`ConstructPass`] (`hida-construct-dataflow`) | always |
//! | [`FusionPass`] (`hida-task-fusion`) | `enable_fusion` |
//! | [`LowerPass`] (`hida-lower-structural`) | always |
//! | [`MultiProducerEliminationPass`] (`hida-eliminate-multi-producers`) | `enable_balancing` |
//! | [`TilingPass`] (`hida-tiling`) | `tile_size.is_some()` |
//! | [`BalancePass`] (`hida-balance-data-paths`) | `enable_balancing` |
//! | [`ParallelizePass`] (`hida-parallelize`) | always |
//!
//! [`ProfilePass`] (`hida-profile-nodes`, registry name `profile`) is not part
//! of the default flow but can be spliced in after lowering to warm per-node
//! profiles — in parallel under `--jobs N`.
//!
//! # Parallel execution
//!
//! Tiling, parallelization and profiling declare their per-node work through
//! [`Pass::parallelizable_roots`]: with [`Pipeline::with_jobs`] `> 1` the pass
//! manager freezes the analysis cache into a snapshot, fans the declared nodes
//! out to a work-stealing pool, and merges the scoped attribute edits back in
//! declaration order — so `--jobs 1` and `--jobs N` produce byte-identical IR.
//! Fusion and lowering restructure the IR across node boundaries and stay
//! sequential.

use crate::{construct, fusion, lower, parallelize, structural_opt, tiling};
use crate::{HidaOptions, ParallelMode};
use hida_dataflow_ir::graph::DataflowGraph;
use hida_dataflow_ir::structural::ScheduleOp;
use hida_dialects::analysis::ComputeProfile;
use hida_estimator::device::FpgaDevice;
use hida_ir_core::analysis::{AnalysisManager, AnalysisSnapshot, PreservedAnalyses};
use hida_ir_core::pass::{Pass, PassManager, PassOption, PassStatistics, PipelineState};
use hida_ir_core::registry::{PassRegistry, PipelineError};
use hida_ir_core::{
    parse_pipeline, print_pipeline, Analysis, Context, IrError, IrResult, NodeScope, OpId,
    PassInvocation,
};

/// Retrieves the schedule deposited by [`LowerPass`], failing with a diagnostic
/// naming the requesting pass when lowering has not run yet.
fn schedule_from(state: &PipelineState, pass: &str) -> IrResult<ScheduleOp> {
    state.get::<ScheduleOp>().copied().ok_or_else(|| {
        IrError::pass_failed(
            pass,
            "no ScheduleOp in pipeline state — run hida-lower-structural first",
        )
    })
}

/// Functional dataflow construction (Algorithm 1) as a pipeline pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct ConstructPass;

impl Pass for ConstructPass {
    fn name(&self) -> &str {
        "hida-construct-dataflow"
    }

    fn run(
        &self,
        ctx: &mut Context,
        root: OpId,
        _state: &mut PipelineState,
        _analyses: &mut AnalysisManager,
    ) -> IrResult<()> {
        construct::construct_functional_dataflow(ctx, root)
    }
}

/// Task fusion (Algorithm 2) as a pipeline pass, configurable with a pattern set.
pub struct FusionPass {
    patterns: Vec<Box<dyn fusion::FusionPattern>>,
}

impl Default for FusionPass {
    fn default() -> Self {
        Self::new()
    }
}

impl FusionPass {
    /// Fusion with the default profitable patterns.
    pub fn new() -> Self {
        FusionPass {
            patterns: fusion::default_fusion_patterns(),
        }
    }

    /// Fusion with an explicit pattern set.
    pub fn with_patterns(patterns: Vec<Box<dyn fusion::FusionPattern>>) -> Self {
        FusionPass { patterns }
    }
}

impl Pass for FusionPass {
    fn name(&self) -> &str {
        "hida-task-fusion"
    }

    fn options(&self) -> Vec<PassOption> {
        let names: Vec<&str> = self.patterns.iter().map(|p| p.name()).collect();
        vec![PassOption::new("patterns", names.join("+"))]
    }

    fn preserved_analyses(&self) -> PreservedAnalyses {
        // Fusing two tasks erases them (their cache entries die with them) and
        // moves their bodies into a fresh task; every surviving task's body is
        // untouched, so its cached profile stays exact.
        PreservedAnalyses::none().preserve::<ComputeProfile>()
    }

    fn run(
        &self,
        ctx: &mut Context,
        root: OpId,
        _state: &mut PipelineState,
        analyses: &mut AnalysisManager,
    ) -> IrResult<()> {
        fusion::fuse_tasks(ctx, analyses, root, &self.patterns)
    }
}

/// Structural dataflow construction (§6.3): lowers the functional dataflow to a
/// `hida.schedule` and deposits the [`ScheduleOp`] into the pipeline state.
#[derive(Debug, Default, Clone, Copy)]
pub struct LowerPass;

impl Pass for LowerPass {
    fn name(&self) -> &str {
        "hida-lower-structural"
    }

    fn preserved_analyses(&self) -> PreservedAnalyses {
        // Lowering clones task bodies into fresh nodes and erases the
        // functional ops afterwards: live roots keep their exact profiles
        // (which is what lets lowering consume the profiles fusion cached).
        PreservedAnalyses::none().preserve::<ComputeProfile>()
    }

    fn run(
        &self,
        ctx: &mut Context,
        root: OpId,
        state: &mut PipelineState,
        analyses: &mut AnalysisManager,
    ) -> IrResult<()> {
        let schedule = lower::lower_to_structural(ctx, analyses, root)?;
        state.insert(schedule);
        Ok(())
    }
}

/// Per-node profiling (`hida-profile-nodes`): warms the [`ComputeProfile`] of
/// every schedule node so later passes consume pure cache hits. Analysis-only —
/// it mutates nothing and preserves everything — and embarrassingly parallel:
/// under `--jobs N` each worker profiles its nodes over the shared read-only
/// context and *publishes* the results into the live analysis cache at merge
/// time. Useful right after lowering in pipelines that skip tiling (whose
/// sequential warm-up would otherwise be the first profile consumer).
#[derive(Debug, Default, Clone, Copy)]
pub struct ProfilePass;

impl ProfilePass {
    fn schedule_nodes(ctx: &Context, state: &PipelineState) -> Option<Vec<OpId>> {
        let schedule = *state.get::<ScheduleOp>()?;
        Some(schedule.nodes(ctx).into_iter().map(|n| n.id()).collect())
    }
}

impl Pass for ProfilePass {
    fn name(&self) -> &str {
        "hida-profile-nodes"
    }

    fn verify_after(&self) -> bool {
        // Analysis-only: nothing to re-verify.
        false
    }

    fn preserved_analyses(&self) -> PreservedAnalyses {
        PreservedAnalyses::all()
    }

    fn run(
        &self,
        ctx: &mut Context,
        _root: OpId,
        state: &mut PipelineState,
        analyses: &mut AnalysisManager,
    ) -> IrResult<()> {
        let nodes = Self::schedule_nodes(ctx, state).ok_or_else(|| {
            IrError::pass_failed(
                self.name(),
                "no ScheduleOp in pipeline state — run hida-lower-structural first",
            )
        })?;
        for node in nodes {
            analyses.get::<ComputeProfile>(ctx, node);
        }
        Ok(())
    }

    fn parallelizable_roots(
        &self,
        ctx: &Context,
        _root: OpId,
        state: &PipelineState,
        _analyses: &mut AnalysisManager,
    ) -> Option<Vec<Vec<OpId>>> {
        // Deliberately does NOT warm the cache: profiling the nodes is the
        // parallel work itself.
        Self::schedule_nodes(ctx, state).map(|nodes| vec![nodes])
    }

    fn run_on_root(&self, scope: &mut NodeScope<'_>, snapshot: &AnalysisSnapshot) -> IrResult<()> {
        let node = scope.root();
        if snapshot.get::<ComputeProfile>(node).is_none() {
            let profile = ComputeProfile::compute(scope.ctx(), node);
            scope.publish(node, profile)?;
        }
        Ok(())
    }

    fn finish_parallel(
        &self,
        ctx: &mut Context,
        _root: OpId,
        state: &mut PipelineState,
        _analyses: &mut AnalysisManager,
    ) -> IrResult<()> {
        // Parallel mode only needs the state sanity check the sequential path
        // performs implicitly.
        Self::schedule_nodes(ctx, state).map(|_| ()).ok_or_else(|| {
            IrError::pass_failed(
                self.name(),
                "no ScheduleOp in pipeline state — run hida-lower-structural first",
            )
        })
    }
}

/// Multi-producer elimination (Algorithm 3) as a pipeline pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct MultiProducerEliminationPass;

impl Pass for MultiProducerEliminationPass {
    fn name(&self) -> &str {
        "hida-eliminate-multi-producers"
    }

    fn preserved_analyses(&self) -> PreservedAnalyses {
        // Buffer duplication only rewires node operands; fused producer nodes
        // are erased (dropping their entries). Node body profiles survive. The
        // dataflow graph does change (new buffers/copy nodes), so it is not
        // declared.
        PreservedAnalyses::none().preserve::<ComputeProfile>()
    }

    fn run(
        &self,
        ctx: &mut Context,
        _root: OpId,
        state: &mut PipelineState,
        _analyses: &mut AnalysisManager,
    ) -> IrResult<()> {
        let schedule = schedule_from(state, self.name())?;
        structural_opt::eliminate_multi_producers(ctx, schedule)
    }
}

/// Loop tiling and external-memory spilling as a pipeline pass.
#[derive(Debug, Clone, Copy)]
pub struct TilingPass {
    /// Square spatial tile size applied to large layers.
    pub tile_size: i64,
    /// Buffers larger than this many bytes are spilled to external memory.
    pub external_threshold_bytes: i64,
}

impl Pass for TilingPass {
    fn name(&self) -> &str {
        "hida-tiling"
    }

    fn options(&self) -> Vec<PassOption> {
        vec![
            PassOption::new("tile-size", self.tile_size),
            PassOption::new("external-threshold-bytes", self.external_threshold_bytes),
        ]
    }

    fn preserved_analyses(&self) -> PreservedAnalyses {
        // Tiling annotates nodes with tile sizes and adds tile-local buffers;
        // node bodies and hence their profiles are untouched.
        PreservedAnalyses::none().preserve::<ComputeProfile>()
    }

    fn run(
        &self,
        ctx: &mut Context,
        _root: OpId,
        state: &mut PipelineState,
        analyses: &mut AnalysisManager,
    ) -> IrResult<()> {
        let schedule = schedule_from(state, self.name())?;
        tiling::apply_tiling(
            ctx,
            analyses,
            schedule,
            self.tile_size,
            self.external_threshold_bytes,
        );
        Ok(())
    }

    fn parallelizable_roots(
        &self,
        ctx: &Context,
        _root: OpId,
        state: &PipelineState,
        analyses: &mut AnalysisManager,
    ) -> Option<Vec<Vec<OpId>>> {
        let schedule = *state.get::<ScheduleOp>()?;
        // Warm the per-node profiles exactly like the sequential path queries
        // them, so the workers' snapshot is complete; one wave, since tile
        // decisions are independent per node.
        let nodes: Vec<OpId> = schedule.nodes(ctx).into_iter().map(|n| n.id()).collect();
        for &node in &nodes {
            analyses.get::<ComputeProfile>(ctx, node);
        }
        Some(vec![nodes])
    }

    fn run_on_root(&self, scope: &mut NodeScope<'_>, snapshot: &AnalysisSnapshot) -> IrResult<()> {
        tiling::plan_node_tiling(scope, snapshot, self.tile_size)
    }

    fn finish_parallel(
        &self,
        ctx: &mut Context,
        _root: OpId,
        state: &mut PipelineState,
        _analyses: &mut AnalysisManager,
    ) -> IrResult<()> {
        let schedule = schedule_from(state, self.name())?;
        tiling::spill_large_buffers(ctx, schedule, self.tile_size, self.external_threshold_bytes);
        Ok(())
    }
}

/// Data-path balancing (§6.4.2) as a pipeline pass.
#[derive(Debug, Clone, Copy)]
pub struct BalancePass {
    /// Buffers whose deepened footprint exceeds this become soft FIFOs.
    pub external_threshold_bytes: i64,
}

impl Pass for BalancePass {
    fn name(&self) -> &str {
        "hida-balance-data-paths"
    }

    fn options(&self) -> Vec<PassOption> {
        vec![PassOption::new(
            "external-threshold-bytes",
            self.external_threshold_bytes,
        )]
    }

    fn preserved_analyses(&self) -> PreservedAnalyses {
        // Deepening buffers edits attributes; soft FIFOs insert token push/pop
        // ops, which carry no arithmetic or memory-access semantics the
        // profile counts. The dataflow graph gains token edges, so only the
        // profile is declared.
        PreservedAnalyses::none().preserve::<ComputeProfile>()
    }

    fn run(
        &self,
        ctx: &mut Context,
        _root: OpId,
        state: &mut PipelineState,
        analyses: &mut AnalysisManager,
    ) -> IrResult<()> {
        let schedule = schedule_from(state, self.name())?;
        structural_opt::balance_data_paths(ctx, analyses, schedule, self.external_threshold_bytes)
    }
}

/// Intensity- and connection-aware parallelization (Algorithm 4) as a pipeline
/// pass; the [`ParallelMode`] ablation axis is plain pass configuration.
#[derive(Debug, Clone)]
pub struct ParallelizePass {
    /// Maximum parallel factor granted to any single node.
    pub max_parallel_factor: i64,
    /// Parallelization strategy (IA/CA ablation axis).
    pub mode: ParallelMode,
    /// Target device, printed as the pass's `device` option. Parallel factors
    /// do not depend on it yet: budgets come from `max_parallel_factor` and
    /// node intensity alone.
    pub device: FpgaDevice,
}

impl Pass for ParallelizePass {
    fn name(&self) -> &str {
        "hida-parallelize"
    }

    fn options(&self) -> Vec<PassOption> {
        vec![
            PassOption::new("max-parallel-factor", self.max_parallel_factor),
            PassOption::new("mode", self.mode.label()),
            PassOption::new("device", &self.device.name),
        ]
    }

    fn preserved_analyses(&self) -> PreservedAnalyses {
        // Parallelization records unroll factors, budgets and partitions as
        // attributes only; neither node bodies nor the schedule's
        // producer/consumer topology change.
        PreservedAnalyses::none()
            .preserve::<ComputeProfile>()
            .preserve::<DataflowGraph>()
    }

    fn run(
        &self,
        ctx: &mut Context,
        _root: OpId,
        state: &mut PipelineState,
        analyses: &mut AnalysisManager,
    ) -> IrResult<()> {
        let schedule = schedule_from(state, self.name())?;
        parallelize::parallelize_schedule(
            ctx,
            analyses,
            schedule,
            self.max_parallel_factor,
            self.mode,
            &self.device,
        )
    }

    fn parallelizable_roots(
        &self,
        ctx: &Context,
        _root: OpId,
        state: &PipelineState,
        analyses: &mut AnalysisManager,
    ) -> Option<Vec<Vec<OpId>>> {
        let schedule = *state.get::<ScheduleOp>()?;
        // One wave per dependency level of the connection graph: constraints
        // only flow from nodes earlier in the Algorithm 4 processing order, so
        // same-wave nodes are never connected. Warms graph + profiles.
        Some(parallelize::parallel_waves(
            ctx, analyses, schedule, self.mode,
        ))
    }

    fn run_on_root(&self, scope: &mut NodeScope<'_>, snapshot: &AnalysisSnapshot) -> IrResult<()> {
        parallelize::plan_node_parallelization(scope, snapshot, self.max_parallel_factor, self.mode)
    }

    fn finish_parallel(
        &self,
        ctx: &mut Context,
        _root: OpId,
        state: &mut PipelineState,
        analyses: &mut AnalysisManager,
    ) -> IrResult<()> {
        let schedule = schedule_from(state, self.name())?;
        parallelize::finish_parallelization(ctx, analyses, schedule);
        Ok(())
    }
}

/// A declarative HIDA-OPT pipeline: an ordered pass list executed by the shared
/// [`PassManager`], producing a structural [`ScheduleOp`] plus per-pass statistics.
///
/// Pipelines are constructible three ways, all converging on the same pass set:
/// programmatically ([`Pipeline::add_pass`]), from text
/// ([`Pipeline::parse`], grammar `name{key=value,...},name,...`), and from
/// [`HidaOptions`] ([`Pipeline::from_options`], which renders the options as
/// text and parses them through the registry). Every pipeline remembers its
/// textual form: [`Pipeline::to_text`] prints a string that re-parses to the
/// identical configuration.
pub struct Pipeline {
    manager: PassManager,
    invocations: Vec<PassInvocation>,
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Pipeline {
    /// An empty pipeline with inter-pass verification enabled.
    pub fn new() -> Self {
        Pipeline {
            manager: PassManager::new(),
            invocations: Vec::new(),
        }
    }

    /// Parses a textual pipeline through a pass registry (normally
    /// [`crate::registry::registry`]).
    ///
    /// The stored invocations are *normalized*: canonical pass names, alias
    /// option names resolved and defaults filled in, so
    /// `Pipeline::parse(&r, &p.to_text())` reconstructs `p` exactly.
    ///
    /// # Example
    ///
    /// ```
    /// use hida_opt::{registry, Pipeline};
    ///
    /// let pipeline = Pipeline::parse(
    ///     &registry(),
    ///     "construct,lower,profile,parallelize{max-factor=8,device=zu3eg}",
    /// )
    /// .expect("a well-formed pipeline");
    /// assert_eq!(pipeline.len(), 4);
    /// // The text round-trips through the normalized invocations...
    /// let reparsed = Pipeline::parse(&registry(), &pipeline.to_text()).unwrap();
    /// assert_eq!(reparsed.to_text(), pipeline.to_text());
    /// // ...and per-node pass work can fan out to worker threads.
    /// let pipeline = pipeline.with_jobs(4);
    /// assert_eq!(pipeline.jobs(), 4);
    /// ```
    ///
    /// # Errors
    /// Returns structured [`PipelineError`]s: parse errors with position and
    /// expected token, unknown pass names, and per-pass option failures.
    pub fn parse(registry: &PassRegistry, text: &str) -> Result<Pipeline, PipelineError> {
        let mut pipeline = Pipeline::new();
        for invocation in parse_pipeline(text)? {
            let (normalized, pass) = registry.create(&invocation)?;
            pipeline.invocations.push(normalized);
            pipeline.manager.add_pass(pass);
        }
        Ok(pipeline)
    }

    /// Prints the pipeline in the textual syntax; the inverse of
    /// [`Pipeline::parse`] for registry-built pipelines. Passes appended through
    /// [`Pipeline::add_pass`] are rendered under their instance name, which the
    /// standard registry also resolves (as an alias).
    pub fn to_text(&self) -> String {
        print_pipeline(&self.invocations)
    }

    /// The recorded pass invocations, in execution order.
    pub fn invocations(&self) -> &[PassInvocation] {
        &self.invocations
    }

    /// Assembles the standard HIDA-OPT pipeline from compilation options.
    ///
    /// The primary construction path is textual: the options are rendered as
    /// pipeline text ([`HidaOptions::pipeline_text`]) and parsed through the
    /// pass registry, so option-built and string-built pipelines can never
    /// drift apart. Boolean options control pipeline membership; scalar options
    /// configure the individual pass instances.
    ///
    /// Options the textual syntax cannot represent — a custom [`FpgaDevice`]
    /// outside the catalog, or knob values the registry factories reject — fall
    /// back to direct pass construction with the exact same flow, preserving
    /// the seed API contract that any `HidaOptions` value compiles. Such a
    /// pipeline's [`Pipeline::to_text`] still prints, but its `device=` option
    /// only re-parses when the device name is in the catalog.
    pub fn from_options(options: &HidaOptions) -> Self {
        Pipeline::parse(&crate::registry::registry(), &options.pipeline_text())
            .unwrap_or_else(|_| Pipeline::from_options_direct(options))
    }

    /// Direct (non-textual) assembly of the standard flow; the fallback for
    /// option values the registry cannot express.
    fn from_options_direct(options: &HidaOptions) -> Self {
        let mut pipeline = Pipeline::new();
        pipeline.add_pass(ConstructPass);
        if options.enable_fusion {
            pipeline.add_pass(FusionPass::new());
        }
        pipeline.add_pass(LowerPass);
        if options.enable_balancing {
            pipeline.add_pass(MultiProducerEliminationPass);
        }
        if let Some(tile_size) = options.tile_size {
            pipeline.add_pass(TilingPass {
                tile_size,
                external_threshold_bytes: options.external_threshold_bytes,
            });
        }
        if options.enable_balancing {
            pipeline.add_pass(BalancePass {
                external_threshold_bytes: options.external_threshold_bytes,
            });
        }
        pipeline.add_pass(ParallelizePass {
            max_parallel_factor: options.max_parallel_factor,
            mode: options.mode,
            device: options.device.clone(),
        });
        pipeline
    }

    /// Appends a pass (builder style, for custom pipelines). The invocation is
    /// recorded under the instance's own name and reported options.
    pub fn add_pass(&mut self, pass: impl Pass + 'static) -> &mut Self {
        self.invocations
            .push(PassInvocation::with_options(pass.name(), pass.options()));
        self.manager.add_pass(Box::new(pass));
        self
    }

    /// Enables or disables inter-pass verification.
    pub fn with_verification(mut self, verify_each: bool) -> Self {
        self.manager = std::mem::take(&mut self.manager).with_verification(verify_each);
        self
    }

    /// Sets the worker-thread count for passes that declare per-node work
    /// (tiling, parallelization, profiling). `1` — the default — is the
    /// bitwise-reproducibility escape hatch: everything runs sequentially, and
    /// parallel runs are required to produce the identical IR.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.manager = std::mem::take(&mut self.manager).with_jobs(jobs);
        self
    }

    /// The configured worker-thread count.
    pub fn jobs(&self) -> usize {
        self.manager.jobs()
    }

    /// Number of registered passes.
    pub fn len(&self) -> usize {
        self.manager.len()
    }

    /// True when the pipeline has no passes.
    pub fn is_empty(&self) -> bool {
        self.manager.is_empty()
    }

    /// Names of the registered passes, in execution order.
    pub fn pass_names(&self) -> Vec<String> {
        self.manager.pass_names()
    }

    /// Per-pass statistics of the most recent [`Pipeline::run`].
    pub fn statistics(&self) -> &[PassStatistics] {
        self.manager.statistics()
    }

    /// The analysis cache shared by the pipeline's passes.
    pub fn analyses(&self) -> &AnalysisManager {
        self.manager.analyses()
    }

    /// Mutable access to the analysis cache, so post-run reporting reuses the
    /// profiles the passes left behind instead of recomputing them.
    pub fn analyses_mut(&mut self) -> &mut AnalysisManager {
        self.manager.analyses_mut()
    }

    /// Executes the pipeline on `func` through the [`PassManager`] and returns the
    /// structural schedule extracted from the pipeline state.
    ///
    /// # Errors
    /// Propagates pass failures and inter-pass verification failures, and fails
    /// when the executed passes produced no schedule.
    pub fn run(&mut self, ctx: &mut Context, func: OpId) -> IrResult<ScheduleOp> {
        let state = self.manager.run(ctx, func)?;
        state.get::<ScheduleOp>().copied().ok_or_else(|| {
            IrError::pass_failed(
                "hida-pipeline",
                "pipeline finished without producing a ScheduleOp \
                 (does it include hida-lower-structural?)",
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida_frontend::polybench::{build_kernel, PolybenchKernel};

    fn twomm_func(ctx: &mut Context) -> (OpId, OpId) {
        let module = ctx.create_module("m");
        let func = build_kernel(ctx, module, PolybenchKernel::TwoMm, 16);
        (module, func)
    }

    #[test]
    fn from_options_membership_follows_toggles() {
        let full = Pipeline::from_options(&HidaOptions::default());
        assert_eq!(
            full.pass_names(),
            vec![
                "hida-construct-dataflow",
                "hida-task-fusion",
                "hida-lower-structural",
                "hida-eliminate-multi-producers",
                "hida-tiling",
                "hida-balance-data-paths",
                "hida-parallelize",
            ]
        );

        let minimal = Pipeline::from_options(&HidaOptions {
            enable_fusion: false,
            enable_balancing: false,
            tile_size: None,
            ..HidaOptions::default()
        });
        assert_eq!(
            minimal.pass_names(),
            vec![
                "hida-construct-dataflow",
                "hida-lower-structural",
                "hida-parallelize",
            ]
        );
    }

    #[test]
    fn parse_builds_the_same_flow_as_from_options() {
        let options = HidaOptions::polybench();
        let from_options = Pipeline::from_options(&options);
        let parsed =
            Pipeline::parse(&crate::registry::registry(), &options.pipeline_text()).unwrap();
        assert_eq!(parsed.pass_names(), from_options.pass_names());
        assert_eq!(parsed.invocations(), from_options.invocations());
    }

    #[test]
    fn to_text_round_trips_through_parse() {
        let registry = crate::registry::registry();
        for options in [
            HidaOptions::default(),
            HidaOptions::polybench(),
            HidaOptions::dnn(),
            HidaOptions {
                enable_fusion: false,
                mode: ParallelMode::Naive,
                ..HidaOptions::default()
            },
        ] {
            let pipeline = Pipeline::from_options(&options);
            let reparsed = Pipeline::parse(&registry, &pipeline.to_text()).unwrap();
            assert_eq!(reparsed.invocations(), pipeline.invocations());
            assert_eq!(reparsed.to_text(), pipeline.to_text());
        }
    }

    #[test]
    fn from_options_accepts_non_catalog_devices_via_the_direct_fallback() {
        let mut device = hida_estimator::device::FpgaDevice::vu9p_slr();
        device.name = "custom-board".to_string();
        device.dsp = 9000;
        let options = HidaOptions {
            device,
            ..HidaOptions::default()
        };
        // The textual path cannot carry a non-catalog device; the fallback must
        // still produce the full flow with the custom device wired through.
        let pipeline = Pipeline::from_options(&options);
        assert_eq!(pipeline.len(), 7);
        assert!(pipeline.to_text().contains("device=custom-board"));

        let mut ctx = Context::new();
        let (module, func) = twomm_func(&mut ctx);
        let mut pipeline = Pipeline::from_options(&options);
        pipeline.run(&mut ctx, func).unwrap();
        hida_ir_core::verifier::verify(&ctx, module).unwrap();
    }

    #[test]
    fn hand_added_passes_render_under_their_instance_names() {
        let mut pipeline = Pipeline::new();
        pipeline.add_pass(ConstructPass);
        pipeline.add_pass(LowerPass);
        assert_eq!(
            pipeline.to_text(),
            "hida-construct-dataflow,hida-lower-structural"
        );
        // The standard registry resolves instance names as aliases, so even a
        // hand-assembled pipeline's text parses back to an equivalent flow.
        let reparsed = Pipeline::parse(&crate::registry::registry(), &pipeline.to_text()).unwrap();
        assert_eq!(reparsed.pass_names(), pipeline.pass_names());
    }

    #[test]
    fn parsed_pipelines_execute_like_option_built_ones() {
        let mut ctx = Context::new();
        let (module, func) = twomm_func(&mut ctx);
        let mut pipeline = Pipeline::parse(
            &crate::registry::registry(),
            "construct,fusion,lower,multi-producer-elim,tiling{factor=4},balance,\
             parallelize{max-factor=16,mode=IA+CA,device=zu3eg}",
        )
        .unwrap();
        let schedule = pipeline.run(&mut ctx, func).unwrap();
        hida_ir_core::verifier::verify(&ctx, module).unwrap();
        assert!(!schedule.nodes(&ctx).is_empty());
        assert_eq!(pipeline.statistics().len(), 7);
    }

    #[test]
    fn pipeline_produces_schedule_and_statistics() {
        let mut ctx = Context::new();
        let (module, func) = twomm_func(&mut ctx);
        let mut pipeline = Pipeline::from_options(&HidaOptions::polybench());
        let schedule = pipeline.run(&mut ctx, func).unwrap();
        hida_ir_core::verifier::verify(&ctx, module).unwrap();
        assert_eq!(schedule.nodes(&ctx).len(), 2);
        // One statistics record per executed pass, all verified.
        assert_eq!(pipeline.statistics().len(), pipeline.len());
        for stat in pipeline.statistics() {
            assert!(stat.verified);
        }
        // Construction creates ops; the recorded deltas see it.
        let construct_stat = &pipeline.statistics()[0];
        assert_eq!(construct_stat.pass, "hida-construct-dataflow");
        assert!(construct_stat.op_delta() > 0);
    }

    #[test]
    fn structural_passes_fail_without_lowering() {
        let mut ctx = Context::new();
        let (_module, func) = twomm_func(&mut ctx);
        let mut pipeline = Pipeline::new();
        pipeline.add_pass(ConstructPass);
        pipeline.add_pass(MultiProducerEliminationPass);
        let err = pipeline.run(&mut ctx, func).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("hida-lower-structural"));
        // The manager must not re-wrap the pass's own attribution.
        assert_eq!(message.matches("failed:").count(), 1, "{message}");
    }

    #[test]
    fn pass_options_are_recorded_in_statistics() {
        let mut ctx = Context::new();
        let (_module, func) = twomm_func(&mut ctx);
        let options = HidaOptions {
            tile_size: Some(4),
            ..HidaOptions::polybench()
        };
        let mut pipeline = Pipeline::from_options(&options);
        pipeline.run(&mut ctx, func).unwrap();
        let tiling = pipeline
            .statistics()
            .iter()
            .find(|s| s.pass == "hida-tiling")
            .unwrap();
        assert!(tiling
            .options
            .iter()
            .any(|o| o.name == "tile-size" && o.value == "4"));
        let parallelize = pipeline
            .statistics()
            .iter()
            .find(|s| s.pass == "hida-parallelize")
            .unwrap();
        assert!(parallelize
            .options
            .iter()
            .any(|o| o.name == "mode" && o.value == "IA+CA"));
    }
}
