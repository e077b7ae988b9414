//! Pass abstraction and pass manager.
//!
//! HIDA-OPT is organised as a pipeline of passes over the IR (Functional dataflow
//! construction, task fusion, lowering, structural optimization, parallelization,
//! ...). The [`PassManager`] runs passes in order, verifies the IR between passes,
//! and records per-pass [`PassStatistics`].
//!
//! Passes communicate through a [`PipelineState`]: a typed, heterogeneous slot map
//! keyed by `TypeId`. A lowering pass can deposit the structural handle it produced
//! (e.g. a `ScheduleOp`) and every later pass retrieves it by type, which keeps the
//! `Pass` trait itself independent of any particular dialect crate.

// `PipelineState` slots are keyed by `TypeId`, which has no dense index; the
// map is touched a handful of times per pass, never inside an IR walk.
#![allow(clippy::disallowed_types)]

use crate::analysis::{AnalysisCacheStats, AnalysisManager, AnalysisSnapshot, PreservedAnalyses};
use crate::context::Context;
use crate::error::{IrError, IrResult};
use crate::fault;
use crate::ids::OpId;
use crate::par::{run_batch_isolated, NodeScope, ParallelStats};
use crate::verifier::verify;
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Typed cross-pass state: at most one value per Rust type.
///
/// The slot map lets structurally-typed results (schedules, analyses, caches) flow
/// from producing passes to consuming passes without widening the [`Pass`] trait
/// for every new artifact kind.
#[derive(Default)]
pub struct PipelineState {
    slots: HashMap<TypeId, Box<dyn Any>>,
}

impl PipelineState {
    /// Creates an empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `value`, returning the previously stored value of the same type.
    pub fn insert<T: Any>(&mut self, value: T) -> Option<T> {
        self.slots
            .insert(TypeId::of::<T>(), Box::new(value))
            .and_then(|old| old.downcast::<T>().ok())
            .map(|b| *b)
    }

    /// Borrows the stored value of type `T`, if any.
    pub fn get<T: Any>(&self) -> Option<&T> {
        self.slots
            .get(&TypeId::of::<T>())
            .and_then(|b| b.downcast_ref::<T>())
    }

    /// Mutably borrows the stored value of type `T`, if any.
    pub fn get_mut<T: Any>(&mut self) -> Option<&mut T> {
        self.slots
            .get_mut(&TypeId::of::<T>())
            .and_then(|b| b.downcast_mut::<T>())
    }

    /// Removes and returns the stored value of type `T`, if any.
    pub fn take<T: Any>(&mut self) -> Option<T> {
        self.slots
            .remove(&TypeId::of::<T>())
            .and_then(|b| b.downcast::<T>().ok())
            .map(|b| *b)
    }

    /// True when a value of type `T` is stored.
    pub fn contains<T: Any>(&self) -> bool {
        self.slots.contains_key(&TypeId::of::<T>())
    }

    /// Number of stored slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no slots are stored.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl fmt::Debug for PipelineState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelineState")
            .field("slots", &self.slots.len())
            .finish()
    }
}

/// One configured option of a pass instance (`name = value`), recorded into the
/// pass's [`PassStatistics`] so pipeline reports show the exact configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassOption {
    /// Option name (e.g. `"tile-size"`).
    pub name: String,
    /// Rendered option value (e.g. `"8"`).
    pub value: String,
}

impl PassOption {
    /// Creates an option from any displayable value.
    pub fn new(name: impl Into<String>, value: impl fmt::Display) -> Self {
        PassOption {
            name: name.into(),
            value: value.to_string(),
        }
    }
}

impl fmt::Display for PassOption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.name, self.value)
    }
}

/// A transformation or analysis applied to the IR rooted at a module op.
///
/// Passes are `Send + Sync` so the [`PassManager`] can share one instance with
/// the worker threads that execute its declared per-node work items (see
/// [`Pass::parallelizable_roots`]).
pub trait Pass: Send + Sync {
    /// Unique, human-readable pass name (e.g. `"hida-task-fusion"`).
    fn name(&self) -> &str;

    /// The instance's configured options, recorded into its statistics.
    fn options(&self) -> Vec<PassOption> {
        Vec::new()
    }

    /// Whether the IR should be re-verified after this pass. The pass manager's
    /// global verification toggle must also be enabled; analysis-only passes can
    /// return `false` to skip the redundant walk.
    fn verify_after(&self) -> bool {
        true
    }

    /// The analyses this pass provably does not invalidate. The pass manager
    /// keeps the declared entries alive across the pass's generation bumps
    /// (and, in debug builds, verifies the declaration by recomputation at pass
    /// exit). The conservative default invalidates everything.
    fn preserved_analyses(&self) -> PreservedAnalyses {
        PreservedAnalyses::none()
    }

    /// Runs the pass over the IR rooted at `root`. Cross-pass artifacts are
    /// exchanged through `state`; structural facts (profiles, graphs) are
    /// fetched through `analyses` so repeated queries hit the cache.
    ///
    /// # Errors
    /// Returns an error when the pass cannot complete; the pass manager aborts the
    /// pipeline in that case.
    fn run(
        &self,
        ctx: &mut Context,
        root: OpId,
        state: &mut PipelineState,
        analyses: &mut AnalysisManager,
    ) -> IrResult<()>;

    /// Declares the independent per-node work items of this pass, as *waves*
    /// of mutually independent roots: every root of a wave is handed to
    /// [`Pass::run_on_root`] on a worker thread, all of a wave's results merge
    /// back before the next wave starts, and [`Pass::finish_parallel`] runs
    /// once at the end. Most parallelizable passes return a single wave;
    /// passes whose per-node decisions depend on earlier nodes' decisions
    /// (e.g. connection-aware parallelization) return one wave per dependency
    /// level.
    ///
    /// Returning `None` (the default) keeps the pass sequential —
    /// [`Pass::run`] executes as usual. The pass manager only consults this
    /// hook when its configured job count is greater than one, so
    /// `--jobs 1` always takes the sequential path; a parallelizable pass must
    /// therefore produce **identical IR** through both paths. This hook may
    /// warm `analyses` so the snapshot handed to the workers is complete.
    fn parallelizable_roots(
        &self,
        ctx: &Context,
        root: OpId,
        state: &PipelineState,
        analyses: &mut AnalysisManager,
    ) -> Option<Vec<Vec<OpId>>> {
        let _ = (ctx, root, state, analyses);
        None
    }

    /// Processes one declared root on a worker thread. The IR is shared
    /// read-only through the scope; every mutation is recorded as a scoped
    /// attribute edit (rejected when it escapes the root's subtree) and
    /// applied on the main thread with a single generation bump per wave.
    /// Structural facts come from the frozen `snapshot` instead of the live
    /// analysis manager.
    ///
    /// # Errors
    /// A failing root aborts the pass (and the pipeline), discarding the whole
    /// wave's edits.
    fn run_on_root(&self, scope: &mut NodeScope<'_>, snapshot: &AnalysisSnapshot) -> IrResult<()> {
        let _ = (scope, snapshot);
        Err(IrError::pass_failed(
            self.name(),
            "pass declared parallelizable roots but does not implement run_on_root",
        ))
    }

    /// Sequential epilogue after all waves merged: work that genuinely needs
    /// `&mut Context` across node boundaries (e.g. tiling's buffer spilling,
    /// parallelization's array partitioning) lives here. Runs on the main
    /// thread with the same signature as [`Pass::run`].
    ///
    /// # Errors
    /// Propagated exactly like a [`Pass::run`] failure.
    fn finish_parallel(
        &self,
        ctx: &mut Context,
        root: OpId,
        state: &mut PipelineState,
        analyses: &mut AnalysisManager,
    ) -> IrResult<()> {
        let _ = (ctx, root, state, analyses);
        Ok(())
    }
}

/// Timing and size statistics recorded for each executed pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PassStatistics {
    /// Name of the executed pass.
    pub pass: String,
    /// Wall-clock duration in microseconds (excluding post-pass verification).
    pub micros: u128,
    /// Number of live ops before the pass.
    pub live_ops_before: usize,
    /// Number of live ops after the pass.
    pub live_ops_after: usize,
    /// Whether post-pass verification ran for this pass.
    pub verified: bool,
    /// True when this pass aborted the pipeline (its own failure or a post-pass
    /// verification failure); always the last record of a failing run.
    pub failed: bool,
    /// Analysis cache traffic attributed to this pass.
    pub cache: AnalysisCacheStats,
    /// Worker/steal/imbalance counters when the pass executed its declared
    /// roots on the thread pool; `None` for sequential execution.
    pub parallel: Option<ParallelStats>,
    /// The pass instance's configured options.
    pub options: Vec<PassOption>,
}

impl PassStatistics {
    /// Net change in live op count produced by the pass (positive = ops created).
    pub fn op_delta(&self) -> i64 {
        self.live_ops_after as i64 - self.live_ops_before as i64
    }

    /// Sums the analysis-cache counters of a pass sequence (pipeline reports,
    /// `--stats-json`, `CompilationResult::analysis_cache`).
    pub fn aggregate_cache(statistics: &[PassStatistics]) -> AnalysisCacheStats {
        let mut totals = AnalysisCacheStats::default();
        for stat in statistics {
            totals.accumulate(&stat.cache);
        }
        totals
    }
}

impl fmt::Display for PassStatistics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} us, ops {} -> {} ({:+})",
            self.pass,
            self.micros,
            self.live_ops_before,
            self.live_ops_after,
            self.op_delta()
        )?;
        if self.cache.total_queries() > 0 || self.cache.preserved > 0 {
            write!(f, ", analyses {}", self.cache)?;
        }
        if let Some(parallel) = &self.parallel {
            write!(f, ", parallel {parallel}")?;
        }
        if !self.options.is_empty() {
            let rendered: Vec<String> = self.options.iter().map(|o| o.to_string()).collect();
            write!(f, " [{}]", rendered.join(", "))?;
        }
        if self.failed {
            write!(f, " FAILED")?;
        }
        Ok(())
    }
}

/// Runs a sequence of passes with optional inter-pass verification. Owns the
/// [`AnalysisManager`] threaded through every pass, so cached analyses survive
/// from pass to pass and per-pass cache traffic lands in [`PassStatistics`].
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    verify_each: bool,
    statistics: Vec<PassStatistics>,
    analyses: AnalysisManager,
    jobs: usize,
}

impl Default for PassManager {
    fn default() -> Self {
        Self::new()
    }
}

impl PassManager {
    /// Creates an empty pass manager with inter-pass verification enabled and
    /// sequential execution (one job).
    pub fn new() -> Self {
        PassManager {
            passes: Vec::new(),
            verify_each: true,
            statistics: Vec::new(),
            analyses: AnalysisManager::new(),
            jobs: 1,
        }
    }

    /// Enables or disables verification after each pass.
    pub fn with_verification(mut self, verify_each: bool) -> Self {
        self.verify_each = verify_each;
        self
    }

    /// Sets the worker-thread count for passes that declare
    /// [`Pass::parallelizable_roots`]. `1` (the default) is the
    /// bitwise-reproducibility escape hatch: every pass runs its sequential
    /// [`Pass::run`] path on the calling thread.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The configured worker-thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Appends a pass to the pipeline.
    pub fn add_pass(&mut self, pass: Box<dyn Pass>) -> &mut Self {
        self.passes.push(pass);
        self
    }

    /// Number of registered passes.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Returns true when no passes are registered.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Names of the registered passes, in execution order.
    pub fn pass_names(&self) -> Vec<String> {
        self.passes.iter().map(|p| p.name().to_string()).collect()
    }

    /// Statistics of the most recent [`PassManager::run`] invocation.
    pub fn statistics(&self) -> &[PassStatistics] {
        &self.statistics
    }

    /// The analysis cache shared by the registered passes.
    pub fn analyses(&self) -> &AnalysisManager {
        &self.analyses
    }

    /// Mutable access to the analysis cache, e.g. for post-pipeline reporting
    /// that wants to reuse results the passes left behind.
    pub fn analyses_mut(&mut self) -> &mut AnalysisManager {
        &mut self.analyses
    }

    /// Runs all registered passes in order over the IR rooted at `root`, returning
    /// the final pipeline state so callers can extract produced artifacts.
    ///
    /// # Errors
    /// Propagates the first pass failure or inter-pass verification failure.
    pub fn run(&mut self, ctx: &mut Context, root: OpId) -> IrResult<PipelineState> {
        let mut state = PipelineState::new();
        self.run_with_state(ctx, root, &mut state)?;
        Ok(state)
    }

    /// Runs all registered passes over `root` with a caller-provided state, which
    /// may be pre-seeded with artifacts and inspected afterwards.
    ///
    /// # Errors
    /// Propagates the first pass failure or inter-pass verification failure.
    pub fn run_with_state(
        &mut self,
        ctx: &mut Context,
        root: OpId,
        state: &mut PipelineState,
    ) -> IrResult<()> {
        self.statistics.clear();
        // Entries from other contexts (a reused manager across compiles) can
        // never be valid here; drop them before any counters are recorded.
        self.analyses.retain_context(ctx);
        for pass in &self.passes {
            let name = pass.name().to_string();
            let options = pass.options();
            let live_ops_before = ctx.num_live_ops();
            self.analyses
                .begin_pass(ctx, &name, pass.preserved_analyses());
            let start = Instant::now();
            // With more than one job, a pass that declares independent
            // per-node roots executes them on the work-stealing pool;
            // everything else (and everything under --jobs 1) takes the
            // sequential path.
            // Pass boundaries are cancellation checkpoints: a deadline or an
            // explicit cancel stops the pipeline here, before the next pass
            // starts, with a deterministic `Cancelled` error.
            let site = format!("pass '{name}'");
            let (result, parallel) = match fault::checkpoint(&site) {
                Err(e) => (Err(e), None),
                Ok(()) => {
                    let waves = if self.jobs > 1 {
                        pass.parallelizable_roots(ctx, root, state, &mut self.analyses)
                    } else {
                        None
                    };
                    // The pass body runs under `catch_unwind`, so a panicking
                    // pass (injected or real) becomes a structured
                    // `WorkerPanic` failure instead of aborting the process.
                    // The injection hook fires *inside* the caught region to
                    // exercise exactly this machinery.
                    match waves {
                        Some(waves) => {
                            let caught = catch_unwind(AssertUnwindSafe(|| {
                                fault::injected_pass_panic(&name);
                                run_parallel_waves(
                                    pass.as_ref(),
                                    ctx,
                                    root,
                                    state,
                                    &mut self.analyses,
                                    self.jobs,
                                    waves,
                                )
                            }));
                            match caught {
                                Ok(Ok(stats)) => (Ok(()), Some(stats)),
                                Ok(Err(e)) => (Err(e), None),
                                Err(payload) => {
                                    (Err(fault::error_from_panic(&site, payload)), None)
                                }
                            }
                        }
                        None => {
                            let caught = catch_unwind(AssertUnwindSafe(|| {
                                fault::injected_pass_panic(&name);
                                pass.run(ctx, root, state, &mut self.analyses)
                            }));
                            match caught {
                                Ok(result) => (result, None),
                                Err(payload) => {
                                    (Err(fault::error_from_panic(&site, payload)), None)
                                }
                            }
                        }
                    }
                }
            };
            let result = result.map_err(|e| {
                match e {
                    // Don't re-wrap errors the pass already attributed to itself.
                    IrError::PassFailed { pass: ref p, .. } if p == &name => e,
                    // Structured fault and cancellation errors keep their
                    // variant so callers can classify the failure; wrapping
                    // would collapse them into a generic `PassFailed`.
                    e @ (IrError::Cancelled { .. } | IrError::WorkerPanic { .. }) => e,
                    other => IrError::pass_failed(&name, other.to_string()),
                }
            });
            let micros = start.elapsed().as_micros();
            // Even a failing pass leaves a statistics record, so pipeline
            // reports show where and after how long a run died.
            let record = |verified: bool, failed: bool, cache: AnalysisCacheStats| PassStatistics {
                pass: name.clone(),
                micros,
                live_ops_before,
                live_ops_after: ctx.num_live_ops(),
                verified,
                failed,
                cache,
                parallel: parallel.clone(),
                options: options.clone(),
            };
            if let Err(error) = result {
                let cache = self.analyses.abort_pass(ctx);
                self.statistics.push(record(false, true, cache));
                return Err(error);
            }
            let (cache, lie) = self.analyses.end_pass(ctx);
            if let Some(lie) = lie {
                self.statistics.push(record(false, true, cache));
                return Err(IrError::pass_failed(&name, lie.to_string()));
            }
            let verified = self.verify_each && pass.verify_after();
            if verified {
                if let Err(e) = verify(ctx, root) {
                    self.statistics.push(record(false, true, cache));
                    return Err(IrError::pass_failed(
                        &name,
                        format!("post-pass verification: {e}"),
                    ));
                }
            }
            self.statistics.push(record(verified, false, cache));
        }
        Ok(())
    }
}

/// Executes a pass's declared root waves on the work-stealing pool.
///
/// Per wave: freeze the analysis cache into a snapshot, run every root through
/// [`Pass::run_on_root`] on the workers, then merge deterministically on the
/// main thread — scoped attribute edits are applied **in declared root order**
/// with one generation bump, and published analyses are installed afterwards.
/// Because the merge order is the declaration order (never the completion
/// order), the resulting IR is independent of thread scheduling, which is what
/// makes `--jobs 1` and `--jobs N` byte-identical.
fn run_parallel_waves(
    pass: &dyn Pass,
    ctx: &mut Context,
    root: OpId,
    state: &mut PipelineState,
    analyses: &mut AnalysisManager,
    jobs: usize,
    waves: Vec<Vec<OpId>>,
) -> IrResult<ParallelStats> {
    let mut totals = ParallelStats::default();
    for wave in waves {
        if wave.is_empty() {
            continue;
        }
        debug_assert!(
            {
                let mut sorted = wave.clone();
                sorted.sort();
                sorted.dedup();
                sorted.len() == wave.len()
            },
            "declared roots within a wave must be distinct"
        );
        // Wave boundaries are cancellation checkpoints too: a deadline hit
        // mid-pass stops before the next wave is dispatched.
        fault::checkpoint(&format!("pass '{}' wave", pass.name()))?;
        let snapshot = analyses.snapshot(ctx);
        let shared: &Context = ctx;
        let (results, stats) = run_batch_isolated(jobs, &wave, |&node| {
            let mut scope = NodeScope::new(shared, node);
            pass.run_on_root(&mut scope, &snapshot)
                .map(|()| scope.into_parts())
        });
        totals.accumulate(&stats);
        let mut edits = Vec::new();
        let mut published = Vec::new();
        for result in results {
            // A panicked root aborts the pass (discarding the wave) with a
            // structured error, same as a root returning `Err`.
            let (node_edits, node_published) = result.map_err(|worker_fault| {
                let site = format!("pass '{}' worker", pass.name());
                if worker_fault.cancelled {
                    IrError::Cancelled {
                        site,
                        detail: worker_fault.message,
                    }
                } else {
                    IrError::WorkerPanic {
                        site,
                        message: worker_fault.message,
                    }
                }
            })??;
            edits.extend(node_edits);
            published.extend(node_published);
        }
        // Published analyses were computed against the *pre-merge* IR, so they
        // install before the edits apply — their generation stamp then matches
        // their computation basis. They survive the subsequent bump only when
        // the pass's preservation declaration covers them (and the debug-mode
        // lie detector re-verifies that at pass exit); publishing a value the
        // wave's own edits change is a preservation lie, not a cache update.
        for publish in published {
            publish(analyses, ctx);
        }
        ctx.apply_attr_edits(edits);
    }
    pass.finish_parallel(ctx, root, state, analyses)?;
    Ok(totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OpBuilder;
    use crate::types::Type;

    struct CountConstantsPass {
        expected: usize,
    }

    impl Pass for CountConstantsPass {
        fn name(&self) -> &str {
            "count-constants"
        }
        fn options(&self) -> Vec<PassOption> {
            vec![PassOption::new("expected", self.expected)]
        }
        fn verify_after(&self) -> bool {
            // Analysis-only: nothing to re-verify.
            false
        }
        fn run(
            &self,
            ctx: &mut Context,
            root: OpId,
            _state: &mut PipelineState,
            _analyses: &mut AnalysisManager,
        ) -> IrResult<()> {
            let n = ctx.collect_ops(root, "arith.constant").len();
            if n == self.expected {
                Ok(())
            } else {
                Err(IrError::verification(format!(
                    "expected {} constants, found {n}",
                    self.expected
                )))
            }
        }
    }

    struct EraseConstantsPass;

    impl Pass for EraseConstantsPass {
        fn name(&self) -> &str {
            "erase-constants"
        }
        fn run(
            &self,
            ctx: &mut Context,
            root: OpId,
            state: &mut PipelineState,
            _analyses: &mut AnalysisManager,
        ) -> IrResult<()> {
            let mut erased = 0_usize;
            for op in ctx.collect_ops(root, "arith.constant") {
                ctx.erase_op(op);
                erased += 1;
            }
            state.insert(ErasedCount(erased));
            Ok(())
        }
    }

    #[derive(Debug, PartialEq)]
    struct ErasedCount(usize);

    fn module_with_constants(ctx: &mut Context, n: usize) -> OpId {
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![]);
        let mut b = OpBuilder::at_end_of(ctx, func);
        for i in 0..n {
            b.create_constant_int(i as i64, Type::i32());
        }
        module
    }

    #[test]
    fn pipeline_runs_passes_in_order_and_records_statistics() {
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 3);
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(CountConstantsPass { expected: 3 }));
        pm.add_pass(Box::new(EraseConstantsPass));
        pm.add_pass(Box::new(CountConstantsPass { expected: 0 }));
        assert_eq!(pm.len(), 3);
        assert!(!pm.is_empty());
        assert_eq!(
            pm.pass_names(),
            vec!["count-constants", "erase-constants", "count-constants"]
        );
        let state = pm.run(&mut ctx, module).unwrap();
        assert_eq!(pm.statistics().len(), 3);
        assert_eq!(pm.statistics()[0].pass, "count-constants");
        assert!(pm.statistics()[1].live_ops_after < pm.statistics()[1].live_ops_before);
        assert_eq!(pm.statistics()[1].op_delta(), -3);
        assert_eq!(pm.statistics()[0].op_delta(), 0);
        // The erase pass deposited its artifact into the pipeline state.
        assert_eq!(state.get::<ErasedCount>(), Some(&ErasedCount(3)));
    }

    #[test]
    fn pipeline_aborts_on_pass_failure() {
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 2);
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(CountConstantsPass { expected: 99 }));
        pm.add_pass(Box::new(EraseConstantsPass));
        let err = pm.run(&mut ctx, module).unwrap_err();
        assert!(matches!(err, IrError::PassFailed { .. }));
        // The failing pipeline never reached the erase pass.
        assert_eq!(ctx.collect_ops(module, "arith.constant").len(), 2);
    }

    #[test]
    fn inter_pass_verification_catches_broken_ir() {
        struct BreakIrPass;
        impl Pass for BreakIrPass {
            fn name(&self) -> &str {
                "break-ir"
            }
            fn run(
                &self,
                ctx: &mut Context,
                root: OpId,
                _state: &mut PipelineState,
                _analyses: &mut AnalysisManager,
            ) -> IrResult<()> {
                // Erase a constant that still has users, leaving a dangling operand.
                let consts = ctx.collect_ops(root, "arith.constant");
                let c = consts[0];
                let result = ctx.op(c).results[0];
                let block = ctx.op(c).parent_block.unwrap();
                ctx.build_op(block, "arith.negi", vec![result], vec![Type::i32()], vec![]);
                ctx.erase_op(c);
                Ok(())
            }
        }
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 1);
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(BreakIrPass));
        assert!(pm.run(&mut ctx, module).is_err());

        // With verification disabled, the same pipeline "succeeds".
        let mut ctx2 = Context::new();
        let module2 = module_with_constants(&mut ctx2, 1);
        let mut pm2 = PassManager::new().with_verification(false);
        pm2.add_pass(Box::new(BreakIrPass));
        assert!(pm2.run(&mut ctx2, module2).is_ok());
        assert!(!pm2.statistics()[0].verified);
    }

    #[test]
    fn per_pass_verification_toggle_is_respected() {
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 1);
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(CountConstantsPass { expected: 1 }));
        pm.add_pass(Box::new(EraseConstantsPass));
        pm.run(&mut ctx, module).unwrap();
        // The analysis pass opted out of verification, the transform did not.
        assert!(!pm.statistics()[0].verified);
        assert!(pm.statistics()[1].verified);
    }

    #[test]
    fn pipeline_state_slots_are_typed() {
        let mut state = PipelineState::new();
        assert!(state.is_empty());
        assert_eq!(state.insert(3_i64), None);
        assert_eq!(state.insert("hello"), None);
        assert_eq!(state.len(), 2);
        assert_eq!(state.get::<i64>(), Some(&3));
        assert!(state.contains::<&str>());
        assert!(!state.contains::<f64>());
        // Replacing returns the old value; taking empties the slot.
        assert_eq!(state.insert(4_i64), Some(3));
        *state.get_mut::<i64>().unwrap() += 1;
        assert_eq!(state.take::<i64>(), Some(5));
        assert!(!state.contains::<i64>());
    }

    #[test]
    fn statistics_and_options_render_for_reports() {
        let stats = PassStatistics {
            pass: "hida-tiling".into(),
            micros: 120,
            live_ops_before: 10,
            live_ops_after: 14,
            verified: true,
            failed: false,
            cache: AnalysisCacheStats {
                hits: 3,
                misses: 1,
                invalidations: 0,
                preserved: 2,
            },
            parallel: Some(ParallelStats {
                workers: 4,
                items: 6,
                steals: 1,
                max_worker_items: 2,
                min_worker_items: 1,
            }),
            options: vec![PassOption::new("tile-size", 8)],
        };
        let rendered = stats.to_string();
        assert!(rendered.contains("hida-tiling"));
        assert!(rendered.contains("10 -> 14 (+4)"));
        assert!(rendered.contains("tile-size=8"));
        assert!(rendered.contains("3 hit / 1 miss"));
        assert!(rendered.contains("parallel 4 workers / 6 items / 1 steals"));
        assert!(!rendered.contains("FAILED"));
        assert_eq!(stats.op_delta(), 4);
    }

    #[test]
    fn failing_pass_still_records_statistics() {
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 2);
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(EraseConstantsPass));
        pm.add_pass(Box::new(CountConstantsPass { expected: 99 }));
        pm.add_pass(Box::new(EraseConstantsPass));
        assert!(pm.run(&mut ctx, module).is_err());
        // The aborting pass leaves a (failed) record; the never-run third pass
        // does not.
        assert_eq!(pm.statistics().len(), 2);
        assert!(!pm.statistics()[0].failed);
        let aborted = &pm.statistics()[1];
        assert_eq!(aborted.pass, "count-constants");
        assert!(aborted.failed);
        assert!(!aborted.verified);
        assert!(aborted.to_string().contains("FAILED"));
    }

    /// Toy analysis for preservation tests: the number of constants below root.
    #[derive(Debug, Clone, PartialEq)]
    struct ConstantCount(usize);

    impl crate::analysis::Analysis for ConstantCount {
        const NAME: &'static str = "constant-count";
        fn compute(ctx: &Context, root: OpId) -> Self {
            ConstantCount(ctx.collect_ops(root, "arith.constant").len())
        }
    }

    /// Queries the analysis and records whether the query hit the cache.
    struct QueryCountPass;

    impl Pass for QueryCountPass {
        fn name(&self) -> &str {
            "query-count"
        }
        fn verify_after(&self) -> bool {
            false
        }
        fn run(
            &self,
            ctx: &mut Context,
            root: OpId,
            _state: &mut PipelineState,
            analyses: &mut AnalysisManager,
        ) -> IrResult<()> {
            analyses.get::<ConstantCount>(ctx, root);
            Ok(())
        }
    }

    /// Mutates the IR in a way that provably keeps the constant count stable
    /// (attribute annotation only) and declares so.
    struct AnnotatePass;

    impl Pass for AnnotatePass {
        fn name(&self) -> &str {
            "annotate"
        }
        fn preserved_analyses(&self) -> PreservedAnalyses {
            PreservedAnalyses::none().preserve::<ConstantCount>()
        }
        fn run(
            &self,
            ctx: &mut Context,
            root: OpId,
            _state: &mut PipelineState,
            _analyses: &mut AnalysisManager,
        ) -> IrResult<()> {
            ctx.op_mut(root).set_attr("annotated", 1_i64);
            Ok(())
        }
    }

    #[test]
    fn declared_preservation_keeps_analyses_alive_across_a_mutating_pass() {
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 3);
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(QueryCountPass));
        pm.add_pass(Box::new(AnnotatePass));
        pm.add_pass(Box::new(QueryCountPass));
        pm.run(&mut ctx, module).unwrap();
        let stats = pm.statistics();
        assert_eq!(stats[0].cache.misses, 1);
        assert_eq!(stats[1].cache.preserved, 1, "annotate kept the entry alive");
        assert_eq!(
            stats[2].cache.hits, 1,
            "the second query must be served from the preserved cache"
        );
        assert_eq!(stats[2].cache.misses, 0);
    }

    #[test]
    fn undeclared_mutation_forces_recomputation() {
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 3);
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(QueryCountPass));
        pm.add_pass(Box::new(EraseConstantsPass)); // preserves nothing
        pm.add_pass(Box::new(QueryCountPass));
        pm.run(&mut ctx, module).unwrap();
        let stats = pm.statistics();
        assert_eq!(stats[1].cache.invalidations, 1);
        assert_eq!(stats[2].cache.misses, 1);
        assert_eq!(stats[2].cache.hits, 0);
    }

    /// A parallelizable test pass: annotates every `func.func` below the root
    /// with its body-op count. The sequential and per-root paths are written
    /// independently (as real passes do it) and must agree.
    struct AnnotateFuncsPass;

    impl AnnotateFuncsPass {
        fn funcs(ctx: &Context, root: OpId) -> Vec<OpId> {
            ctx.collect_ops(root, "func.func")
        }
    }

    impl Pass for AnnotateFuncsPass {
        fn name(&self) -> &str {
            "annotate-funcs"
        }
        fn verify_after(&self) -> bool {
            false
        }
        fn run(
            &self,
            ctx: &mut Context,
            root: OpId,
            _state: &mut PipelineState,
            _analyses: &mut AnalysisManager,
        ) -> IrResult<()> {
            for func in Self::funcs(ctx, root) {
                let n = ctx.body_ops(func).len() as i64;
                ctx.op_mut(func).set_attr("body_ops", n);
            }
            Ok(())
        }
        fn parallelizable_roots(
            &self,
            ctx: &Context,
            root: OpId,
            _state: &PipelineState,
            _analyses: &mut AnalysisManager,
        ) -> Option<Vec<Vec<OpId>>> {
            Some(vec![Self::funcs(ctx, root)])
        }
        fn run_on_root(
            &self,
            scope: &mut NodeScope<'_>,
            _snapshot: &AnalysisSnapshot,
        ) -> IrResult<()> {
            let func = scope.root();
            let n = scope.ctx().body_ops(func).len() as i64;
            scope.set_attr(func, "body_ops", n)
        }
    }

    fn module_with_funcs(ctx: &mut Context, funcs: usize) -> OpId {
        let module = ctx.create_module("m");
        for i in 0..funcs {
            let func =
                OpBuilder::at_end_of(ctx, module).create_func(&format!("f{i}"), vec![], vec![]);
            let mut b = OpBuilder::at_end_of(ctx, func);
            for k in 0..=i {
                b.create_constant_int(k as i64, Type::i32());
            }
        }
        module
    }

    #[test]
    fn parallel_roots_produce_identical_ir_to_sequential_run() {
        let run_with_jobs = |jobs: usize| -> (String, Option<ParallelStats>) {
            let mut ctx = Context::new();
            let module = module_with_funcs(&mut ctx, 8);
            let mut pm = PassManager::new().with_jobs(jobs);
            assert_eq!(pm.jobs(), jobs);
            pm.add_pass(Box::new(AnnotateFuncsPass));
            pm.run(&mut ctx, module).unwrap();
            let parallel = pm.statistics()[0].parallel.clone();
            (crate::printer::print_op(&ctx, module), parallel)
        };
        let (sequential_ir, sequential_stats) = run_with_jobs(1);
        let (parallel_ir, parallel_stats) = run_with_jobs(4);
        assert_eq!(sequential_ir, parallel_ir);
        // --jobs 1 takes the sequential path and records no parallel stats.
        assert!(sequential_stats.is_none());
        let stats = parallel_stats.expect("parallel execution records stats");
        assert_eq!(stats.items, 8);
        assert!(stats.workers > 1 && stats.workers <= 4);
        assert!(stats.max_worker_items >= stats.min_worker_items);
    }

    #[test]
    fn failing_worker_aborts_the_pass_and_discards_the_wave() {
        /// Fails on every func with an odd body size; even funcs record edits
        /// that must be discarded because the wave aborts.
        struct FailOddPass;
        impl Pass for FailOddPass {
            fn name(&self) -> &str {
                "fail-odd"
            }
            fn run(
                &self,
                _ctx: &mut Context,
                _root: OpId,
                _state: &mut PipelineState,
                _analyses: &mut AnalysisManager,
            ) -> IrResult<()> {
                unreachable!("parallel path is taken under jobs > 1")
            }
            fn parallelizable_roots(
                &self,
                ctx: &Context,
                root: OpId,
                _state: &PipelineState,
                _analyses: &mut AnalysisManager,
            ) -> Option<Vec<Vec<OpId>>> {
                Some(vec![ctx.collect_ops(root, "func.func")])
            }
            fn run_on_root(
                &self,
                scope: &mut NodeScope<'_>,
                _snapshot: &AnalysisSnapshot,
            ) -> IrResult<()> {
                let func = scope.root();
                if scope.ctx().body_ops(func).len() % 2 == 1 {
                    return Err(IrError::verification("odd func"));
                }
                scope.set_attr(func, "even", 1_i64)
            }
        }
        let mut ctx = Context::new();
        let module = module_with_funcs(&mut ctx, 4);
        let mut pm = PassManager::new().with_jobs(4);
        pm.add_pass(Box::new(FailOddPass));
        let err = pm.run(&mut ctx, module).unwrap_err();
        assert!(err.to_string().contains("fail-odd"));
        assert!(pm.statistics().last().unwrap().failed);
        // No edit of the aborted wave reached the IR.
        for func in ctx.collect_ops(module, "func.func") {
            assert_eq!(ctx.op(func).attr_int("even"), None);
        }
    }

    #[test]
    fn workers_read_the_snapshot_and_publish_computed_analyses() {
        /// Reads `ConstantCount` from the snapshot when present, computes and
        /// publishes it otherwise.
        struct SnapshotCountPass;
        impl Pass for SnapshotCountPass {
            fn name(&self) -> &str {
                "snapshot-count"
            }
            fn verify_after(&self) -> bool {
                false
            }
            fn preserved_analyses(&self) -> PreservedAnalyses {
                PreservedAnalyses::all()
            }
            fn run(
                &self,
                _ctx: &mut Context,
                _root: OpId,
                _state: &mut PipelineState,
                _analyses: &mut AnalysisManager,
            ) -> IrResult<()> {
                Ok(())
            }
            fn parallelizable_roots(
                &self,
                ctx: &Context,
                root: OpId,
                _state: &PipelineState,
                _analyses: &mut AnalysisManager,
            ) -> Option<Vec<Vec<OpId>>> {
                Some(vec![ctx.collect_ops(root, "func.func")])
            }
            fn run_on_root(
                &self,
                scope: &mut NodeScope<'_>,
                snapshot: &AnalysisSnapshot,
            ) -> IrResult<()> {
                let func = scope.root();
                if snapshot.get::<ConstantCount>(func).is_none() {
                    let computed = ConstantCount::compute(scope.ctx(), func);
                    scope.publish(func, computed)?;
                }
                Ok(())
            }
        }
        use crate::analysis::Analysis;
        let mut ctx = Context::new();
        let module = module_with_funcs(&mut ctx, 3);
        let funcs = ctx.collect_ops(module, "func.func");
        let mut pm = PassManager::new().with_jobs(4);
        // Pre-warm one func so the snapshot holds it; the workers must publish
        // the other two.
        pm.analyses_mut().get::<ConstantCount>(&ctx, funcs[0]);
        pm.add_pass(Box::new(SnapshotCountPass));
        pm.run(&mut ctx, module).unwrap();
        for (i, &func) in funcs.iter().enumerate() {
            assert_eq!(
                pm.analyses().cached::<ConstantCount>(&ctx, func),
                Some(&ConstantCount(i + 1)),
                "func {i} must be cached after the parallel pass"
            );
        }
    }

    #[test]
    fn panicking_pass_is_isolated_into_a_structured_failure() {
        crate::fault::silence_expected_panics();
        struct PanicPass;
        impl Pass for PanicPass {
            fn name(&self) -> &str {
                "panic-pass"
            }
            fn run(
                &self,
                _ctx: &mut Context,
                _root: OpId,
                _state: &mut PipelineState,
                _analyses: &mut AnalysisManager,
            ) -> IrResult<()> {
                panic!("injected fault: deliberate unwind");
            }
        }
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 1);
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(PanicPass));
        pm.add_pass(Box::new(CountConstantsPass { expected: 1 }));
        let err = pm.run(&mut ctx, module).unwrap_err();
        match &err {
            IrError::WorkerPanic { site, message } => {
                assert_eq!(site, "pass 'panic-pass'");
                assert!(message.contains("deliberate unwind"));
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        // The panicking pass left a failed record; the second pass never ran.
        assert_eq!(pm.statistics().len(), 1);
        assert!(pm.statistics()[0].failed);
    }

    #[test]
    fn injected_pass_panic_fires_under_an_installed_point_guard() {
        crate::fault::silence_expected_panics();
        let token = crate::fault::CancelToken::new();
        let faults = crate::fault::PointFaults {
            pass_panic: true,
            ..Default::default()
        };
        let _guard = crate::fault::install_point(token, Some(faults));
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 1);
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(CountConstantsPass { expected: 1 }));
        let err = pm.run(&mut ctx, module).unwrap_err();
        assert!(
            matches!(&err, IrError::WorkerPanic { message, .. } if message.contains("injected")),
            "expected an injected WorkerPanic, got {err:?}"
        );
    }

    #[test]
    fn cancelled_token_stops_the_pipeline_at_a_pass_boundary() {
        let token = crate::fault::CancelToken::new();
        token.cancel();
        let _guard = crate::fault::install_point(token, None);
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 2);
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(EraseConstantsPass));
        let err = pm.run(&mut ctx, module).unwrap_err();
        assert!(
            matches!(&err, IrError::Cancelled { .. }),
            "expected Cancelled, got {err:?}"
        );
        // The pass never ran: its mutation did not happen.
        assert_eq!(ctx.collect_ops(module, "arith.constant").len(), 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn lying_preservation_declaration_fails_the_pipeline() {
        /// Erases a constant while claiming the count is preserved.
        struct LyingPass;
        impl Pass for LyingPass {
            fn name(&self) -> &str {
                "liar"
            }
            fn preserved_analyses(&self) -> PreservedAnalyses {
                PreservedAnalyses::none().preserve::<ConstantCount>()
            }
            fn run(
                &self,
                ctx: &mut Context,
                root: OpId,
                _state: &mut PipelineState,
                _analyses: &mut AnalysisManager,
            ) -> IrResult<()> {
                let consts = ctx.collect_ops(root, "arith.constant");
                let c = consts[0];
                ctx.erase_op(c);
                Ok(())
            }
        }
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 2);
        let mut pm = PassManager::new().with_verification(false);
        pm.add_pass(Box::new(QueryCountPass));
        pm.add_pass(Box::new(LyingPass));
        let err = pm.run(&mut ctx, module).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("liar"), "{message}");
        assert!(message.contains("constant-count"), "{message}");
        // The lying pass still left a failed statistics record.
        assert!(pm.statistics().last().unwrap().failed);
    }
}
