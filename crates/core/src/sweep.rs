//! Sweep-level parallel compilation with cross-compilation estimate sharing.
//!
//! HIDA's evaluation is a design-space sweep: dozens of *independent*
//! [`Compiler`] invocations — pipeline-string variants of one workload —
//! whose wall-clock sum, not any single compile, is what users wait for.
//! This module makes the whole sweep the unit of optimization:
//!
//! * [`SweepEngine`] fans [`SweepPoint`]s out over the same work-stealing pool
//!   ([`hida_ir_core::par::run_batch`]) the passes use for per-node work.
//!   Each design point compiles in its own [`Context`](hida_ir_core::Context)
//!   (share-nothing), so the only coordination is the result slot per point —
//!   results come back in declaration order regardless of scheduling.
//! * A [`JobBudget`] composes the two parallelism levels: `pool_jobs` design
//!   points run concurrently, each with `point_jobs` worker threads for its
//!   per-node pass work, and `pool_jobs * point_jobs` never exceeds the
//!   budgeted total — point-level and node-level parallelism compose without
//!   oversubscribing the machine.
//! * A content-addressed [`SharedEstimateCache`] is handed to every point:
//!   per-node QoR estimates are keyed by structural fingerprint and device,
//!   so the 100th ResNet-18 design point re-estimates only the nodes whose
//!   tiling or parallel factors actually changed. The per-node model is a
//!   pure function of exactly the fingerprinted inputs, which is why sweep
//!   results are **byte-identical** to a sequential, share-nothing loop — the
//!   determinism CI enforces.

use crate::{CompilationResult, Compiler, HidaOptions, Workload};
use hida_estimator::shared_cache::{SharedCacheStats, SharedEstimateCache};
use hida_ir_core::fault::{self, CancelToken, FaultKind, FaultPlan};
use hida_ir_core::par::{default_jobs, run_batch_isolated};
use hida_ir_core::{IrError, IrResult, ParallelStats};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Minimal JSON string escaping for the workspace's hand-rolled report
/// writers (`--stats-json`, `BENCH_sweep.json`; no JSON dependency without
/// registry access): quotes, backslashes and control characters.
pub fn json_escape(raw: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One design point of a sweep: a workload plus the compiler configuration
/// (options and, usually, an explicit pipeline-string variant) to build it
/// with.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Short label identifying the point in reports (e.g. `"pf64-tile8"`).
    pub label: String,
    /// The workload to compile.
    pub workload: Workload,
    /// Compiler options (device, workload construction knobs).
    pub options: HidaOptions,
    /// Explicit textual pipeline overriding the options-derived flow.
    pub pipeline: Option<String>,
}

impl SweepPoint {
    /// Creates a design point compiling `workload` with `options`.
    pub fn new(label: impl Into<String>, workload: Workload, options: HidaOptions) -> Self {
        SweepPoint {
            label: label.into(),
            workload,
            options,
            pipeline: None,
        }
    }

    /// Sets an explicit pipeline-string variant (builder style).
    pub fn with_pipeline(mut self, text: impl Into<String>) -> Self {
        self.pipeline = Some(text.into());
        self
    }

    /// The textual pipeline this point runs: the explicit variant, or the
    /// options-derived flow.
    pub fn pipeline_text(&self) -> String {
        self.pipeline
            .clone()
            .unwrap_or_else(|| self.options.pipeline_text())
    }
}

/// How a sweep's worker-thread budget is split between concurrent design
/// points (`pool_jobs`) and per-node parallelism inside each point
/// (`point_jobs`).
///
/// ```
/// use hida::JobBudget;
///
/// // 8 threads over 12 points: 8 concurrent points, sequential inside.
/// assert_eq!(JobBudget::for_points(8, 12), JobBudget { pool_jobs: 8, point_jobs: 1 });
/// // 8 threads over 2 points: 2 concurrent points, 4 workers each.
/// assert_eq!(JobBudget::for_points(8, 2), JobBudget { pool_jobs: 2, point_jobs: 4 });
/// assert_eq!(JobBudget::for_points(8, 2).total(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobBudget {
    /// Design points compiling concurrently.
    pub pool_jobs: usize,
    /// Worker threads inside each design point (per-node pass work and QoR
    /// estimation).
    pub point_jobs: usize,
}

impl JobBudget {
    /// The fully sequential budget: one point at a time, no worker threads —
    /// the bitwise-reproducibility escape hatch and the deterministic-order
    /// setting for cache-accounting tests.
    pub fn sequential() -> Self {
        JobBudget {
            pool_jobs: 1,
            point_jobs: 1,
        }
    }

    /// Splits `total_jobs` threads over `num_points` design points. Point-
    /// level parallelism is preferred (independent compilations scale
    /// perfectly); leftover capacity becomes per-point worker threads. The
    /// product `pool_jobs * point_jobs` never exceeds `total_jobs`; a budget
    /// smaller than the point count degrades to `pool_jobs = budget,
    /// point_jobs = 1` (never oversubscribed, never a zeroed lane), and an
    /// empty sweep collapses to the sequential budget instead of handing the
    /// whole thread budget to a lane that will never run.
    pub fn for_points(total_jobs: usize, num_points: usize) -> Self {
        if num_points == 0 {
            return JobBudget::sequential();
        }
        let total = total_jobs.max(1);
        let pool = total.min(num_points);
        JobBudget {
            pool_jobs: pool,
            point_jobs: (total / pool).max(1),
        }
    }

    /// The maximum number of threads the budget can occupy at once.
    pub fn total(&self) -> usize {
        self.pool_jobs * self.point_jobs
    }
}

/// A job budget that re-splits `point_jobs` *per design point* as the sweep's
/// pending-point pool drains, subsuming the static [`JobBudget::for_points`]
/// split.
///
/// A static split freezes `pool_jobs x point_jobs` before the first compile,
/// so once fewer points remain than pool lanes, the surplus lanes idle while
/// each straggler still runs with its original (small) `point_jobs`. The
/// adaptive budget instead asks, at the moment a point starts compiling, how
/// many points are still pending: the fewer there are, the more worker
/// threads each one gets (`total_jobs / min(pending, pool_jobs)`), capped by
/// the point's own useful width ([`crate::Workload::node_parallel_width`] —
/// a big DNN point can use node-level parallelism that a two-node PolyBench
/// point cannot).
///
/// Re-splitting never changes *results*: `point_jobs` only sets the worker
/// count for per-node pass work and estimation, which is byte-identical at
/// any job count (the PR 4 determinism guarantee CI enforces).
#[derive(Debug)]
pub struct AdaptiveBudget {
    total_jobs: usize,
    pool_jobs: usize,
    pending: std::sync::atomic::AtomicUsize,
    /// Worker threads handed back by cancelled/timed-out points; future
    /// claims redistribute them (see [`AdaptiveBudget::reclaim`]).
    reclaimed: std::sync::atomic::AtomicUsize,
}

impl AdaptiveBudget {
    /// Creates an adaptive budget for `num_points` points over `total_jobs`
    /// threads. The pool width is fixed (same choice as
    /// [`JobBudget::for_points`]); only the per-point split adapts.
    pub fn new(total_jobs: usize, num_points: usize) -> Self {
        let total = total_jobs.max(1);
        AdaptiveBudget {
            total_jobs: total,
            pool_jobs: JobBudget::for_points(total, num_points).pool_jobs,
            pending: std::sync::atomic::AtomicUsize::new(num_points),
            reclaimed: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Design points compiling concurrently (fixed for the whole sweep).
    pub fn pool_jobs(&self) -> usize {
        self.pool_jobs
    }

    /// The total thread budget being split.
    pub fn total_jobs(&self) -> usize {
        self.total_jobs
    }

    /// Points that have not yet claimed their worker split.
    pub fn pending(&self) -> usize {
        self.pending.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Claims the next point's worker-thread count: `total_jobs` divided by
    /// the number of points that can still compete for threads (never more
    /// than the pool width), capped at `width_cap` — the widest parallelism
    /// the point's workload can actually exploit.
    pub fn claim(&self, width_cap: usize) -> usize {
        let before = self
            .pending
            .fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
        let competing = before.max(1).min(self.pool_jobs).max(1);
        let available = self.total_jobs + self.reclaimed.load(std::sync::atomic::Ordering::SeqCst);
        (available / competing).max(1).min(width_cap.max(1))
    }

    /// Hands back the worker threads of a cancelled (or timed-out) point so
    /// subsequent claims can use the freed capacity. Purely a scheduling
    /// lever: results stay byte-identical at any worker count.
    pub fn reclaim(&self, width: usize) {
        self.reclaimed
            .fetch_add(width, std::sync::atomic::Ordering::SeqCst);
    }

    /// The static split this budget started from (for reports).
    pub fn nominal(&self) -> JobBudget {
        JobBudget {
            pool_jobs: self.pool_jobs,
            point_jobs: (self.total_jobs / self.pool_jobs.max(1)).max(1),
        }
    }
}

/// Structured classification of why a design point failed, used by reports,
/// the CLI summary, and the chaos CI assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// A worker or pass panicked; the unwind was isolated.
    Panicked,
    /// A per-point deadline or the whole-run budget cancelled the point.
    TimedOut,
    /// An ordinary compilation error (verification, pass failure, ...).
    Failed,
}

impl FailureReason {
    /// Stable report name (`Panicked` / `TimedOut` / `Failed`).
    pub fn name(&self) -> &'static str {
        match self {
            FailureReason::Panicked => "Panicked",
            FailureReason::TimedOut => "TimedOut",
            FailureReason::Failed => "Failed",
        }
    }
}

impl fmt::Display for FailureReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Maps a structured [`IrError`] onto the report-level [`FailureReason`].
pub fn classify_failure(error: &IrError) -> FailureReason {
    match error {
        IrError::WorkerPanic { .. } => FailureReason::Panicked,
        IrError::Cancelled { .. } => FailureReason::TimedOut,
        _ => FailureReason::Failed,
    }
}

/// One failed attempt in a point's retry history.
#[derive(Debug, Clone)]
pub struct PointAttempt {
    /// Zero-based attempt index (0 = the original attempt).
    pub attempt: usize,
    /// Structured failure classification.
    pub reason: FailureReason,
    /// The rendered error.
    pub detail: String,
    /// Whether the attempt ran under the degradation ladder (retries run with
    /// `jobs = 1`, verification on, and the shared cache bypassed).
    pub degraded: bool,
}

impl fmt::Display for PointAttempt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "attempt {}: {} ({})",
            self.attempt, self.reason, self.detail
        )?;
        if self.degraded {
            write!(f, " [degraded]")?;
        }
        Ok(())
    }
}

/// The full attempt history of a point that never converged to a clean
/// result.
#[derive(Debug, Clone)]
pub struct PointFailure {
    /// Every failed attempt, in order. Never empty.
    pub attempts: Vec<PointAttempt>,
}

impl PointFailure {
    /// The final attempt's classification — what the point ultimately died of.
    pub fn reason(&self) -> FailureReason {
        self.attempts
            .last()
            .map(|a| a.reason)
            .unwrap_or(FailureReason::Failed)
    }
}

/// Everything produced for one design point.
#[derive(Debug)]
pub struct SweepPointOutcome {
    /// The point's label.
    pub label: String,
    /// The textual pipeline the point ran.
    pub pipeline: String,
    /// Wall-clock seconds this point took (front-end through emission).
    pub seconds: f64,
    /// Worker threads this point compiled with. Fixed by the budget for
    /// static sweeps; chosen at claim time under an [`AdaptiveBudget`]
    /// (timing detail — results are byte-identical at any value).
    pub point_jobs: usize,
    /// The compilation result, or the (final) error that stopped it.
    pub result: IrResult<CompilationResult>,
    /// Number of attempts made (1 without retries; up to `retries + 1`).
    pub attempts: usize,
    /// The structured attempt history when the point never converged
    /// (`None` for points that compiled cleanly, possibly after retries).
    pub failure: Option<PointFailure>,
}

impl SweepPointOutcome {
    /// The structured reason the point failed, if it did.
    pub fn failure_reason(&self) -> Option<FailureReason> {
        match (&self.failure, &self.result) {
            (Some(failure), _) => Some(failure.reason()),
            (None, Err(e)) => Some(classify_failure(e)),
            (None, Ok(_)) => None,
        }
    }
}

/// The result of one sweep run.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Per-point outcomes, in declaration order.
    pub points: Vec<SweepPointOutcome>,
    /// The budget the sweep ran under.
    pub budget: JobBudget,
    /// Wall-clock seconds for the whole sweep.
    pub wall_seconds: f64,
    /// Aggregate traffic of the cross-compilation estimate cache (`None` when
    /// sharing was disabled).
    pub shared_cache: Option<SharedCacheStats>,
    /// Worker/steal counters of the sweep-level pool.
    pub pool: ParallelStats,
    /// Whether per-point worker counts were re-split adaptively as the pool
    /// drained (see [`AdaptiveBudget`]); `budget` then reports the nominal
    /// static split the adaptive schedule started from.
    pub adaptive: bool,
}

impl SweepOutcome {
    /// True when every point compiled successfully.
    pub fn all_ok(&self) -> bool {
        self.points.iter().all(|p| p.result.is_ok())
    }

    /// Labels of the points whose compilation failed, in declaration order
    /// (the CLI's failure summary and nonzero-exit decision).
    pub fn failed_labels(&self) -> Vec<&str> {
        self.points
            .iter()
            .filter(|p| p.result.is_err())
            .map(|p| p.label.as_str())
            .collect()
    }

    /// Sum of the per-point wall-clock times (the time a sequential loop
    /// would have spent compiling, under the same per-point configuration).
    pub fn point_seconds_total(&self) -> f64 {
        self.points.iter().map(|p| p.seconds).sum()
    }
}

/// Runs a list of independent design points through the compiler, pooled and
/// (by default) sharing per-node estimates across points.
///
/// ```no_run
/// use hida::{HidaOptions, PolybenchKernel, SweepEngine, SweepPoint, Workload};
///
/// let points: Vec<SweepPoint> = [4, 8, 16]
///     .iter()
///     .map(|&factor| {
///         SweepPoint::new(
///             format!("pf{factor}"),
///             Workload::Polybench(PolybenchKernel::TwoMm),
///             HidaOptions {
///                 max_parallel_factor: factor,
///                 ..HidaOptions::polybench()
///             },
///         )
///     })
///     .collect();
/// let outcome = SweepEngine::new().run(&points);
/// assert!(outcome.all_ok());
/// ```
#[derive(Debug, Clone)]
pub struct SweepEngine {
    budget: Option<JobBudget>,
    total_jobs: Option<usize>,
    share_estimates: bool,
    cache: Option<Arc<SharedEstimateCache>>,
    verification: bool,
    adaptive: bool,
    retries: usize,
    deadline_ms: Option<u64>,
    run_budget_ms: Option<u64>,
    fault_plan: Option<FaultPlan>,
}

impl Default for SweepEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepEngine {
    /// Creates an engine with the default budget (the machine's available
    /// parallelism, split when the sweep runs) and estimate sharing enabled.
    pub fn new() -> Self {
        SweepEngine {
            budget: None,
            total_jobs: None,
            share_estimates: true,
            cache: None,
            verification: true,
            adaptive: false,
            retries: 0,
            deadline_ms: None,
            run_budget_ms: None,
            fault_plan: None,
        }
    }

    /// Sets the retry budget per point (builder style). A failed or timed-out
    /// point re-compiles up to `retries` more times under the degradation
    /// ladder — `jobs = 1`, verification forced on, shared cache bypassed —
    /// so transient faults converge to a clean result and persistent ones to
    /// a structured [`PointFailure`] carrying the full attempt history.
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// Sets a per-point deadline in milliseconds (builder style). Work stops
    /// at the next cancellation checkpoint (pass boundary, wave boundary, or
    /// estimator node loop) and the point reports a `TimedOut` outcome.
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Sets a whole-run wall-clock budget in milliseconds (builder style):
    /// one deadline shared by every point, chained above the per-point
    /// deadlines. Points that have not finished when it expires stop at their
    /// next checkpoint with a `TimedOut` outcome.
    pub fn with_run_budget_ms(mut self, budget_ms: u64) -> Self {
        self.run_budget_ms = Some(budget_ms);
        self
    }

    /// Arms a deterministic fault-injection plan (builder style): faults are
    /// assigned to points by seeded label shuffle — independent of job count
    /// and scheduling — and fire at named sites inside the afflicted points'
    /// compilations. Used by the chaos CI stage and `--inject-faults`.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = if plan.is_empty() { None } else { Some(plan) };
        self
    }

    /// Sets an explicit job budget (builder style). Without one, the budget
    /// is [`JobBudget::for_points`] of the machine's available parallelism.
    /// An explicit budget disables adaptive re-splitting.
    pub fn with_budget(mut self, budget: JobBudget) -> Self {
        self.budget = Some(budget);
        self.adaptive = false;
        self
    }

    /// Enables per-point re-splitting of the worker budget as the pool drains
    /// (builder style): each point claims its `point_jobs` from an
    /// [`AdaptiveBudget`] when it starts compiling, capped by its workload's
    /// [`Workload::node_parallel_width`]. Results are byte-identical to the
    /// static split; only the thread schedule (and therefore wall clock)
    /// changes.
    pub fn with_adaptive_budget(mut self, enabled: bool) -> Self {
        self.adaptive = enabled;
        if enabled {
            self.budget = None;
        }
        self
    }

    /// Splits `total_jobs` threads over the sweep's points when it runs
    /// (builder style); shorthand for a deferred [`JobBudget::for_points`].
    pub fn with_total_jobs(mut self, total_jobs: usize) -> Self {
        self.budget = None;
        self.total_jobs = Some(total_jobs.max(1));
        self
    }

    /// Enables or disables the cross-compilation estimate cache (builder
    /// style). Disabled, every point is a fully isolated compilation — the
    /// share-nothing baseline the cache's results are verified against.
    pub fn with_shared_estimates(mut self, enabled: bool) -> Self {
        self.share_estimates = enabled;
        self
    }

    /// Reuses an existing cache instead of creating a fresh one per run, so
    /// consecutive sweeps (e.g. CLI invocations in one process) keep sharing.
    pub fn with_cache(mut self, cache: Arc<SharedEstimateCache>) -> Self {
        self.cache = Some(cache);
        self.share_estimates = true;
        self
    }

    /// Enables or disables IR verification inside every point's compilation
    /// (builder style); maps to [`Compiler::with_verification`]. On by
    /// default — the CLI's `--no-verify` sets `false`.
    pub fn with_verification(mut self, enabled: bool) -> Self {
        self.verification = enabled;
        self
    }

    /// Compiles every point. Points are independent; under a pooled budget
    /// they run concurrently, and the outcome vector is always in declaration
    /// order. Per-point failures are recorded, not propagated — one infeasible
    /// design point must not kill the other 99.
    pub fn run(&self, points: &[SweepPoint]) -> SweepOutcome {
        let total_jobs = self.total_jobs.unwrap_or_else(default_jobs);
        let adaptive = self
            .adaptive
            .then(|| AdaptiveBudget::new(total_jobs, points.len()));
        let budget = match &adaptive {
            Some(a) => a.nominal(),
            None => self
                .budget
                .unwrap_or_else(|| JobBudget::for_points(total_jobs, points.len())),
        };
        let cache = if self.share_estimates {
            Some(
                self.cache
                    .clone()
                    .unwrap_or_else(|| Arc::new(SharedEstimateCache::new())),
            )
        } else {
            None
        };
        // The run-level token carries the whole-run wall-clock budget; every
        // point attempt gets a child token chaining its own deadline below it.
        let run_token = match self.run_budget_ms {
            Some(budget_ms) => CancelToken::with_deadline_ms(budget_ms),
            None => CancelToken::new(),
        };
        // Fault assignment is a seeded shuffle of the *labels*, computed once
        // before any point runs — which points are afflicted is independent
        // of job count and thread scheduling.
        let assignments: Option<BTreeMap<String, FaultKind>> =
            self.fault_plan.as_ref().map(|plan| {
                let labels: Vec<String> = points.iter().map(|p| p.label.clone()).collect();
                plan.assign(&labels)
            });
        let start = Instant::now();
        let (results, pool) = run_batch_isolated(budget.pool_jobs, points, |point| {
            let armed = assignments
                .as_ref()
                .and_then(|map| map.get(&point.label))
                .and_then(|&kind| self.fault_plan.as_ref().map(|plan| plan.arm(kind)));
            self.run_point(
                point,
                &budget,
                adaptive.as_ref(),
                cache.as_ref(),
                &run_token,
                armed,
            )
        });
        // `run_point` isolates every attempt itself, so a fault here means a
        // panic escaped *between* attempts; synthesize a failed outcome
        // rather than aborting the other points.
        let outcomes: Vec<SweepPointOutcome> = results
            .into_iter()
            .zip(points)
            .map(|(result, point)| match result {
                Ok(outcome) => outcome,
                Err(worker_fault) => {
                    let site = format!("sweep point '{}'", point.label);
                    let error = if worker_fault.cancelled {
                        IrError::Cancelled {
                            site,
                            detail: worker_fault.message.clone(),
                        }
                    } else {
                        IrError::WorkerPanic {
                            site,
                            message: worker_fault.message.clone(),
                        }
                    };
                    let reason = classify_failure(&error);
                    SweepPointOutcome {
                        label: point.label.clone(),
                        pipeline: point.pipeline_text(),
                        seconds: 0.0,
                        point_jobs: 1,
                        attempts: 1,
                        failure: Some(PointFailure {
                            attempts: vec![PointAttempt {
                                attempt: 0,
                                reason,
                                detail: worker_fault.message,
                                degraded: false,
                            }],
                        }),
                        result: Err(error),
                    }
                }
            })
            .collect();
        SweepOutcome {
            points: outcomes,
            budget,
            wall_seconds: start.elapsed().as_secs_f64(),
            shared_cache: cache.map(|c| c.stats()),
            pool,
            adaptive: adaptive.is_some(),
        }
    }

    /// Compiles one point, retrying under the degradation ladder. Every
    /// attempt runs under its own cancellation token (per-point deadline
    /// chained below the run budget) and an installed fault context, with the
    /// whole compilation wrapped in `catch_unwind` — panics, cancellations
    /// and ordinary errors all land as structured [`PointAttempt`]s.
    fn run_point(
        &self,
        point: &SweepPoint,
        budget: &JobBudget,
        adaptive: Option<&AdaptiveBudget>,
        cache: Option<&Arc<SharedEstimateCache>>,
        run_token: &CancelToken,
        armed: Option<fault::PointFaults>,
    ) -> SweepPointOutcome {
        let point_start = Instant::now();
        let mut history: Vec<PointAttempt> = Vec::new();
        let mut last_error = None;
        let mut attempts = 0;
        for attempt in 0..=self.retries {
            attempts = attempt + 1;
            // Degradation ladder for retries: one worker thread (no pool
            // interleaving), verification forced on (catch IR corruption a
            // crashed attempt may have exposed), shared cache bypassed (a
            // poisoned or degraded cache cannot re-fail the retry).
            let degraded = attempt > 0;
            let point_jobs = if degraded {
                1
            } else {
                match adaptive {
                    Some(a) => a.claim(point.workload.node_parallel_width()),
                    None => budget.point_jobs,
                }
            };
            let mut compiler = Compiler::new(point.options.clone())
                .with_jobs(point_jobs)
                .with_verification(if degraded { true } else { self.verification });
            if !degraded {
                if let Some(cache) = cache {
                    compiler = compiler.with_shared_estimates(Arc::clone(cache));
                }
            }
            if let Some(text) = &point.pipeline {
                compiler = compiler.with_pipeline(text.clone());
            }
            // Transient plans fire on the first attempt only (so retries
            // recover); persistent plans re-arm every attempt.
            let attempt_faults = match &armed {
                Some(faults)
                    if attempt == 0 || !self.fault_plan.as_ref().is_some_and(|p| p.transient) =>
                {
                    Some(faults.clone())
                }
                _ => None,
            };
            let token = run_token.child(self.deadline_ms);
            let result = {
                let _guard = fault::install_point(token, attempt_faults);
                match catch_unwind(AssertUnwindSafe(|| {
                    compiler.compile(point.workload.clone())
                })) {
                    Ok(result) => result,
                    Err(payload) => Err(fault::error_from_panic(
                        &format!("sweep point '{}'", point.label),
                        payload,
                    )),
                }
            };
            match result {
                Ok(compiled) => {
                    return SweepPointOutcome {
                        label: point.label.clone(),
                        pipeline: point.pipeline_text(),
                        seconds: point_start.elapsed().as_secs_f64(),
                        point_jobs,
                        attempts,
                        failure: None,
                        result: Ok(compiled),
                    };
                }
                Err(error) => {
                    let reason = classify_failure(&error);
                    if reason == FailureReason::TimedOut {
                        if let Some(a) = adaptive {
                            a.reclaim(point_jobs);
                        }
                    }
                    history.push(PointAttempt {
                        attempt,
                        reason,
                        detail: error.to_string(),
                        degraded,
                    });
                    last_error = Some(error);
                    // A run-budget cancellation dooms every further attempt;
                    // stop retrying instead of burning checkpoints.
                    if run_token.is_cancelled() {
                        break;
                    }
                }
            }
        }
        SweepPointOutcome {
            label: point.label.clone(),
            pipeline: point.pipeline_text(),
            seconds: point_start.elapsed().as_secs_f64(),
            point_jobs: 1,
            attempts,
            failure: Some(PointFailure { attempts: history }),
            result: Err(last_error.unwrap_or_else(|| {
                IrError::pass_failed("sweep", "point failed without an attempt record")
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolybenchKernel;

    fn small_points(n: usize) -> Vec<SweepPoint> {
        (0..n)
            .map(|i| {
                SweepPoint::new(
                    format!("p{:02}", i + 1),
                    Workload::PolybenchSized(PolybenchKernel::TwoMm, 32),
                    HidaOptions {
                        max_parallel_factor: 4 << i,
                        ..HidaOptions::polybench()
                    },
                )
            })
            .collect()
    }

    #[test]
    fn classify_failure_maps_structured_variants() {
        assert_eq!(
            classify_failure(&IrError::WorkerPanic {
                site: "s".into(),
                message: "m".into()
            }),
            FailureReason::Panicked
        );
        assert_eq!(
            classify_failure(&IrError::Cancelled {
                site: "s".into(),
                detail: "d".into()
            }),
            FailureReason::TimedOut
        );
        assert_eq!(
            classify_failure(&IrError::verification("bad")),
            FailureReason::Failed
        );
        assert_eq!(FailureReason::Panicked.to_string(), "Panicked");
    }

    #[test]
    fn injected_pass_panic_is_isolated_and_schedule_independent() {
        hida_ir_core::fault::silence_expected_panics();
        let points = small_points(4);
        let plan = FaultPlan::parse("seed=7,pass-panic=1").unwrap();
        let run = |jobs: usize| {
            SweepEngine::new()
                .with_total_jobs(jobs)
                .with_fault_plan(plan.clone())
                .run(&points)
        };
        let sequential = run(1);
        let parallel = run(4);
        // Which point is afflicted is a pure function of (seed, labels):
        // identical at any job count.
        assert_eq!(sequential.failed_labels(), parallel.failed_labels());
        assert_eq!(sequential.failed_labels().len(), 1);
        assert!(!sequential.all_ok());
        let failed = sequential
            .points
            .iter()
            .find(|p| p.result.is_err())
            .unwrap();
        assert_eq!(failed.failure_reason(), Some(FailureReason::Panicked));
        let failure = failed.failure.as_ref().unwrap();
        assert_eq!(failure.attempts.len(), 1);
        assert!(failure.attempts[0].detail.contains("injected"));
        // The surviving points compiled, and their QoR is byte-identical to a
        // fault-free run — isolation, not contamination.
        let clean = SweepEngine::new().with_total_jobs(1).run(&points);
        assert!(clean.all_ok());
        for (chaos, baseline) in sequential.points.iter().zip(&clean.points) {
            if let (Ok(x), Ok(y)) = (&chaos.result, &baseline.result) {
                assert_eq!(x.estimate, y.estimate);
                assert_eq!(x.hls_cpp, y.hls_cpp);
            }
        }
    }

    #[test]
    fn transient_faults_converge_under_retries() {
        hida_ir_core::fault::silence_expected_panics();
        let points = small_points(3);
        let plan = FaultPlan::parse("seed=3,pass-panic=1,transient").unwrap();
        let outcome = SweepEngine::new()
            .with_total_jobs(1)
            .with_fault_plan(plan)
            .with_retries(1)
            .run(&points);
        assert!(outcome.all_ok(), "failed: {:?}", outcome.failed_labels());
        let retried = outcome
            .points
            .iter()
            .find(|p| p.attempts == 2)
            .expect("the afflicted point must have retried");
        assert!(retried.failure.is_none());
        assert!(retried.result.is_ok());
    }

    #[test]
    fn stalled_point_hits_its_deadline_and_reports_timed_out() {
        hida_ir_core::fault::silence_expected_panics();
        let points = small_points(2);
        let plan = FaultPlan::parse("seed=5,stall=1,stall-ms=300").unwrap();
        let outcome = SweepEngine::new()
            .with_total_jobs(1)
            .with_deadline_ms(50)
            .with_fault_plan(plan)
            .run(&points);
        assert_eq!(outcome.failed_labels().len(), 1, "{:?}", outcome.points);
        let failed = outcome.points.iter().find(|p| p.result.is_err()).unwrap();
        assert_eq!(failed.failure_reason(), Some(FailureReason::TimedOut));
        let detail = &failed.failure.as_ref().unwrap().attempts[0].detail;
        assert!(detail.contains("deadline"), "{detail}");
    }

    #[test]
    fn for_points_handles_degenerate_budgets() {
        // Zero budget clamps to one thread.
        assert_eq!(JobBudget::for_points(0, 12), JobBudget::sequential());
        // One thread is always the sequential split.
        assert_eq!(JobBudget::for_points(1, 12), JobBudget::sequential());
        // Budget smaller than the point count: one lane per thread, 1-wide.
        let small = JobBudget::for_points(3, 12);
        assert_eq!(
            small,
            JobBudget {
                pool_jobs: 3,
                point_jobs: 1
            }
        );
        assert!(small.total() <= 3);
        // Non-divisible budget never oversubscribes.
        let uneven = JobBudget::for_points(7, 3);
        assert_eq!(uneven.pool_jobs, 3);
        assert_eq!(uneven.point_jobs, 2);
        assert!(uneven.total() <= 7);
        // No lane is ever zeroed.
        for total in 0..10 {
            for points in 0..10 {
                let b = JobBudget::for_points(total, points);
                assert!(
                    b.pool_jobs >= 1 && b.point_jobs >= 1,
                    "{total}/{points}: {b:?}"
                );
                assert!(b.total() <= total.max(1), "{total}/{points}: {b:?}");
            }
        }
        // An empty sweep gets the sequential budget, not an 8-wide idle lane.
        assert_eq!(JobBudget::for_points(8, 0), JobBudget::sequential());
    }

    #[test]
    fn adaptive_budget_widens_points_as_the_pool_drains() {
        // 8 threads over 4 points: lanes start at the static 2-wide split,
        // then widen claim by claim as fewer points remain pending, until the
        // last straggler gets the whole budget.
        let budget = AdaptiveBudget::new(8, 4);
        assert_eq!(budget.pool_jobs(), 4);
        assert_eq!(budget.nominal(), JobBudget::for_points(8, 4));
        assert_eq!(budget.claim(usize::MAX), 2); // 4 pending: 8/4
        assert_eq!(budget.claim(usize::MAX), 2); // 3 pending: 8/3
        assert_eq!(budget.claim(usize::MAX), 4); // 2 pending: 8/2
        assert_eq!(budget.claim(usize::MAX), 8); // last point: everything
        assert_eq!(budget.pending(), 0);
        // Claims past the pool never panic and never hand out zero.
        assert!(budget.claim(usize::MAX) >= 1);
    }

    #[test]
    fn reclaimed_jobs_widen_future_claims() {
        let budget = AdaptiveBudget::new(8, 4);
        assert_eq!(budget.claim(usize::MAX), 2); // 4 pending: 8/4
        budget.reclaim(4); // a cancelled point hands back its threads
        assert_eq!(budget.claim(usize::MAX), 4); // 3 pending: (8+4)/3
    }

    #[test]
    fn adaptive_budget_respects_the_workload_width_cap() {
        let budget = AdaptiveBudget::new(16, 1);
        // A narrow PolyBench-style point cannot use 16 workers.
        assert_eq!(budget.claim(2), 2);
        let budget = AdaptiveBudget::new(16, 1);
        assert_eq!(budget.claim(20), 16);
        // Zero caps are clamped, not propagated.
        let budget = AdaptiveBudget::new(4, 1);
        assert_eq!(budget.claim(0), 1);
    }
}
