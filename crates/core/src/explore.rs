//! Adaptive Pareto-frontier design-space exploration.
//!
//! HIDA's evaluation sweeps enumerate every grid point; the paper's own DSE
//! story (§fig1) — and any production deployment — needs *search*. This
//! module replaces exhaustive enumeration with a guided explorer:
//!
//! * A dominance [`Frontier`] over minimized objective vectors (interval
//!   cycles, DSP, BRAM by default) with incremental insert/prune.
//! * A [`KnobLattice`] inferred from the sweep's pipeline strings: every
//!   differing pass option (tile factor, parallel factor, pipeline variant)
//!   becomes an axis, and candidate proposal is generation-based neighborhood
//!   expansion — a breadth-first closure over lattice edges seeded at the
//!   corners and centroid.
//! * Surrogate pre-scoring: before compiling a candidate, the explorer
//!   lowers it (front end + pass pipeline only) and bounds its QoR with
//!   [`hida_estimator::surrogate::design_bound`] — exact per-node estimates
//!   served from the [`SharedEstimateCache`], optimistic bounds for unknown
//!   nodes. A candidate whose *bound* is dominated by a compiled frontier
//!   point is pruned without the full compile; the bound is componentwise
//!   `<=` the true estimate, so pruning never discards a Pareto-optimal
//!   design.
//! * Compile batches run through the [`SweepEngine`], optionally under an
//!   [`AdaptiveBudget`](crate::sweep::AdaptiveBudget) that re-splits
//!   `point_jobs` as each generation's pool drains.
//!
//! Exploration order is deterministic for a fixed seed regardless of the job
//! count: probes run sequentially against generation-start state, compile
//! batches are order-preserving, and the cache key set published by a
//! generation is a pure function of which points compiled — all
//! schedule-independent (CI diffs `--explore` output at jobs 1 vs 4).

use crate::sweep::{JobBudget, SweepEngine, SweepPoint, SweepPointOutcome};
use crate::Compiler;
use hida_estimator::report::DesignEstimate;
use hida_estimator::shared_cache::{SharedCacheStats, SharedEstimateCache};
use hida_estimator::surrogate::{design_bound, DesignBound};
use hida_ir_core::par::default_jobs;
use hida_ir_core::parse_pipeline;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// One minimized objective of the exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Maximize throughput, i.e. minimize the dataflow interval (cycles).
    Throughput,
    /// Minimize DSP slices.
    Dsp,
    /// Minimize BRAM-18K blocks.
    Bram,
}

impl Objective {
    /// Parses one objective name (`throughput`, `dsp`, `bram`).
    pub fn parse(text: &str) -> Result<Self, String> {
        match text.trim() {
            "throughput" => Ok(Objective::Throughput),
            "dsp" => Ok(Objective::Dsp),
            "bram" => Ok(Objective::Bram),
            other => Err(format!(
                "unknown objective '{other}' (expected throughput, dsp or bram)"
            )),
        }
    }

    /// Short name, as accepted by [`Objective::parse`].
    pub fn name(&self) -> &'static str {
        match self {
            Objective::Throughput => "throughput",
            Objective::Dsp => "dsp",
            Objective::Bram => "bram",
        }
    }

    /// The minimized value of this objective in an exact estimate.
    pub fn value(&self, estimate: &DesignEstimate) -> i64 {
        match self {
            Objective::Throughput => estimate.interval_cycles,
            Objective::Dsp => estimate.resources.dsp,
            Objective::Bram => estimate.resources.bram_18k,
        }
    }

    /// The minimized value of this objective in a surrogate bound
    /// (componentwise `<=` [`Objective::value`] of the true estimate).
    pub fn bound_value(&self, bound: &DesignBound) -> i64 {
        match self {
            Objective::Throughput => bound.interval_lb,
            Objective::Dsp => bound.resources.dsp,
            Objective::Bram => bound.resources.bram_18k,
        }
    }
}

/// True when `a` Pareto-dominates `b` under minimization: `a` is
/// componentwise `<=` and strictly better in at least one objective.
/// Vectors of unequal length never dominate each other.
pub fn dominates(a: &[i64], b: &[i64]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x <= y)
        && a.iter().zip(b).any(|(x, y)| x < y)
}

/// A compiled design point on (or once on) the Pareto frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// The design point's sweep label.
    pub label: String,
    /// The textual pipeline it compiled with.
    pub pipeline: String,
    /// Minimized objective vector (the frontier's ordering key).
    pub objectives: Vec<i64>,
    /// Throughput in MHz-samples (reporting only).
    pub throughput: f64,
    /// DSP slices (reporting only).
    pub dsp: i64,
    /// BRAM-18K blocks (reporting only).
    pub bram_18k: i64,
    /// The exploration generation that compiled this point.
    pub generation: usize,
}

impl FrontierPoint {
    /// A bare frontier point from a label and an objective vector (tests and
    /// property checks; the reporting fields stay zero).
    pub fn from_vector(label: impl Into<String>, objectives: Vec<i64>) -> Self {
        FrontierPoint {
            label: label.into(),
            pipeline: String::new(),
            objectives,
            throughput: 0.0,
            dsp: 0,
            bram_18k: 0,
            generation: 0,
        }
    }
}

/// An incrementally maintained Pareto frontier under minimization.
///
/// Ties are kept: two points with identical objective vectors are mutually
/// non-dominated and both stay on the frontier. Points are stored sorted by
/// (objective vector, label), so the frontier's rendering is independent of
/// insertion order — the permutation-invariance property
/// `tests/frontier_props.rs` checks.
#[derive(Debug, Clone, Default)]
pub struct Frontier {
    points: Vec<FrontierPoint>,
}

impl Frontier {
    /// An empty frontier.
    pub fn new() -> Self {
        Frontier::default()
    }

    /// The current non-dominated set, sorted by (objective vector, label).
    pub fn points(&self) -> &[FrontierPoint] {
        &self.points
    }

    /// Number of points on the frontier.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no point has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The sorted objective vectors of the frontier (coverage comparisons).
    pub fn vectors(&self) -> Vec<Vec<i64>> {
        self.points.iter().map(|p| p.objectives.clone()).collect()
    }

    /// True when some frontier point strictly dominates `vector`. With a
    /// surrogate bound as `vector`, a `true` answer is a sound prune: the
    /// bound is componentwise `<=` the candidate's true vector, so the
    /// dominating point dominates the true vector too.
    pub fn would_prune(&self, vector: &[i64]) -> bool {
        self.points.iter().any(|p| dominates(&p.objectives, vector))
    }

    /// Inserts a compiled point, pruning everything it dominates. Returns
    /// `false` (and leaves the frontier unchanged) when an existing point
    /// dominates the newcomer.
    pub fn insert(&mut self, point: FrontierPoint) -> bool {
        if self.would_prune(&point.objectives) {
            return false;
        }
        self.points
            .retain(|p| !dominates(&point.objectives, &p.objectives));
        self.points.push(point);
        self.points
            .sort_by(|a, b| a.objectives.cmp(&b.objectives).then(a.label.cmp(&b.label)));
        true
    }
}

/// Exploration knobs, parsed from the sweep file's `explore{...}` line.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreConfig {
    /// Maximum number of full compilations (`None` = unlimited: explore
    /// until the lattice closure is exhausted).
    pub budget: Option<usize>,
    /// Seed for the extra random seed-candidate picks.
    pub seed: u64,
    /// Minimized objectives, in vector order.
    pub objectives: Vec<Objective>,
    /// Extra seeded-random seed candidates beyond corners + centroid.
    pub extras: usize,
    /// Hard cap on expansion generations (a lattice-diameter backstop).
    pub max_generations: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            budget: None,
            seed: 0,
            objectives: vec![Objective::Throughput, Objective::Dsp, Objective::Bram],
            extras: 0,
            max_generations: 64,
        }
    }
}

impl ExploreConfig {
    /// Parses an `explore` line: `explore` alone for the defaults, or
    /// `explore{budget=24,seed=7,objectives=throughput+dsp+bram,extras=1,max-generations=16}`
    /// (every knob optional; objectives are `+`-separated).
    pub fn parse(text: &str) -> Result<Self, String> {
        let text = text.trim();
        let rest = text
            .strip_prefix("explore")
            .ok_or_else(|| format!("explore config must start with 'explore': '{text}'"))?
            .trim();
        let mut config = ExploreConfig::default();
        if rest.is_empty() {
            return Ok(config);
        }
        let body = rest
            .strip_prefix('{')
            .and_then(|r| r.strip_suffix('}'))
            .ok_or_else(|| format!("malformed explore options (expected '{{...}}'): '{text}'"))?;
        for entry in body.split(',').filter(|e| !e.trim().is_empty()) {
            let (key, value) = entry.split_once('=').ok_or_else(|| {
                format!("malformed explore option (expected key=value): '{entry}'")
            })?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "budget" => {
                    config.budget = Some(
                        value
                            .parse::<usize>()
                            .map_err(|_| format!("invalid explore budget '{value}'"))?,
                    )
                }
                "seed" => {
                    config.seed = value
                        .parse::<u64>()
                        .map_err(|_| format!("invalid explore seed '{value}'"))?
                }
                "extras" => {
                    config.extras = value
                        .parse::<usize>()
                        .map_err(|_| format!("invalid explore extras '{value}'"))?
                }
                "max-generations" => {
                    config.max_generations = value
                        .parse::<usize>()
                        .map_err(|_| format!("invalid explore max-generations '{value}'"))?
                }
                "objectives" => {
                    let objectives = value
                        .split('+')
                        .map(Objective::parse)
                        .collect::<Result<Vec<_>, _>>()?;
                    if objectives.is_empty() {
                        return Err("explore objectives must not be empty".to_string());
                    }
                    config.objectives = objectives;
                }
                other => return Err(format!("unknown explore option '{other}'")),
            }
        }
        Ok(config)
    }
}

/// One knob axis of the sweep's design space: a pass option (or the whole
/// pipeline variant) with its sorted distinct values.
#[derive(Debug, Clone)]
pub struct KnobAxis {
    /// Axis identity, e.g. `"4:parallelize:max-factor"`.
    pub name: String,
    /// Distinct values, numerically sorted when all parse as integers.
    pub values: Vec<String>,
}

/// The knob lattice spanned by a sweep's pipeline strings: each candidate is
/// a coordinate vector over the [`KnobAxis`] set, and lattice edges connect
/// candidates that differ in exactly one axis with no candidate strictly
/// between them (so sparse grids stay connected).
#[derive(Debug, Clone)]
pub struct KnobLattice {
    axes: Vec<KnobAxis>,
    coords: Vec<Vec<usize>>,
}

/// True when every candidate value parses as an integer.
fn all_numeric(values: &BTreeSet<String>) -> bool {
    values.iter().all(|v| v.parse::<i64>().is_ok())
}

impl KnobLattice {
    /// Infers the lattice from the points' pipeline strings. Candidates
    /// sharing one pass skeleton (same pass sequence and option names) get
    /// one axis per option whose value differs anywhere in the sweep;
    /// structurally different pipelines fall back to a single categorical
    /// `variant` axis (every point a coordinate, chain-adjacent).
    pub fn build(points: &[SweepPoint]) -> Result<KnobLattice, String> {
        if points.is_empty() {
            return Err("cannot explore an empty sweep".to_string());
        }
        let parsed: Vec<Vec<hida_ir_core::PassInvocation>> = points
            .iter()
            .map(|p| {
                parse_pipeline(&p.pipeline_text()).map_err(|e| format!("point '{}': {e}", p.label))
            })
            .collect::<Result<_, _>>()?;

        let skeleton = |invs: &[hida_ir_core::PassInvocation]| -> Vec<String> {
            invs.iter()
                .map(|inv| {
                    let mut id = inv.name.clone();
                    for opt in &inv.options {
                        id.push(':');
                        id.push_str(&opt.name);
                    }
                    id
                })
                .collect()
        };
        let reference = skeleton(&parsed[0]);
        let uniform = parsed.iter().all(|invs| skeleton(invs) == reference);
        if !uniform {
            // Categorical fallback: one axis, points chained in declaration
            // order.
            let axis = KnobAxis {
                name: "variant".to_string(),
                values: (0..points.len()).map(|i| i.to_string()).collect(),
            };
            return Ok(KnobLattice {
                axes: vec![axis],
                coords: (0..points.len()).map(|i| vec![i]).collect(),
            });
        }

        // One axis per (invocation, option) whose value varies across points.
        let mut axes = Vec::new();
        let mut axis_keys: Vec<(usize, usize)> = Vec::new();
        for (inv_idx, inv) in parsed[0].iter().enumerate() {
            for (opt_idx, opt) in inv.options.iter().enumerate() {
                let values: BTreeSet<String> = parsed
                    .iter()
                    .map(|invs| invs[inv_idx].options[opt_idx].value.clone())
                    .collect();
                if values.len() < 2 {
                    continue;
                }
                let mut sorted: Vec<String> = values.iter().cloned().collect();
                if all_numeric(&values) {
                    sorted.sort_by_key(|v| v.parse::<i64>().unwrap());
                }
                axes.push(KnobAxis {
                    name: format!("{inv_idx}:{}:{}", inv.name, opt.name),
                    values: sorted,
                });
                axis_keys.push((inv_idx, opt_idx));
            }
        }
        if axes.is_empty() {
            // All pipelines identical: degenerate one-axis chain so every
            // point still gets probed.
            let axis = KnobAxis {
                name: "variant".to_string(),
                values: (0..points.len()).map(|i| i.to_string()).collect(),
            };
            return Ok(KnobLattice {
                axes: vec![axis],
                coords: (0..points.len()).map(|i| vec![i]).collect(),
            });
        }
        let coords = parsed
            .iter()
            .map(|invs| {
                axes.iter()
                    .zip(&axis_keys)
                    .map(|(axis, &(inv_idx, opt_idx))| {
                        let value = &invs[inv_idx].options[opt_idx].value;
                        axis.values
                            .iter()
                            .position(|v| v == value)
                            .expect("axis values were collected from exactly these candidates")
                    })
                    .collect()
            })
            .collect();
        Ok(KnobLattice { axes, coords })
    }

    /// The inferred axes.
    pub fn axes(&self) -> &[KnobAxis] {
        &self.axes
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// True when the lattice holds no candidates (never after a successful
    /// [`KnobLattice::build`]).
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Lattice neighbors of candidate `i`: along each axis, the nearest
    /// candidates above and below with identical coordinates elsewhere.
    pub fn neighbors(&self, i: usize) -> Vec<usize> {
        let mut result = BTreeSet::new();
        for axis in 0..self.axes.len() {
            // The "line" through i along this axis.
            let mut line: Vec<usize> = (0..self.coords.len())
                .filter(|&j| {
                    self.coords[j]
                        .iter()
                        .enumerate()
                        .all(|(k, &c)| k == axis || c == self.coords[i][k])
                })
                .collect();
            line.sort_by_key(|&j| self.coords[j][axis]);
            let pos = line
                .iter()
                .position(|&j| j == i)
                .expect("i is on its own line");
            if pos > 0 {
                result.insert(line[pos - 1]);
            }
            if pos + 1 < line.len() {
                result.insert(line[pos + 1]);
            }
        }
        result.remove(&i);
        result.into_iter().collect()
    }

    /// Seed candidates: every lattice corner (each coordinate extremal), the
    /// centroid (L1-nearest candidate to the per-axis midpoints), plus
    /// `extras` seeded-random picks. Sorted and deduplicated.
    pub fn seed_candidates(&self, seed: u64, extras: usize) -> Vec<usize> {
        let mut seeds: BTreeSet<usize> = BTreeSet::new();
        for (i, coord) in self.coords.iter().enumerate() {
            let corner = coord
                .iter()
                .zip(&self.axes)
                .all(|(&c, axis)| c == 0 || c + 1 == axis.values.len());
            if corner {
                seeds.insert(i);
            }
        }
        // Centroid: candidate closest (L1) to the middle of every axis.
        let mid: Vec<usize> = self.axes.iter().map(|a| (a.values.len() - 1) / 2).collect();
        let centroid = (0..self.coords.len()).min_by_key(|&i| {
            let dist: usize = self.coords[i]
                .iter()
                .zip(&mid)
                .map(|(&c, &m)| c.abs_diff(m))
                .sum();
            (dist, i)
        });
        if let Some(c) = centroid {
            seeds.insert(c);
        }
        let mut state = seed;
        let mut added = 0;
        let mut attempts = 0;
        while added < extras && attempts < 16 * (extras + 1) {
            let pick = (splitmix64(&mut state) % self.coords.len() as u64) as usize;
            if seeds.insert(pick) {
                added += 1;
            }
            attempts += 1;
        }
        if seeds.is_empty() {
            seeds.insert(0);
        }
        seeds.into_iter().collect()
    }
}

/// Deterministic 64-bit mixer (SplitMix64) for the seeded extra picks.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-generation exploration counters (the `--stats-json` payload that makes
/// pruning-effectiveness regressions machine-visible).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerationStats {
    /// Generation index (0 = seeds).
    pub index: usize,
    /// Candidates proposed (probed) this generation.
    pub proposed: usize,
    /// Candidates pruned by the surrogate bound before compiling.
    pub pruned: usize,
    /// Candidates fully compiled.
    pub compiled: usize,
    /// Compilations that failed.
    pub failed: usize,
    /// Frontier size after the generation's inserts.
    pub frontier_size: usize,
    /// Probe nodes served exactly from the shared cache.
    pub probe_hits: usize,
    /// Total nodes probed across the generation's surrogate bounds.
    pub probe_nodes: usize,
}

/// Everything an exploration run produced.
#[derive(Debug)]
pub struct ExploreOutcome {
    /// Compiled points, in exploration order (generation by generation,
    /// candidate order within each).
    pub points: Vec<SweepPointOutcome>,
    /// The final Pareto frontier.
    pub frontier: Frontier,
    /// Per-generation counters.
    pub generations: Vec<GenerationStats>,
    /// Seed-candidate labels (generation 0's wave).
    pub seeds: Vec<String>,
    /// Total candidates in the sweep's lattice.
    pub num_candidates: usize,
    /// Candidates probed (compiled or pruned).
    pub probed: usize,
    /// Candidates pruned by the surrogate.
    pub pruned: usize,
    /// The nominal job budget compile batches ran under.
    pub budget: JobBudget,
    /// Whether per-point worker counts were re-split adaptively.
    pub adaptive: bool,
    /// Wall-clock seconds for the whole exploration.
    pub wall_seconds: f64,
    /// Aggregate shared-cache traffic across all compile batches.
    pub shared_cache: Option<SharedCacheStats>,
}

impl ExploreOutcome {
    /// True when every compiled point succeeded.
    pub fn all_ok(&self) -> bool {
        self.points.iter().all(|p| p.result.is_ok())
    }

    /// Labels of failed compilations, in exploration order.
    pub fn failed_labels(&self) -> Vec<&str> {
        self.points
            .iter()
            .filter(|p| p.result.is_err())
            .map(|p| p.label.as_str())
            .collect()
    }

    /// Candidates that never compiled: pruned by the surrogate, cut by the
    /// budget, or unreachable in the lattice closure.
    pub fn compiles_saved(&self) -> usize {
        self.num_candidates.saturating_sub(self.points.len())
    }
}

/// The guided design-space explorer. See the module docs for the algorithm.
#[derive(Debug, Clone)]
pub struct Explorer {
    config: ExploreConfig,
    total_jobs: Option<usize>,
    verification: bool,
    adaptive: bool,
    retries: usize,
    deadline_ms: Option<u64>,
    fault_plan: Option<hida_ir_core::FaultPlan>,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer::new(ExploreConfig::default())
    }
}

impl Explorer {
    /// Creates an explorer with the given knobs, adaptive budgeting on.
    pub fn new(config: ExploreConfig) -> Self {
        Explorer {
            config,
            total_jobs: None,
            verification: true,
            adaptive: true,
            retries: 0,
            deadline_ms: None,
            fault_plan: None,
        }
    }

    /// Retry budget per compiled point (builder style); see
    /// [`SweepEngine::with_retries`] for the degradation ladder.
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// Per-point compile deadline in milliseconds (builder style); see
    /// [`SweepEngine::with_deadline_ms`].
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Arms a deterministic fault-injection plan for the compile batches
    /// (builder style); see [`SweepEngine::with_fault_plan`]. Probe lowerings
    /// install no fault context, so injections only fire in real compiles.
    pub fn with_fault_plan(mut self, plan: hida_ir_core::FaultPlan) -> Self {
        self.fault_plan = if plan.is_empty() { None } else { Some(plan) };
        self
    }

    /// Total worker-thread budget for compile batches (builder style).
    /// Defaults to the machine's available parallelism.
    pub fn with_total_jobs(mut self, total_jobs: usize) -> Self {
        self.total_jobs = Some(total_jobs.max(1));
        self
    }

    /// Enables or disables IR verification inside compilations (builder
    /// style). Probe lowerings never verify — they exist to be cheap.
    pub fn with_verification(mut self, enabled: bool) -> Self {
        self.verification = enabled;
        self
    }

    /// Enables or disables adaptive per-point budget re-splitting inside
    /// compile batches (builder style; on by default).
    pub fn with_adaptive_budget(mut self, enabled: bool) -> Self {
        self.adaptive = enabled;
        self
    }

    /// The explorer's configuration.
    pub fn config(&self) -> &ExploreConfig {
        &self.config
    }

    /// Explores the design space spanned by `points`.
    ///
    /// # Errors
    /// Fails when the candidate pipelines cannot be parsed into a lattice;
    /// per-point compile failures are recorded in the outcome instead.
    pub fn explore(&self, points: &[SweepPoint]) -> Result<ExploreOutcome, String> {
        let start = Instant::now();
        let lattice = KnobLattice::build(points)?;
        let cache = Arc::new(SharedEstimateCache::new());
        let total_jobs = self.total_jobs.unwrap_or_else(default_jobs);
        let mut engine = SweepEngine::new()
            .with_total_jobs(total_jobs)
            .with_cache(cache.clone())
            .with_verification(self.verification)
            .with_adaptive_budget(self.adaptive)
            .with_retries(self.retries);
        if let Some(deadline_ms) = self.deadline_ms {
            engine = engine.with_deadline_ms(deadline_ms);
        }
        if let Some(plan) = &self.fault_plan {
            engine = engine.with_fault_plan(plan.clone());
        }
        let budget_limit = self.config.budget.unwrap_or(usize::MAX);

        let seeds = lattice.seed_candidates(self.config.seed, self.config.extras);
        let seed_labels = seeds.iter().map(|&i| points[i].label.clone()).collect();
        let mut visited = vec![false; points.len()];
        let mut frontier = Frontier::new();
        let mut outcomes: Vec<SweepPointOutcome> = Vec::new();
        let mut generations: Vec<GenerationStats> = Vec::new();
        let mut pruned_total = 0;
        let mut nominal_budget = JobBudget::for_points(total_jobs, points.len());

        let mut wave = seeds;
        while !wave.is_empty()
            && generations.len() < self.config.max_generations
            && outcomes.len() < budget_limit
        {
            let generation = generations.len();
            // Probe phase: sequential and on this thread, so pruning
            // decisions depend only on generation-start state.
            let mut stats = GenerationStats {
                index: generation,
                proposed: wave.len(),
                pruned: 0,
                compiled: 0,
                failed: 0,
                frontier_size: frontier.len(),
                probe_hits: 0,
                probe_nodes: 0,
            };
            let mut to_compile: Vec<usize> = Vec::new();
            for &idx in &wave {
                visited[idx] = true;
                let point = &points[idx];
                let mut probe = Compiler::new(point.options.clone()).with_verification(false);
                if let Some(text) = &point.pipeline {
                    probe = probe.with_pipeline(text.clone());
                }
                // Probes are isolated like compiles: a panicking probe falls
                // through to the real compile batch, where the failure is
                // recorded as a structured point outcome.
                let lowered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    probe.lower(point.workload.clone())
                }))
                .unwrap_or_else(|payload| {
                    Err(hida_ir_core::fault::error_from_panic(
                        &format!("probe '{}'", point.label),
                        payload,
                    ))
                });
                match lowered {
                    Ok(design) => {
                        let bound = design_bound(
                            &design.ctx,
                            design.schedule,
                            &point.options.device,
                            Some(&cache),
                        );
                        stats.probe_hits += bound.probe_hits;
                        stats.probe_nodes += bound.nodes;
                        let vector: Vec<i64> = self
                            .config
                            .objectives
                            .iter()
                            .map(|o| o.bound_value(&bound))
                            .collect();
                        if frontier.would_prune(&vector) {
                            stats.pruned += 1;
                            pruned_total += 1;
                        } else {
                            to_compile.push(idx);
                        }
                    }
                    // A candidate that fails to lower goes to the real
                    // compile so the failure is recorded and reported.
                    Err(_) => to_compile.push(idx),
                }
            }

            // Compile phase: a batch through the sweep engine (barrier).
            let room = budget_limit.saturating_sub(outcomes.len());
            to_compile.truncate(room);
            if !to_compile.is_empty() {
                let batch: Vec<SweepPoint> =
                    to_compile.iter().map(|&i| points[i].clone()).collect();
                let batch_outcome = engine.run(&batch);
                nominal_budget = batch_outcome.budget;
                for outcome in batch_outcome.points {
                    match &outcome.result {
                        Ok(result) => {
                            stats.compiled += 1;
                            let objectives = self
                                .config
                                .objectives
                                .iter()
                                .map(|o| o.value(&result.estimate))
                                .collect();
                            frontier.insert(FrontierPoint {
                                label: outcome.label.clone(),
                                pipeline: outcome.pipeline.clone(),
                                objectives,
                                throughput: result.estimate.throughput(),
                                dsp: result.estimate.resources.dsp,
                                bram_18k: result.estimate.resources.bram_18k,
                                generation,
                            });
                        }
                        Err(_) => stats.failed += 1,
                    }
                    outcomes.push(outcome);
                }
            }
            stats.frontier_size = frontier.len();

            // Expansion: the next wave is the unvisited lattice neighborhood
            // of everything probed this generation — pruned points expand
            // too, so the closure reaches every connected candidate and
            // pruning alone provides the savings.
            let mut next: BTreeSet<usize> = BTreeSet::new();
            for &idx in &wave {
                for n in lattice.neighbors(idx) {
                    if !visited[n] {
                        next.insert(n);
                    }
                }
            }
            generations.push(stats);
            wave = next.into_iter().collect();
        }

        Ok(ExploreOutcome {
            points: outcomes,
            frontier,
            generations,
            seeds: seed_labels,
            num_candidates: points.len(),
            probed: visited.iter().filter(|&&v| v).count(),
            pruned: pruned_total,
            budget: nominal_budget,
            adaptive: self.adaptive,
            wall_seconds: start.elapsed().as_secs_f64(),
            shared_cache: Some(cache.stats()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HidaOptions, PolybenchKernel, Workload};

    fn grid_points() -> Vec<SweepPoint> {
        let mut points = Vec::new();
        for pf in [1, 4, 16] {
            for tile in [2, 8] {
                let pipeline = format!(
                    "construct,lower,tiling{{factor={tile}}},parallelize{{max-factor={pf},device=zu3eg}}"
                );
                points.push(
                    SweepPoint::new(
                        format!("pf{pf}-tile{tile}"),
                        Workload::PolybenchSized(PolybenchKernel::TwoMm, 32),
                        HidaOptions::polybench(),
                    )
                    .with_pipeline(pipeline),
                );
            }
        }
        points
    }

    #[test]
    fn dominance_is_strict_and_componentwise() {
        assert!(dominates(&[1, 2, 3], &[1, 2, 4]));
        assert!(dominates(&[0, 0, 0], &[1, 1, 1]));
        assert!(!dominates(&[1, 2, 3], &[1, 2, 3]));
        assert!(!dominates(&[1, 5], &[2, 4]));
        assert!(!dominates(&[1, 2], &[1, 2, 3]));
    }

    #[test]
    fn frontier_keeps_ties_and_prunes_dominated() {
        let mut f = Frontier::new();
        assert!(f.insert(FrontierPoint::from_vector("a", vec![4, 4])));
        assert!(f.insert(FrontierPoint::from_vector("b", vec![2, 6])));
        // Dominated by "a": rejected.
        assert!(!f.insert(FrontierPoint::from_vector("c", vec![5, 5])));
        // Tie with "a": kept.
        assert!(f.insert(FrontierPoint::from_vector("d", vec![4, 4])));
        assert_eq!(f.len(), 3);
        // Dominates "a" and "d": both evicted.
        assert!(f.insert(FrontierPoint::from_vector("e", vec![3, 3])));
        assert_eq!(f.len(), 2);
        assert!(f.would_prune(&[3, 4]));
        assert!(!f.would_prune(&[3, 3]));
        assert!(!f.would_prune(&[1, 9]));
    }

    #[test]
    fn explore_config_parses_the_knob_grammar() {
        assert_eq!(
            ExploreConfig::parse("explore").unwrap(),
            ExploreConfig::default()
        );
        let full = ExploreConfig::parse(
            "explore{budget=24,seed=7,objectives=throughput+dsp,extras=2,max-generations=9}",
        )
        .unwrap();
        assert_eq!(full.budget, Some(24));
        assert_eq!(full.seed, 7);
        assert_eq!(full.objectives, vec![Objective::Throughput, Objective::Dsp]);
        assert_eq!(full.extras, 2);
        assert_eq!(full.max_generations, 9);
        assert!(ExploreConfig::parse("explore{bogus=1}").is_err());
        assert!(ExploreConfig::parse("explore{objectives=speed}").is_err());
        assert!(ExploreConfig::parse("sweep{budget=1}").is_err());
    }

    #[test]
    fn lattice_infers_axes_and_neighbors_from_pipelines() {
        let points = grid_points();
        let lattice = KnobLattice::build(&points).unwrap();
        assert_eq!(lattice.len(), 6);
        assert_eq!(lattice.axes().len(), 2);
        // Candidate order: (pf, tile) = (1,2) (1,8) (4,2) (4,8) (16,2) (16,8).
        // (1,2) touches (1,8) and (4,2).
        assert_eq!(lattice.neighbors(0), vec![1, 2]);
        // (4,8) touches (4,2), (1,8) and (16,8).
        assert_eq!(lattice.neighbors(3), vec![1, 2, 5]);
        // Corners: all four pf/tile extremes; centroid is (4,*) middle row.
        let seeds = lattice.seed_candidates(0, 0);
        assert!(
            seeds.contains(&0) && seeds.contains(&1) && seeds.contains(&4) && seeds.contains(&5)
        );
        // Extra picks are deterministic per seed and grow the set.
        let with_extras = lattice.seed_candidates(7, 1);
        assert_eq!(with_extras, lattice.seed_candidates(7, 1));
        assert!(with_extras.len() >= seeds.len());
    }

    #[test]
    fn lattice_falls_back_to_a_variant_chain_for_mixed_skeletons() {
        let mk = |label: &str, pipeline: &str| {
            SweepPoint::new(
                label,
                Workload::PolybenchSized(PolybenchKernel::TwoMm, 32),
                HidaOptions::polybench(),
            )
            .with_pipeline(pipeline)
        };
        let points = vec![
            mk("a", "construct,lower"),
            mk("b", "construct,fusion,lower"),
            mk("c", "construct,fusion,lower,balance"),
        ];
        let lattice = KnobLattice::build(&points).unwrap();
        assert_eq!(lattice.axes().len(), 1);
        assert_eq!(lattice.axes()[0].name, "variant");
        assert_eq!(lattice.neighbors(1), vec![0, 2]);
    }

    #[test]
    fn explorer_covers_the_exhaustive_frontier_deterministically() {
        let points = grid_points();
        // Exhaustive reference frontier.
        let exhaustive = SweepEngine::new()
            .with_budget(JobBudget::sequential())
            .run(&points);
        assert!(exhaustive.all_ok());
        let mut reference = Frontier::new();
        for p in &exhaustive.points {
            let est = &p.result.as_ref().unwrap().estimate;
            reference.insert(FrontierPoint::from_vector(
                p.label.clone(),
                vec![
                    est.interval_cycles,
                    est.resources.dsp,
                    est.resources.bram_18k,
                ],
            ));
        }

        let outcome = Explorer::new(ExploreConfig::default())
            .with_total_jobs(1)
            .explore(&points)
            .unwrap();
        assert!(outcome.all_ok());
        assert_eq!(outcome.frontier.vectors(), reference.vectors());
        assert_eq!(outcome.probed, points.len());

        // Same seed, different job count: identical frontier, identical
        // generation counters.
        let parallel = Explorer::new(ExploreConfig::default())
            .with_total_jobs(4)
            .explore(&points)
            .unwrap();
        assert_eq!(parallel.frontier.vectors(), outcome.frontier.vectors());
        assert_eq!(parallel.generations, outcome.generations);
        let labels =
            |o: &ExploreOutcome| o.points.iter().map(|p| p.label.clone()).collect::<Vec<_>>();
        assert_eq!(labels(&parallel), labels(&outcome));
    }

    #[test]
    fn explorer_honors_the_compile_budget() {
        let points = grid_points();
        let outcome = Explorer::new(ExploreConfig {
            budget: Some(3),
            ..ExploreConfig::default()
        })
        .with_total_jobs(1)
        .explore(&points)
        .unwrap();
        assert!(outcome.points.len() <= 3);
        assert!(outcome.compiles_saved() >= points.len() - 3);
    }
}
