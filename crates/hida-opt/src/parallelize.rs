//! Intensity- and connection-aware dataflow parallelization (paper §6.5).
//!
//! The parallelizer runs the four steps of the paper:
//!
//! 1. **Intensity and connection analysis** — for every pair of nodes sharing a
//!    buffer, derive the permutation and scaling maps relating their loop nests
//!    (Table 4), and record every node's computational intensity.
//! 2. **Node sorting** — nodes are parallelized in descending order of connection
//!    count, with intensity as tie-breaker.
//! 3. **Parallel factor generation** — each node's parallel budget is proportional to
//!    its intensity (intensity-aware) or equal to the maximum (otherwise).
//! 4. **Node parallelization** (Algorithm 4) — a constrained design-space exploration
//!    picks per-dimension unroll factors that respect the alignment constraints from
//!    already-parallelized neighbours and the node's parallel budget.
//!
//! Finally, array partitions are assigned to every buffer from the unroll factors and
//! access strides of the nodes touching it (Table 6).

use crate::ParallelMode;
use hida_dataflow_ir::graph::{DataflowEdge, DataflowGraph};
use hida_dataflow_ir::structural::{BufferOp, NodeOp, ScheduleOp};
use hida_dialects::analysis::ComputeProfile;
use hida_dialects::hls::{ArrayPartition, PartitionFashion};
use hida_dialects::transforms;
use hida_estimator::device::FpgaDevice;
use hida_ir_core::{
    Analysis, AnalysisManager, AnalysisSnapshot, Context, IrError, IrResult, NodeScope, OpId,
    ValueId,
};
use std::collections::HashMap;

/// A connection between two nodes through a shared buffer, with the loop alignment
/// maps of §6.5 step (1).
#[derive(Debug, Clone, PartialEq)]
pub struct Connection {
    /// Producing node.
    pub source: NodeOp,
    /// Consuming node.
    pub target: NodeOp,
    /// The shared buffer.
    pub buffer: ValueId,
    /// For each target loop: the aligned source loop, if any (paper's S-to-T map).
    pub s_to_t_perm: Vec<Option<usize>>,
    /// For each source loop: the aligned target loop, if any (paper's T-to-S map).
    pub t_to_s_perm: Vec<Option<usize>>,
    /// For each source loop: `stride_source / stride_target` of the aligned dimension.
    pub s_to_t_scale: Vec<Option<f64>>,
    /// For each target loop: `stride_target / stride_source` of the aligned dimension.
    pub t_to_s_scale: Vec<Option<f64>>,
}

/// Per-node analysis record.
#[derive(Debug, Clone)]
pub struct NodeInfo {
    /// The node.
    pub node: NodeOp,
    /// Its compute profile.
    pub profile: ComputeProfile,
    /// Number of distinct nodes it shares buffers with.
    pub connections: usize,
}

/// Derives the loop alignment maps of one dataflow edge from the two endpoint
/// profiles; shared by the cache-backed [`analyze_connections`] and the
/// snapshot-backed worker path so both compute bit-identical constraints.
fn connection_for_edge(
    ctx: &Context,
    edge: &DataflowEdge,
    source_profile: &ComputeProfile,
    target_profile: &ComputeProfile,
) -> Option<Connection> {
    // The profiles record accesses against the node's block arguments.
    let source_access = edge
        .producer
        .arg_for(ctx, edge.buffer)
        .and_then(|arg| source_profile.access_of(arg))
        .cloned()?;
    let target_access = edge
        .consumer
        .arg_for(ctx, edge.buffer)
        .and_then(|arg| target_profile.access_of(arg))
        .cloned()?;
    let num_source_loops = source_profile.loop_dims.len();
    let num_target_loops = target_profile.loop_dims.len();
    let mut s_to_t_perm = vec![None; num_target_loops];
    let mut t_to_s_perm = vec![None; num_source_loops];
    let mut s_to_t_scale = vec![None; num_source_loops];
    let mut t_to_s_scale = vec![None; num_target_loops];
    for (s_dim, t_dim) in source_access
        .pattern
        .dims
        .iter()
        .zip(target_access.pattern.dims.iter())
    {
        if let (Some((s_loop, s_stride)), Some((t_loop, t_stride))) = (s_dim, t_dim) {
            if *s_loop < num_source_loops && *t_loop < num_target_loops {
                s_to_t_perm[*t_loop] = Some(*s_loop);
                t_to_s_perm[*s_loop] = Some(*t_loop);
                s_to_t_scale[*s_loop] = Some(*s_stride as f64 / *t_stride as f64);
                t_to_s_scale[*t_loop] = Some(*t_stride as f64 / *s_stride as f64);
            }
        }
    }
    Some(Connection {
        source: edge.producer,
        target: edge.consumer,
        buffer: edge.buffer,
        s_to_t_perm,
        t_to_s_perm,
        s_to_t_scale,
        t_to_s_scale,
    })
}

/// Analyzes every producer→consumer connection of a schedule. The dataflow
/// graph and every node profile are fetched through the analysis cache.
pub fn analyze_connections(
    ctx: &Context,
    analyses: &mut AnalysisManager,
    schedule: ScheduleOp,
) -> Vec<Connection> {
    let graph = analyses.get::<DataflowGraph>(ctx, schedule.id());
    let mut profiles: HashMap<NodeOp, ComputeProfile> = HashMap::new();
    for node in &graph.nodes {
        profiles.insert(*node, analyses.get::<ComputeProfile>(ctx, node.id()));
    }
    graph
        .edges
        .iter()
        .filter_map(|edge| {
            connection_for_edge(
                ctx,
                edge,
                &profiles[&edge.producer],
                &profiles[&edge.consumer],
            )
        })
        .collect()
}

/// The parallelization processing order (step 2), as a comparator over
/// `(connection count, intensity)` keys: connections descending, intensity as
/// descending tie-breaker. The single source of truth shared by the
/// cache-backed [`analyze_nodes`] sort and the per-worker planning path —
/// both apply it as a *stable* sort over the deterministic `schedule.nodes`
/// order, so they always agree.
fn processing_order(a: (usize, i64), b: (usize, i64)) -> std::cmp::Ordering {
    b.0.cmp(&a.0).then(b.1.cmp(&a.1))
}

fn sort_infos(infos: &mut [NodeInfo]) {
    infos.sort_by(|a, b| {
        processing_order(
            (a.connections, a.profile.intensity),
            (b.connections, b.profile.intensity),
        )
    });
}

/// Builds the per-node analysis records and returns them sorted in parallelization
/// order (step 2: connection count descending, intensity as tie-breaker).
pub fn analyze_nodes(
    ctx: &Context,
    analyses: &mut AnalysisManager,
    schedule: ScheduleOp,
) -> Vec<NodeInfo> {
    let graph = analyses.get::<DataflowGraph>(ctx, schedule.id());
    let mut infos: Vec<NodeInfo> = schedule
        .nodes(ctx)
        .into_iter()
        .map(|node| NodeInfo {
            node,
            profile: analyses.get::<ComputeProfile>(ctx, node.id()),
            connections: graph.connection_count(node),
        })
        .collect();
    sort_infos(&mut infos);
    infos
}

/// Snapshot-backed profile lookup for worker threads: borrows the frozen
/// entry when present, computes over the shared read-only context only when
/// the snapshot is cold. Returning `Cow` keeps the hot path clone-free — on
/// an *n*-node schedule every worker consults up to *n* profiles, and cloning
/// them per work item would make the parallel pass quadratic in schedule
/// size.
fn profile_from_snapshot<'s>(
    ctx: &Context,
    snapshot: &'s AnalysisSnapshot,
    node: NodeOp,
) -> std::borrow::Cow<'s, ComputeProfile> {
    match snapshot.get::<ComputeProfile>(node.id()) {
        Some(profile) => std::borrow::Cow::Borrowed(profile),
        None => std::borrow::Cow::Owned(ComputeProfile::compute(ctx, node.id())),
    }
}

/// The intensity measure used for parallel-factor budgeting: the count of the
/// dominant operation per node (MACs for compute nodes, loop iterations for pure
/// data-movement nodes), matching the per-node "Intensity" column of Table 5.
pub fn budget_intensity(profile: &ComputeProfile) -> i64 {
    profile.macs.max(profile.total_iterations()).max(1)
}

/// The budget formula of step 3 for one node: scale the maximum parallel
/// factor by the node's share of the peak intensity (rounded to a power of
/// two), or grant the maximum uniformly without intensity awareness. The
/// single source of truth shared by [`node_parallel_factors`] and the
/// per-worker planning path.
fn parallel_factor_for(
    budget_intensity: i64,
    max_intensity: i64,
    max_parallel_factor: i64,
    intensity_aware: bool,
) -> i64 {
    if intensity_aware {
        let scaled =
            max_parallel_factor as f64 * budget_intensity as f64 / max_intensity.max(1) as f64;
        round_pow2(scaled).clamp(1, max_parallel_factor)
    } else {
        max_parallel_factor
    }
}

/// Step 3: parallel factor per node, proportional to intensity when intensity-aware.
pub fn node_parallel_factors(
    infos: &[NodeInfo],
    max_parallel_factor: i64,
    intensity_aware: bool,
) -> HashMap<NodeOp, i64> {
    let max_intensity = infos
        .iter()
        .map(|i| budget_intensity(&i.profile))
        .max()
        .unwrap_or(1);
    infos
        .iter()
        .map(|info| {
            let factor = parallel_factor_for(
                budget_intensity(&info.profile),
                max_intensity,
                max_parallel_factor,
                intensity_aware,
            );
            (info.node, factor)
        })
        .collect()
}

fn round_pow2(x: f64) -> i64 {
    if x <= 1.0 {
        return 1;
    }
    let lower = 1_i64 << (x.log2().floor() as u32);
    let upper = lower * 2;
    if (x - lower as f64) < (upper as f64 - x) {
        lower
    } else {
        upper
    }
}

fn next_pow2(x: i64) -> i64 {
    let mut p = 1;
    while p < x {
        p *= 2;
    }
    p
}

/// Step 4 (Algorithm 4): selects unroll factors for one node.
///
/// `constraints_list` holds one constraint vector per already-parallelized connected
/// node: for each loop dimension, the factor the neighbour's parallelization implies
/// (or `None` when the dimension is unconstrained).
///
/// The design-space exploration is a depth-first search over per-dimension
/// candidates in ascending order that keeps the first leaf with the best
/// score (latency, then constraint mismatches, largest factor and inner-loop
/// preference). A branch is skipped only when its latency lower bound is
/// strictly above the best latency found so far, so the result equals the
/// exhaustive enumeration's.
pub fn select_unroll_factors(
    profile: &ComputeProfile,
    parallel_factor: i64,
    constraints_list: &[Vec<Option<i64>>],
) -> Vec<i64> {
    let rank = profile.loop_dims.len();
    if rank == 0 {
        return Vec::new();
    }
    // Validity is a per-dimension test (plus the product cap the search
    // enforces), so candidates that break a constraint are dropped up front
    // and every leaf the search reaches is valid.
    let candidates: Vec<Vec<i64>> = unroll_candidates(profile, parallel_factor)
        .into_iter()
        .enumerate()
        .map(|(dim, options)| {
            options
                .into_iter()
                .filter(|&factor| {
                    constraints_list.iter().all(|constraints| {
                        constraints
                            .get(dim)
                            .copied()
                            .flatten()
                            .is_none_or(|c| divides_either(factor, c))
                    })
                })
                .collect()
        })
        .collect();
    // Each dimension's fewest iterations, at its largest candidate.
    let min_trips: Vec<f64> = profile
        .loop_dims
        .iter()
        .zip(&candidates)
        .map(|(dim, options)| trips_at(dim.trip, options.last().copied().unwrap_or(1)))
        .collect();
    let mut search = UnrollSearch {
        profile,
        constraints_list,
        candidates: &candidates,
        min_trips: &min_trips,
        cap: parallel_factor,
        current: vec![1; rank],
        best: None,
    };
    search.visit(0, 1, 1.0);
    search.best.map(|(_, f)| f).unwrap_or_else(|| vec![1; rank])
}

/// Candidate factors per dimension: powers of two up to min(trip, budget);
/// reduction dimensions are not unrolled.
fn unroll_candidates(profile: &ComputeProfile, parallel_factor: i64) -> Vec<Vec<i64>> {
    profile
        .loop_dims
        .iter()
        .map(|dim| {
            if dim.reduction {
                return vec![1];
            }
            let cap = next_pow2(dim.trip.max(1)).min(next_pow2(parallel_factor));
            std::iter::successors(Some(1_i64), |f| Some(f * 2))
                .take_while(|&f| f <= cap)
                .collect()
        })
        .collect()
}

/// Iterations left in a loop of `trip` iterations unrolled by `factor`.
fn trips_at(trip: i64, factor: i64) -> f64 {
    ((trip.max(1) + factor - 1) / factor) as f64
}

/// Mutual divisibility of a factor and its (clamped) constraint, Algorithm 4
/// lines 13-18.
fn divides_either(factor: i64, constraint: i64) -> bool {
    let c = constraint.max(1);
    c % factor == 0 || factor % c == 0
}

/// The bounded depth-first search behind [`select_unroll_factors`].
struct UnrollSearch<'a> {
    profile: &'a ComputeProfile,
    constraints_list: &'a [Vec<Option<i64>>],
    candidates: &'a [Vec<i64>],
    min_trips: &'a [f64],
    cap: i64,
    current: Vec<i64>,
    best: Option<(Score, Vec<i64>)>,
}

impl UnrollSearch<'_> {
    /// Visits every completion of `current[..dim]`, whose factor product is
    /// `product` and whose iteration latency so far is `latency`.
    fn visit(&mut self, dim: usize, product: i64, latency: f64) {
        if let Some((best, _)) = &self.best {
            // Folded left to right like the score's own product: each step
            // multiplies by a factor no larger than any leaf's, and rounding is
            // monotone, so the bound never exceeds the latency of a leaf below.
            let bound = self.min_trips[dim..]
                .iter()
                .fold(latency, |acc, &t| acc * t);
            if bound > best.latency {
                return;
            }
        }
        if dim == self.candidates.len() {
            let score = score_factors(self.profile, &self.current, self.constraints_list);
            if self.best.as_ref().is_none_or(|(b, _)| score < *b) {
                self.best = Some((score, self.current.clone()));
            }
            return;
        }
        let trip = self.profile.loop_dims[dim].trip;
        for &factor in &self.candidates[dim] {
            if product * factor > self.cap {
                break;
            }
            self.current[dim] = factor;
            self.visit(dim + 1, product * factor, latency * trips_at(trip, factor));
        }
    }
}

/// Ordering key: lower is better.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
struct Score {
    /// Estimated iteration latency (total iterations / parallelism).
    latency: f64,
    /// Number of dimensions whose factor differs from an imposed constraint.
    mismatches: f64,
    /// Largest single-dimension factor (prefer balanced unrolling).
    max_factor: f64,
    /// Negative weight on later dimensions (prefer unrolling inner dimensions).
    inner_preference: f64,
}

fn score_factors(
    profile: &ComputeProfile,
    factors: &[i64],
    constraints_list: &[Vec<Option<i64>>],
) -> Score {
    let total_iterations: f64 = profile
        .loop_dims
        .iter()
        .zip(factors)
        .map(|(d, &f)| trips_at(d.trip, f))
        .product();
    let mut mismatches = 0.0;
    for constraints in constraints_list {
        for (&factor, constraint) in factors.iter().zip(constraints) {
            if let Some(c) = constraint {
                if *c != factor {
                    mismatches += 1.0;
                }
            }
        }
    }
    let max_factor = factors.iter().copied().max().unwrap_or(1) as f64;
    // Prefer placing larger factors on later (inner) dimensions.
    let inner_preference: f64 = factors
        .iter()
        .enumerate()
        .map(|(i, &f)| -((i + 1) as f64) * (f as f64).log2())
        .sum();
    Score {
        latency: total_iterations,
        mismatches,
        max_factor,
        inner_preference,
    }
}

/// Runs the full parallelization (steps 1-4 plus array partitioning) over a schedule.
///
/// The target device does not enter the computation yet: budgets come from
/// `max_parallel_factor` and node intensity alone.
///
/// # Errors
/// Propagates unroll application failures.
pub fn parallelize_schedule(
    ctx: &mut Context,
    analyses: &mut AnalysisManager,
    schedule: ScheduleOp,
    max_parallel_factor: i64,
    mode: ParallelMode,
    _device: &FpgaDevice,
) -> IrResult<()> {
    let connections = analyze_connections(ctx, analyses, schedule);
    let infos = analyze_nodes(ctx, analyses, schedule);
    let budgets = node_parallel_factors(&infos, max_parallel_factor, mode.intensity_aware());

    let mut chosen: HashMap<NodeOp, Vec<i64>> = HashMap::new();
    for info in &infos {
        let constraints_list = if mode.connection_aware() {
            constraints_for(
                info.node,
                info.profile.loop_dims.len(),
                &connections,
                &chosen,
            )
        } else {
            Vec::new()
        };
        let factors = if mode == ParallelMode::Naive {
            naive_factors(&info.profile, max_parallel_factor)
        } else {
            select_unroll_factors(&info.profile, budgets[&info.node], &constraints_list)
        };
        transforms::apply_unroll_factors(ctx, info.node.id(), &factors)?;
        ctx.op_mut(info.node.id())
            .set_attr("parallel_factor", budgets[&info.node]);
        ctx.op_mut(info.node.id())
            .set_attr("intensity", info.profile.intensity);
        ctx.op_mut(info.node.id())
            .set_attr("connections", info.connections as i64);
        chosen.insert(info.node, factors);
    }

    assign_array_partitions(ctx, analyses, schedule, &chosen);
    Ok(())
}

/// Computes the dependency waves for parallel execution of the parallelizer:
/// wave 0 holds the nodes that depend on nothing, wave *k* the nodes whose
/// constraints come only from connected nodes in waves < *k*. Within the
/// sequential Algorithm 4 order, a node's constraints come exactly from the
/// *connected* nodes processed before it, so two nodes in the same wave are
/// never connected and their per-node DSEs are independent. Warms the dataflow
/// graph and node profiles in `analyses` so the pass snapshot is complete.
///
/// Without connection awareness (IA-only / Naive) every node is independent
/// and a single wave is returned.
pub fn parallel_waves(
    ctx: &Context,
    analyses: &mut AnalysisManager,
    schedule: ScheduleOp,
    mode: ParallelMode,
) -> Vec<Vec<OpId>> {
    let infos = analyze_nodes(ctx, analyses, schedule);
    if !mode.connection_aware() {
        return vec![infos.into_iter().map(|i| i.node.id()).collect()];
    }
    let connections = analyze_connections(ctx, analyses, schedule);
    let order: HashMap<NodeOp, usize> = infos
        .iter()
        .enumerate()
        .map(|(i, info)| (info.node, i))
        .collect();
    let mut wave_of = vec![0_usize; infos.len()];
    for (i, info) in infos.iter().enumerate() {
        for connection in &connections {
            let peer = if connection.source == info.node {
                connection.target
            } else if connection.target == info.node {
                connection.source
            } else {
                continue;
            };
            if let Some(&j) = order.get(&peer) {
                if j < i {
                    wave_of[i] = wave_of[i].max(wave_of[j] + 1);
                }
            }
        }
    }
    let num_waves = wave_of.iter().copied().max().unwrap_or(0) + 1;
    let mut waves = vec![Vec::new(); num_waves];
    for (i, info) in infos.iter().enumerate() {
        waves[wave_of[i]].push(info.node.id());
    }
    waves
}

/// The worker-thread half of parallelization: reruns steps 1-4 *for one node*
/// over the frozen snapshot. Budgets and the processing order are recomputed
/// from the same frozen inputs every sequential run sees, constraints are read
/// from the unroll factors earlier waves already merged into the shared
/// context, and the chosen factors are recorded as scoped edits.
///
/// # Errors
/// Fails when the scope root is not a node inside a schedule, and propagates
/// scope violations.
pub fn plan_node_parallelization(
    scope: &mut NodeScope<'_>,
    snapshot: &AnalysisSnapshot,
    max_parallel_factor: i64,
    mode: ParallelMode,
) -> IrResult<()> {
    let ctx = scope.ctx();
    let node = NodeOp::try_from_op(ctx, scope.root())
        .ok_or_else(|| IrError::verification(format!("op {} is not a hida.node", scope.root())))?;
    let schedule = ctx
        .parent_op(node.id())
        .and_then(|op| ScheduleOp::try_from_op(ctx, op))
        .ok_or_else(|| {
            IrError::verification(format!("node {} is not inside a hida.schedule", node.id()))
        })?;
    let graph = match snapshot.get::<DataflowGraph>(schedule.id()) {
        Some(graph) => std::borrow::Cow::Borrowed(graph),
        None => std::borrow::Cow::Owned(DataflowGraph::compute(ctx, schedule.id())),
    };

    // Processing order and budgets from scalar keys only — profiles stay
    // borrowed from the snapshot, so this prologue is cheap even though every
    // work item runs it over the whole schedule.
    let mut keyed: Vec<(NodeOp, usize, i64, i64)> = schedule
        .nodes(ctx)
        .into_iter()
        .map(|n| {
            let profile = profile_from_snapshot(ctx, snapshot, n);
            (
                n,
                graph.connection_count(n),
                profile.intensity,
                budget_intensity(&profile),
            )
        })
        .collect();
    keyed.sort_by(|a, b| processing_order((a.1, a.2), (b.1, b.2)));
    let order: HashMap<NodeOp, usize> = keyed.iter().enumerate().map(|(i, k)| (k.0, i)).collect();
    let my_index = *order.get(&node).ok_or_else(|| {
        IrError::verification(format!("node {} is not part of its schedule", node.id()))
    })?;
    let my_connections = keyed[my_index].1;
    let max_intensity = keyed.iter().map(|k| k.3).max().unwrap_or(1);
    let budget = parallel_factor_for(
        keyed[my_index].3,
        max_intensity,
        max_parallel_factor,
        mode.intensity_aware(),
    );
    let my_profile = profile_from_snapshot(ctx, snapshot, node);

    let constraints_list = if mode.connection_aware() {
        // Alignment maps of the edges touching this node, and the factors the
        // *earlier* endpoint of each already had merged into the context.
        let mut connections = Vec::new();
        let mut chosen: HashMap<NodeOp, Vec<i64>> = HashMap::new();
        for edge in graph.edges.iter() {
            let peer = if edge.producer == node {
                edge.consumer
            } else if edge.consumer == node {
                edge.producer
            } else {
                continue;
            };
            if let Some(connection) = connection_for_edge(
                ctx,
                edge,
                &profile_from_snapshot(ctx, snapshot, edge.producer),
                &profile_from_snapshot(ctx, snapshot, edge.consumer),
            ) {
                connections.push(connection);
            }
            if order.get(&peer).map(|&j| j < my_index).unwrap_or(false) {
                let rank = profile_from_snapshot(ctx, snapshot, peer).loop_dims.len();
                chosen
                    .entry(peer)
                    .or_insert_with(|| transforms::unroll_factors_of(ctx, peer.id(), rank));
            }
        }
        constraints_for(node, my_profile.loop_dims.len(), &connections, &chosen)
    } else {
        Vec::new()
    };

    let factors = if mode == ParallelMode::Naive {
        naive_factors(&my_profile, max_parallel_factor)
    } else {
        select_unroll_factors(&my_profile, budget, &constraints_list)
    };
    transforms::plan_unroll_factors(scope, node.id(), &factors)?;
    scope.set_attr(node.id(), "parallel_factor", budget)?;
    scope.set_attr(node.id(), "intensity", my_profile.intensity)?;
    scope.set_attr(node.id(), "connections", my_connections as i64)?;
    Ok(())
}

/// The main-thread epilogue of parallel parallelization: reconstructs every
/// node's chosen factors from the merged unroll annotations and assigns array
/// partitions exactly like the sequential path.
pub fn finish_parallelization(
    ctx: &mut Context,
    analyses: &mut AnalysisManager,
    schedule: ScheduleOp,
) {
    let mut chosen: HashMap<NodeOp, Vec<i64>> = HashMap::new();
    for node in schedule.nodes(ctx) {
        let rank = analyses
            .get::<ComputeProfile>(ctx, node.id())
            .loop_dims
            .len();
        chosen.insert(node, transforms::unroll_factors_of(ctx, node.id(), rank));
    }
    assign_array_partitions(ctx, analyses, schedule, &chosen);
}

/// The naive strategy of the Figure 11 ablation: apply the maximum parallel factor to
/// every node, spreading it evenly over the non-reduction dimensions without any
/// awareness of constraints or budgets.
pub fn naive_factors(profile: &ComputeProfile, max_parallel_factor: i64) -> Vec<i64> {
    select_unroll_factors(profile, max_parallel_factor, &[])
}

/// Builds the constraint vectors for `info` from the connections to nodes that were
/// already parallelized (Algorithm 4 lines 2-8).
fn constraints_for(
    node: NodeOp,
    rank: usize,
    connections: &[Connection],
    chosen: &HashMap<NodeOp, Vec<i64>>,
) -> Vec<Vec<Option<i64>>> {
    let mut list = Vec::new();
    for connection in connections {
        // Peer already parallelized, `node` is the other endpoint.
        if connection.target == node {
            if let Some(peer_factors) = chosen.get(&connection.source) {
                let mut constraints = vec![None; rank];
                for (source_loop, &target_loop) in connection.t_to_s_perm.iter().enumerate() {
                    if let (Some(target_loop), Some(scale)) =
                        (target_loop, connection.s_to_t_scale[source_loop])
                    {
                        if target_loop < rank && source_loop < peer_factors.len() {
                            let value = (peer_factors[source_loop] as f64 * scale).round() as i64;
                            constraints[target_loop] = Some(value.max(1));
                        }
                    }
                }
                list.push(constraints);
            }
        } else if connection.source == node {
            if let Some(peer_factors) = chosen.get(&connection.target) {
                let mut constraints = vec![None; rank];
                for (target_loop, &source_loop) in connection.s_to_t_perm.iter().enumerate() {
                    if let (Some(source_loop), Some(scale)) =
                        (source_loop, connection.t_to_s_scale[target_loop])
                    {
                        if source_loop < rank && target_loop < peer_factors.len() {
                            let value = (peer_factors[target_loop] as f64 * scale).round() as i64;
                            constraints[source_loop] = Some(value.max(1));
                        }
                    }
                }
                list.push(constraints);
            }
        }
    }
    list
}

/// Assigns array partitions to every internal buffer of the schedule from the chosen
/// unroll factors and the access strides of the nodes touching it.
pub fn assign_array_partitions(
    ctx: &mut Context,
    analyses: &mut AnalysisManager,
    schedule: ScheduleOp,
    chosen: &HashMap<NodeOp, Vec<i64>>,
) {
    for (buffer, partition) in array_partitions(ctx, analyses, schedule, chosen) {
        buffer.set_partition(&mut *ctx, &partition);
    }
}

/// The partition of every internal buffer of rank > 0 (Table 6), computed in
/// one pass over the nodes and one over the buffers.
fn array_partitions(
    ctx: &Context,
    analyses: &mut AnalysisManager,
    schedule: ScheduleOp,
    chosen: &HashMap<NodeOp, Vec<i64>>,
) -> Vec<(BufferOp, ArrayPartition)> {
    // Per buffer value and buffer dimension: the largest bank requirement any
    // node's unrolled access makes, and whether any access is strided.
    let mut requirements: HashMap<ValueId, Vec<(i64, bool)>> = HashMap::new();
    for node in schedule.nodes(ctx) {
        let Some(unroll) = chosen.get(&node) else {
            continue;
        };
        let profile = analyses.get::<ComputeProfile>(ctx, node.id());
        let operands = &ctx.op(node.id()).operands;
        let args = &ctx.block(node.body(ctx)).args;
        for (index, (&value, &arg)) in operands.iter().zip(args).enumerate() {
            // A buffer passed twice is accessed through its first slot, as
            // `NodeOp::arg_for` resolves it.
            if operands[..index].contains(&value) {
                continue;
            }
            let Some(access) = profile.access_of(arg) else {
                continue;
            };
            let dims = requirements.entry(value).or_default();
            for (dim, pattern) in access.pattern.dims.iter().enumerate() {
                if let Some((loop_idx, stride)) = pattern {
                    let u = unroll.get(*loop_idx).copied().unwrap_or(1).max(1);
                    if dims.len() <= dim {
                        dims.resize(dim + 1, (1, false));
                    }
                    let (factor, strided) = &mut dims[dim];
                    *factor = (*factor).max(next_pow2(u * stride.abs().max(1)));
                    *strided |= stride.abs() > 1;
                }
            }
        }
    }
    schedule
        .internal_buffers(ctx)
        .into_iter()
        .filter_map(|buffer| {
            let shape = buffer.shape(ctx);
            if shape.is_empty() {
                return None;
            }
            let mut dims = vec![(1, false); shape.len()];
            if let Some(required) = requirements.get(&buffer.value(ctx)) {
                for (dim, &requirement) in dims.iter_mut().zip(required) {
                    *dim = requirement;
                }
            }
            Some((buffer, partition_directive(&shape, &dims)))
        })
        .collect()
}

/// Builds the partition directive of one buffer from its per-dimension
/// `(bank requirement, strided)` pairs, clamping factors to the dimension size.
fn partition_directive(shape: &[i64], dims: &[(i64, bool)]) -> ArrayPartition {
    let fashions = dims
        .iter()
        .map(|&(f, s)| {
            if f <= 1 {
                PartitionFashion::None
            } else if s {
                PartitionFashion::Block
            } else {
                PartitionFashion::Cyclic
            }
        })
        .collect();
    let factors = dims
        .iter()
        .zip(shape)
        .map(|(&(f, _), &s)| f.clamp(1, s.max(1)))
        .collect();
    ArrayPartition { fashions, factors }
}

/// Returns the partition assigned to a buffer (test/report helper).
pub fn partition_of(ctx: &Context, buffer: BufferOp) -> ArrayPartition {
    buffer.partition(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::construct_functional_dataflow;
    use crate::lower::lower_to_structural;
    use hida_frontend::listing1::build_listing1;

    /// Lowers Listing 1 to a structural schedule and returns its pieces.
    fn listing1_schedule() -> (Context, ScheduleOp, AnalysisManager) {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let l1 = build_listing1(&mut ctx, module);
        construct_functional_dataflow(&mut ctx, l1.func).unwrap();
        let mut analyses = AnalysisManager::new();
        let schedule = lower_to_structural(&mut ctx, &mut analyses, l1.func).unwrap();
        hida_ir_core::verifier::verify(&ctx, module).unwrap();
        (ctx, schedule, analyses)
    }

    fn node_by_name(ctx: &Context, schedule: ScheduleOp, name_part: &str) -> NodeOp {
        schedule
            .nodes(ctx)
            .into_iter()
            .find(|n| n.name(ctx).contains(name_part))
            .unwrap_or_else(|| panic!("no node containing '{name_part}'"))
    }

    #[test]
    fn connections_reproduce_table4_maps() {
        let (ctx, schedule, mut analyses) = listing1_schedule();
        let connections = analyze_connections(&ctx, &mut analyses, schedule);
        assert_eq!(connections.len(), 2, "A and B each connect two nodes");

        // The Node0 -> Node2 connection through array A.
        let node2 = node_by_name(&ctx, schedule, "task2");
        let a_conn = connections
            .iter()
            .find(|c| {
                c.target == node2
                    && c.s_to_t_perm.iter().filter(|p| p.is_some()).count() == 2
                    && c.s_to_t_scale.contains(&Some(0.5))
            })
            .expect("connection through A");
        // Permutation maps of Table 4.
        assert_eq!(a_conn.s_to_t_perm, vec![Some(0), None, Some(1)]);
        assert_eq!(a_conn.t_to_s_perm, vec![Some(0), Some(2)]);
        assert_eq!(a_conn.s_to_t_scale, vec![Some(0.5), Some(1.0)]);
        assert_eq!(a_conn.t_to_s_scale, vec![Some(2.0), None, Some(1.0)]);

        // The Node1 -> Node2 connection through array B.
        let b_conn = connections.iter().find(|c| *c != a_conn).unwrap();
        assert_eq!(b_conn.s_to_t_perm, vec![None, Some(1), Some(0)]);
        assert_eq!(b_conn.t_to_s_perm, vec![Some(2), Some(1)]);
        assert_eq!(b_conn.s_to_t_scale, vec![Some(1.0), Some(1.0)]);
        assert_eq!(b_conn.t_to_s_scale, vec![None, Some(1.0), Some(1.0)]);
    }

    #[test]
    fn node_ordering_and_parallel_factors_match_table5() {
        let (ctx, schedule, mut analyses) = listing1_schedule();
        let infos = analyze_nodes(&ctx, &mut analyses, schedule);
        // Node2 (two connections, highest intensity) is parallelized first.
        assert!(infos[0].node.name(&ctx).contains("task2"));
        assert_eq!(infos[0].connections, 2);

        // Intensity-aware parallel factors with a maximum of 32 (Table 5):
        // Node2 -> 32, Node0 -> 4, Node1 -> 2.
        let budgets = node_parallel_factors(&infos, 32, true);
        let node0 = node_by_name(&ctx, schedule, "task0");
        let node1 = node_by_name(&ctx, schedule, "task1");
        let node2 = node_by_name(&ctx, schedule, "task2");
        assert_eq!(budgets[&node2], 32);
        assert!(budgets[&node0] <= 8 && budgets[&node0] >= 2);
        assert!(budgets[&node1] <= budgets[&node0]);
        // Without intensity awareness every node receives the maximum.
        let uniform = node_parallel_factors(&infos, 32, false);
        assert!(uniform.values().all(|&f| f == 32));
    }

    #[test]
    fn ia_ca_unroll_factors_align_with_connections() {
        let (mut ctx, schedule, mut analyses) = listing1_schedule();
        parallelize_schedule(
            &mut ctx,
            &mut analyses,
            schedule,
            32,
            ParallelMode::IaCa,
            &FpgaDevice::pynq_z2(),
        )
        .unwrap();
        let node0 = node_by_name(&ctx, schedule, "task0");
        let node2 = node_by_name(&ctx, schedule, "task2");
        let f0 = transforms::unroll_factors_of(&ctx, node0.id(), 2);
        let f2 = transforms::unroll_factors_of(&ctx, node2.id(), 3);
        // Node2 gets the full budget of 32 spread over its non-reduction dims; the k
        // dimension (reduction) stays 1.
        assert_eq!(f2.iter().product::<i64>(), 32);
        assert_eq!(f2[2], 1);
        // Node0's budget is ~4 and its factors respect the A-array alignment:
        // its i factor must be mutually divisible with 2x Node2's i factor.
        assert!(f0.iter().product::<i64>() <= 8);
        let constraint = 2 * f2[0];
        assert!(constraint % f0[0] == 0 || f0[0] % constraint == 0);
    }

    #[test]
    fn array_partitions_shrink_with_ia_ca_as_in_table6() {
        let total_banks = |mode: ParallelMode| -> i64 {
            let (mut ctx, schedule, mut analyses) = listing1_schedule();
            parallelize_schedule(
                &mut ctx,
                &mut analyses,
                schedule,
                32,
                mode,
                &FpgaDevice::pynq_z2(),
            )
            .unwrap();
            schedule
                .internal_buffers(&ctx)
                .iter()
                .map(|b| b.partition(&ctx).bank_count())
                .sum()
        };
        let ia_ca = total_banks(ParallelMode::IaCa);
        let ia = total_banks(ParallelMode::IaOnly);
        let ca = total_banks(ParallelMode::CaOnly);
        let naive = total_banks(ParallelMode::Naive);
        // Table 6 trend: IA+CA uses the fewest banks, Naive the most.
        assert!(ia_ca <= ia, "IA+CA ({ia_ca}) must not exceed IA ({ia})");
        assert!(ia_ca <= ca, "IA+CA ({ia_ca}) must not exceed CA ({ca})");
        assert!(ia_ca < naive, "IA+CA ({ia_ca}) must beat Naive ({naive})");
        assert!(naive >= ca.max(ia));
    }

    #[test]
    fn select_unroll_factors_respects_constraints_and_budget() {
        use hida_dialects::analysis::ProfileLoopDim;
        let profile = ComputeProfile {
            loop_dims: vec![
                ProfileLoopDim {
                    name: "i".into(),
                    trip: 32,
                    reduction: false,
                },
                ProfileLoopDim {
                    name: "k".into(),
                    trip: 16,
                    reduction: false,
                },
            ],
            ..ComputeProfile::default()
        };
        // Without constraints and a budget of 4 the factors are balanced.
        let balanced = select_unroll_factors(&profile, 4, &[]);
        assert_eq!(balanced.iter().product::<i64>(), 4);
        assert_eq!(balanced, vec![2, 2]);
        // With an [8, 1] constraint (the Table 5 situation) the i dimension absorbs
        // the whole budget.
        let constrained = select_unroll_factors(&profile, 4, &[vec![Some(8), Some(1)]]);
        assert_eq!(constrained, vec![4, 1]);
        // Reduction dimensions are never unrolled.
        let with_reduction = ComputeProfile {
            loop_dims: vec![
                ProfileLoopDim {
                    name: "i".into(),
                    trip: 16,
                    reduction: false,
                },
                ProfileLoopDim {
                    name: "k".into(),
                    trip: 16,
                    reduction: true,
                },
            ],
            ..ComputeProfile::default()
        };
        let factors = select_unroll_factors(&with_reduction, 8, &[]);
        assert_eq!(factors[1], 1);
        assert_eq!(factors[0], 8);
    }

    /// The exhaustive Algorithm 4 enumeration the bounded search replaced:
    /// every leaf under the product cap, validated and scored, first minimum
    /// kept.
    fn select_unroll_factors_reference(
        profile: &ComputeProfile,
        parallel_factor: i64,
        constraints_list: &[Vec<Option<i64>>],
    ) -> Vec<i64> {
        fn enumerate(
            candidates: &[Vec<i64>],
            dim: usize,
            product: i64,
            cap: i64,
            current: &mut Vec<i64>,
            visit: &mut dyn FnMut(&[i64]),
        ) {
            if dim == candidates.len() {
                visit(current);
                return;
            }
            for &f in &candidates[dim] {
                if product * f > cap {
                    break;
                }
                current[dim] = f;
                enumerate(candidates, dim + 1, product * f, cap, current, visit);
            }
            current[dim] = 1;
        }
        fn is_valid(
            factors: &[i64],
            parallel_factor: i64,
            constraints_list: &[Vec<Option<i64>>],
        ) -> bool {
            let product: i64 = factors.iter().product();
            if product > parallel_factor {
                return false;
            }
            for constraints in constraints_list {
                for (&factor, constraint) in factors.iter().zip(constraints) {
                    if let Some(c) = constraint {
                        let c = (*c).max(1);
                        if c % factor != 0 && factor % c != 0 {
                            return false;
                        }
                    }
                }
            }
            true
        }
        let rank = profile.loop_dims.len();
        if rank == 0 {
            return Vec::new();
        }
        let mut candidates: Vec<Vec<i64>> = Vec::with_capacity(rank);
        for dim in &profile.loop_dims {
            if dim.reduction {
                candidates.push(vec![1]);
                continue;
            }
            let cap = next_pow2(dim.trip.max(1)).min(next_pow2(parallel_factor));
            let mut options = Vec::new();
            let mut f = 1;
            while f <= cap {
                options.push(f);
                f *= 2;
            }
            candidates.push(options);
        }
        let mut best: Option<(Score, Vec<i64>)> = None;
        let mut current = vec![1_i64; rank];
        enumerate(
            &candidates,
            0,
            1,
            parallel_factor,
            &mut current,
            &mut |factors| {
                if !is_valid(factors, parallel_factor, constraints_list) {
                    return;
                }
                let score = score_factors(profile, factors, constraints_list);
                if best.as_ref().map(|(b, _)| score < *b).unwrap_or(true) {
                    best = Some((score, factors.to_vec()));
                }
            },
        );
        best.map(|(_, f)| f).unwrap_or_else(|| vec![1; rank])
    }

    /// The buffers x nodes partition loop the one-pass [`array_partitions`]
    /// replaced.
    fn array_partitions_reference(
        ctx: &Context,
        analyses: &mut AnalysisManager,
        schedule: ScheduleOp,
        chosen: &HashMap<NodeOp, Vec<i64>>,
    ) -> Vec<(BufferOp, ArrayPartition)> {
        let mut partitions = Vec::new();
        for buffer in schedule.internal_buffers(ctx) {
            let value = buffer.value(ctx);
            let shape = buffer.shape(ctx);
            let rank = shape.len();
            if rank == 0 {
                continue;
            }
            let mut dims = vec![(1_i64, false); rank];
            for node in schedule.nodes(ctx) {
                let Some(unroll) = chosen.get(&node) else {
                    continue;
                };
                let profile = analyses.get::<ComputeProfile>(ctx, node.id());
                let Some(access) = node.arg_for(ctx, value).and_then(|a| profile.access_of(a))
                else {
                    continue;
                };
                for (dim, pattern) in access.pattern.dims.iter().enumerate() {
                    if let Some((loop_idx, stride)) = pattern {
                        let u = unroll.get(*loop_idx).copied().unwrap_or(1).max(1);
                        if dim < rank {
                            dims[dim].0 = dims[dim].0.max(next_pow2(u * stride.abs().max(1)));
                            dims[dim].1 |= stride.abs() > 1;
                        }
                    }
                }
            }
            partitions.push((buffer, partition_directive(&shape, &dims)));
        }
        partitions
    }

    proptest::proptest! {
        /// The bounded search returns exactly the exhaustive enumeration's
        /// factors. Each sampled case carries a batch of problems; budgets are
        /// not restricted to powers of two and constraints include `Some(0)`,
        /// odd values and `None`.
        #[test]
        fn bounded_search_matches_exhaustive_enumeration(
            problems in proptest::collection::vec(
                (
                    proptest::collection::vec((1_i64..100, 0_u32..4), 0..6),
                    0_i64..300,
                    proptest::collection::vec(
                        proptest::collection::vec(
                            proptest::sample::select(vec![
                                None, Some(0), Some(1), Some(2), Some(3), Some(4),
                                Some(6), Some(8), Some(16), Some(32), Some(64),
                            ]),
                            0..7,
                        ),
                        0..4,
                    ),
                ),
                32..33,
            )
        ) {
            for (dims, budget, constraints) in problems {
                let profile = ComputeProfile {
                    loop_dims: dims
                        .iter()
                        .enumerate()
                        .map(|(i, &(trip, kind))| hida_dialects::analysis::ProfileLoopDim {
                            name: format!("d{i}"),
                            trip,
                            reduction: kind == 0,
                        })
                        .collect(),
                    ..ComputeProfile::default()
                };
                proptest::prop_assert_eq!(
                    select_unroll_factors(&profile, budget, &constraints),
                    select_unroll_factors_reference(&profile, budget, &constraints),
                    "dims {:?}, budget {}, constraints {:?}",
                    dims,
                    budget,
                    constraints
                );
            }
        }
    }

    #[test]
    fn one_pass_partitions_match_the_reference_on_every_model_and_mode() {
        use crate::{HidaOptimizer, HidaOptions};
        use hida_frontend::nn::{build_model, Model};
        let modes = [
            ParallelMode::IaCa,
            ParallelMode::IaOnly,
            ParallelMode::CaOnly,
            ParallelMode::Naive,
        ];
        // The full flow, and the unfused one the ScaleHLS baseline runs
        // (ResNet-18: 20 nodes fused, 49 unfused).
        for (model, mode, fused) in Model::all()
            .into_iter()
            .flat_map(|m| modes.map(|mode| (m, mode)))
            .flat_map(|(m, mode)| [(m, mode, true), (m, mode, false)])
        {
            let mut ctx = Context::new();
            let module = ctx.create_module("m");
            let func = build_model(&mut ctx, module, model);
            let options = HidaOptions {
                mode,
                enable_fusion: fused,
                enable_balancing: fused,
                tile_size: HidaOptions::dnn().tile_size.filter(|_| fused),
                ..HidaOptions::dnn()
            };
            let schedule = HidaOptimizer::new(options).run(&mut ctx, func).unwrap();
            let mut analyses = AnalysisManager::new();
            let chosen: HashMap<NodeOp, Vec<i64>> = schedule
                .nodes(&ctx)
                .into_iter()
                .map(|node| {
                    let rank = analyses
                        .get::<ComputeProfile>(&ctx, node.id())
                        .loop_dims
                        .len();
                    (node, transforms::unroll_factors_of(&ctx, node.id(), rank))
                })
                .collect();
            let partitions = array_partitions(&ctx, &mut analyses, schedule, &chosen);
            assert!(!partitions.is_empty(), "{model:?} has no buffers");
            assert_eq!(
                partitions,
                array_partitions_reference(&ctx, &mut analyses, schedule, &chosen),
                "{model:?} {mode:?} fused={fused}"
            );
            // The pipeline assigned the same partitions.
            for (buffer, partition) in &partitions {
                assert_eq!(buffer.partition(&ctx), *partition);
            }
        }
    }

    #[test]
    fn round_pow2_behaviour() {
        assert_eq!(round_pow2(0.5), 1);
        assert_eq!(round_pow2(3.0), 4);
        assert_eq!(round_pow2(4.0), 4);
        assert_eq!(round_pow2(5.9), 4);
        assert_eq!(round_pow2(6.1), 8);
        assert_eq!(next_pow2(17), 32);
        assert_eq!(next_pow2(1), 1);
    }
}
