//! Surrogate QoR bounds for design-space exploration.
//!
//! The explorer in `hida_core::explore` must decide whether a candidate design
//! point is worth compiling *before* paying for the compile. This module
//! answers that question with an optimistic bound on the design's QoR vector,
//! assembled without running the design-level timing model: per-node results
//! already known to the [`SharedEstimateCache`] are served via
//! [`SharedEstimateCache::peek`], and
//! unknown nodes fall back to [`optimistic_body_bound`] — both give the
//! **exact** per-node latency and resources, since the per-node model is pure
//! arithmetic over the lowered IR. What the bound cannot see are the
//! design-level stall and oversubscription factors, which are always `>= 1`.
//! Buffer resources are pure IR arithmetic and are always exact.
//!
//! Soundness: every component of [`DesignBound`] is `<=` the corresponding
//! component of the exact [`estimate_schedule`] answer (resources are equal,
//! the interval is a lower bound). A frontier point that *strictly dominates*
//! the bound therefore also dominates the true estimate, so pruning on the
//! bound can never discard a Pareto-optimal design. See
//! `docs/ARCHITECTURE.md` § "Adaptive DSE & budget rebalancing" for the
//! term-by-term argument.
//!
//! [`estimate_schedule`]: crate::DataflowEstimator::estimate_schedule

use crate::device::FpgaDevice;
use crate::latency::{buffer_info, optimistic_body_bound};
use crate::resource::Resources;
use crate::shared_cache::{device_fingerprint, estimate_key, SharedEstimateCache};
use hida_dataflow_ir::graph::DataflowGraph;
use hida_dataflow_ir::structural::ScheduleOp;
use hida_ir_core::Context;
use std::collections::HashMap;

/// Optimistic bound on a whole design's QoR vector.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignBound {
    /// Lower bound on the dataflow pipeline interval (cycles). The exact
    /// interval is `max_i(latency_i * stall_i)` scaled by over-subscription.
    /// The stall factors are purely topological (path-depth imbalance vs
    /// buffer depth — no timing involved), so the bound reproduces them
    /// exactly and only the over-subscription factor (`>= 1`) is dropped:
    /// `max_i(latency_lb_i * stall_i)` bounds the interval from below.
    pub interval_lb: i64,
    /// Exactly the resources `estimate_schedule` would charge: per-node
    /// compute resources (timing-free profile arithmetic) plus buffer
    /// resources (pure IR resolution).
    pub resources: Resources,
    /// Number of dataflow nodes inspected.
    pub nodes: usize,
    /// How many of those nodes were served exactly from the shared cache
    /// (the rest used the optimistic per-node bound).
    pub probe_hits: usize,
}

/// Computes the optimistic QoR bound of `schedule` without running the timing
/// model. When `cache` is given, each node is first probed (via
/// [`SharedEstimateCache::peek`] — a non-counting read) and a hit contributes
/// its **exact** latency and resources; misses contribute
/// [`optimistic_body_bound`]. Exact latencies keep the bound sound because a
/// node's latency is itself `<=` the design interval.
pub fn design_bound(
    ctx: &Context,
    schedule: ScheduleOp,
    device: &FpgaDevice,
    cache: Option<&SharedEstimateCache>,
) -> DesignBound {
    let device_key = device_fingerprint(device);
    let nodes = schedule.nodes(ctx);
    let mut latencies: Vec<i64> = Vec::with_capacity(nodes.len());
    let mut compute_res = Resources::zero();
    let mut probe_hits = 0_usize;
    for node in &nodes {
        let op = node.id();
        match cache.and_then(|c| c.peek(estimate_key(ctx, op, device_key))) {
            Some(exact) => {
                probe_hits += 1;
                latencies.push(exact.latency_cycles);
                compute_res += exact.resources;
            }
            None => {
                let bound = optimistic_body_bound(ctx, op, device);
                latencies.push(bound.latency_lb);
                compute_res += bound.resources;
            }
        }
    }

    // Unbalanced-path stall factors, exactly as the dataflow estimator's
    // pipeline timing charges them: the imbalance is a path-depth count and
    // the buffer depth is IR arithmetic, so no timing estimate is involved
    // and the factors are exact. Multiplying exact (`>= 1`) factors into the
    // per-node latency bounds keeps `interval_lb` a sound lower bound — only
    // the over-subscription scaling remains unmodeled.
    let graph = DataflowGraph::from_schedule(ctx, schedule);
    let mut stall: HashMap<_, i64> = nodes.iter().map(|&n| (n, 1_i64)).collect();
    for (edge, imbalance) in graph.unbalanced_edges() {
        let required_depth = imbalance as i64 + 1;
        let actual_depth = buffer_info(ctx, edge.buffer).depth.max(1);
        if actual_depth < required_depth {
            let factor = (required_depth + actual_depth - 1) / actual_depth;
            let entry = stall.entry(edge.producer).or_insert(1);
            *entry = (*entry).max(factor);
        }
    }
    let interval_lb = nodes
        .iter()
        .zip(&latencies)
        .map(|(n, &lat)| lat * stall[n])
        .max()
        .unwrap_or(1)
        .max(1);

    // Buffer resources are exact: the same loops `estimate_schedule` runs.
    let mut buffer_res = Resources::zero();
    for buf in schedule.internal_buffers(ctx) {
        buffer_res += buffer_info(ctx, buf.value(ctx)).resources();
    }
    for op in ctx.collect_ops(schedule.id(), hida_dialects::memory::ALLOC) {
        buffer_res += buffer_info(ctx, ctx.op(op).results[0]).resources();
    }

    DesignBound {
        interval_lb,
        resources: compute_res + buffer_res,
        nodes: nodes.len(),
        probe_hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataflowEstimator;
    use hida_dataflow_ir::structural::{build_buffer, build_node, NodeOp};
    use hida_dialects::analysis::MemEffect;
    use hida_dialects::arith;
    use hida_dialects::loops::build_loop_nest;
    use hida_dialects::memory::{build_load, build_store};
    use hida_ir_core::{OpBuilder, Type};
    use std::sync::Arc;

    fn fill_node_body(ctx: &mut Context, node: NodeOp, n: i64) {
        let body = node.body(ctx);
        let args = node.body_args(ctx);
        let (_l, ivs, inner) = build_loop_nest(ctx, body, &[(0, n, "i")]);
        let mut b = OpBuilder::at_block_end(ctx, inner);
        let x = build_load(&mut b, args[0], &[ivs[0]]);
        let y = arith::build_binary(&mut b, arith::MULF, x, x);
        build_store(&mut b, y, args[1], &[ivs[0]]);
    }

    fn two_node_schedule(ctx: &mut Context, n0: i64, n1: i64) -> ScheduleOp {
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![]);
        let (schedule, body) = {
            let mut b = OpBuilder::at_end_of(ctx, func);
            hida_dataflow_ir::structural::build_schedule(&mut b, "pipe")
        };
        let ty = Type::memref(vec![n0.max(n1)], Type::f32());
        let mk = |ctx: &mut Context, name: &str| {
            let mut b = OpBuilder::at_block_end(ctx, body);
            build_buffer(&mut b, ty.clone(), 2, name).1
        };
        let b_in = mk(ctx, "in");
        let b_mid = mk(ctx, "mid");
        let b_out = mk(ctx, "out");
        let (node0, _) = build_node(
            ctx,
            body,
            "n0",
            &[(b_in, MemEffect::Read), (b_mid, MemEffect::Write)],
        );
        fill_node_body(ctx, node0, n0);
        let (node1, _) = build_node(
            ctx,
            body,
            "n1",
            &[(b_mid, MemEffect::Read), (b_out, MemEffect::Write)],
        );
        fill_node_body(ctx, node1, n1);
        schedule
    }

    #[test]
    fn bound_never_exceeds_exact_schedule_estimate() {
        let device = FpgaDevice::zu3eg();
        let mut ctx = Context::new();
        let schedule = two_node_schedule(&mut ctx, 1024, 4096);
        let exact = DataflowEstimator::new(device.clone()).estimate_schedule(&ctx, schedule, true);

        let cold = design_bound(&ctx, schedule, &device, None);
        assert!(cold.interval_lb <= exact.interval_cycles);
        assert_eq!(cold.resources, exact.resources);
        assert_eq!(cold.nodes, 2);
        assert_eq!(cold.probe_hits, 0);
    }

    #[test]
    fn warm_cache_serves_exact_latencies_and_stays_sound() {
        let device = FpgaDevice::zu3eg();
        let cache = Arc::new(SharedEstimateCache::new());
        let mut ctx = Context::new();
        let schedule = two_node_schedule(&mut ctx, 1024, 4096);
        let est = DataflowEstimator::new(device.clone()).with_shared_cache(cache.clone());
        let exact = est.estimate_schedule(&ctx, schedule, true);

        let warm = design_bound(&ctx, schedule, &device, Some(&cache));
        assert_eq!(warm.probe_hits, 2);
        // With every node served exactly, the interval bound equals the exact
        // max-latency interval (this schedule has no stalls).
        assert_eq!(warm.interval_lb, exact.interval_cycles);
        assert_eq!(warm.resources, exact.resources);
        // The probe is traffic-free: pruning decisions don't perturb the
        // hit/miss counters CI asserts on.
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn warm_bound_is_at_least_as_tight_as_cold() {
        let device = FpgaDevice::zu3eg();
        let cache = Arc::new(SharedEstimateCache::new());
        let mut ctx = Context::new();
        let schedule = two_node_schedule(&mut ctx, 2048, 2048);
        let cold = design_bound(&ctx, schedule, &device, Some(&cache));
        DataflowEstimator::new(device.clone())
            .with_shared_cache(cache.clone())
            .estimate_schedule(&ctx, schedule, true);
        let warm = design_bound(&ctx, schedule, &device, Some(&cache));
        assert!(warm.interval_lb >= cold.interval_lb);
        assert_eq!(warm.resources, cold.resources);
    }
}
