//! QoR (quality of results) estimation for HIDA designs.
//!
//! The original HIDA flow hands its output to AMD Vitis HLS and reads throughput and
//! resource utilization back from synthesis reports; its design-space exploration is
//! driven by the analytic QoR estimator inherited from ScaleHLS. Because this
//! reproduction cannot run Vitis HLS or place-and-route a bitstream, the same
//! analytic estimator serves both purposes here (see DESIGN.md, substitution table):
//!
//! * [`device`] — catalogs of the FPGA platforms used in the paper's evaluation
//!   (PYNQ-Z2, ZU3EG, one VU9P SLR),
//! * [`resource`] — DSP / BRAM / LUT / FF cost model for compute and buffers,
//! * [`latency`] — loop-nest latency and initiation-interval model under unroll,
//!   pipeline, partition and tiling decisions,
//! * [`dataflow`] — schedule-level throughput model with ping-pong buffers,
//!   unbalanced-path stalls, and external-memory transfer costs,
//! * [`report`] — the [`DesignEstimate`] summary (throughput,
//!   DSP efficiency, utilization) reported by every benchmark harness,
//! * [`shared_cache`] — a content-addressed [`SharedEstimateCache`] shared
//!   *across* compilations, keyed by structural node fingerprints, so a
//!   design-space sweep re-estimates only the nodes whose tiling or parallel
//!   factors actually changed.
//!
//! Per-node estimates are memoized through the shared analysis-cache machinery
//! and — via [`DataflowEstimator::with_jobs`](dataflow::DataflowEstimator::with_jobs)
//! — computed on a work-stealing thread pool: the per-node half of a schedule
//! estimate is a pure function of the IR and the device, so parallel and
//! sequential estimation are bit-identical.

pub mod dataflow;
pub mod device;
pub mod latency;
pub mod report;
pub mod resource;
pub mod shared_cache;
pub mod surrogate;

pub use dataflow::DataflowEstimator;
pub use device::FpgaDevice;
pub use latency::NodeEstimate;
pub use report::DesignEstimate;
pub use resource::Resources;
pub use shared_cache::{estimate_fingerprint, SharedCacheStats, SharedEstimateCache};
pub use surrogate::{design_bound, DesignBound};
