//! Property tests for fault-isolated sweeps: across random point counts,
//! plan seeds, fault mixes and job counts, the set of failed points is
//! exactly the plan's assignment (pass panics, and stalls that overrun the
//! per-point deadline), every report-level summary — [`SweepOutcome::all_ok`],
//! [`SweepOutcome::failed_labels`] and the CLI's `FAILED: n of m` line —
//! agrees with it, and each failure carries the structured reason matching
//! its injected fault kind.
//!
//! Because the expected failed set is computed from the plan alone (label
//! shuffle, no scheduling input) while the sweep runs at a sampled job
//! count, every passing case also re-proves schedule independence.

use hida::sweep::{JobBudget, SweepEngine, SweepPoint};
use hida::{FailureReason, FaultKind, FaultPlan, HidaOptions, PolybenchKernel, Workload};
use proptest::prelude::*;

/// Per-point deadline every sampled sweep runs under: far above a healthy
/// point's compile time, far below an injected stall.
const DEADLINE_MS: u64 = 60;
/// Injected stall length; a stalled point always overruns [`DEADLINE_MS`].
const STALL_MS: u64 = 80;

/// Cheap, distinct design points labeled `p01..pNN` like the CLI's sweeps.
fn points(n: usize) -> Vec<SweepPoint> {
    (0..n)
        .map(|i| {
            SweepPoint::new(
                format!("p{:02}", i + 1),
                Workload::PolybenchSized(PolybenchKernel::TwoMm, 32),
                HidaOptions {
                    max_parallel_factor: 4 << (i % 3),
                    ..HidaOptions::polybench()
                },
            )
        })
        .collect()
}

/// The CLI's failure summary line, rebuilt from the same two quantities
/// `run_sweep` uses (`failed_labels()` and the point count).
fn cli_summary(failed: &[&str], total: usize) -> String {
    format!(
        "FAILED: {} of {} sweep points ({})",
        failed.len(),
        total,
        failed.join(", ")
    )
}

proptest! {
    /// `failed_labels`/`all_ok`/the CLI summary all equal the plan-derived
    /// expectation, at any sampled job count.
    #[test]
    fn failed_points_equal_the_plans_fatal_assignment(
        n in 1_usize..5,
        seed in 0_u64..64,
        panics in 0_usize..3,
        stalls in 0_usize..3,
        jobs in 1_usize..4,
    ) {
        hida_ir_core::fault::silence_expected_panics();
        let plan = FaultPlan {
            seed,
            pass_panics: panics,
            stalls,
            stall_ms: STALL_MS,
            ..FaultPlan::default()
        };
        let points = points(n);
        let labels: Vec<String> = points.iter().map(|p| p.label.clone()).collect();
        let assignment = plan.assign(&labels);
        // BTreeMap keys are sorted; the zero-padded labels sort identically
        // to the sweep's point order, so this matches failed_labels' order.
        let expected: Vec<&str> = assignment.keys().map(String::as_str).collect();

        let mut engine = SweepEngine::new()
            .with_budget(JobBudget::for_points(jobs, n))
            .with_deadline_ms(DEADLINE_MS);
        if !plan.is_empty() {
            engine = engine.with_fault_plan(plan.clone());
        }
        let outcome = engine.run(&points);

        let failed = outcome.failed_labels();
        prop_assert_eq!(&failed, &expected);
        prop_assert_eq!(outcome.all_ok(), expected.is_empty());
        prop_assert_eq!(
            cli_summary(&failed, outcome.points.len()),
            cli_summary(&expected, n)
        );

        for point in &outcome.points {
            match assignment.get(&point.label) {
                Some(FaultKind::PassPanic) => {
                    prop_assert_eq!(point.failure_reason(), Some(FailureReason::Panicked));
                }
                Some(FaultKind::Stall) => {
                    prop_assert_eq!(point.failure_reason(), Some(FailureReason::TimedOut));
                }
                _ => prop_assert!(point.result.is_ok()),
            }
        }
    }

    /// An empty plan (or none at all) fails nothing: chaos plumbing is
    /// zero-impact when no fault is armed.
    #[test]
    fn empty_plans_fail_no_points(
        n in 1_usize..4,
        seed in 0_u64..64,
        jobs in 1_usize..4,
    ) {
        let plan = FaultPlan { seed, ..FaultPlan::default() };
        prop_assert!(plan.is_empty());
        let points = points(n);
        let outcome = SweepEngine::new()
            .with_budget(JobBudget::for_points(jobs, n))
            .with_fault_plan(plan)
            .run(&points);
        prop_assert!(outcome.all_ok());
        prop_assert!(outcome.failed_labels().is_empty());
        prop_assert!(outcome.points.iter().all(|p| p.failure.is_none() && p.attempts == 1));
    }
}
