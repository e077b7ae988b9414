//! CLI chaos harness: `--inject-faults` must fail exactly the planned points
//! with structured reasons, stay byte-identical across job counts, leave the
//! surviving points' reports untouched relative to a fault-free run, time out
//! deterministically under `--deadline-ms`, and recover transient faults
//! under `--retries`.

use hida::{FaultKind, FaultPlan};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_hida-opt");

/// Four healthy pipeline variants — any failure below is injected.
const HEALTHY_VARIANTS: &str = "\
construct,lower,tiling{factor=2},parallelize{max-factor=2,device=zu3eg}
construct,lower,tiling{factor=2},parallelize{max-factor=4,device=zu3eg}
construct,lower,tiling{factor=4},parallelize{max-factor=2,device=zu3eg}
construct,lower,tiling{factor=4},parallelize{max-factor=4,device=zu3eg}
";

fn write_variants(name: &str, contents: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write variants file");
    path
}

/// Runs `hida-opt --sweep` over `path` with extra args, returning
/// (exit-success, stdout).
fn run_sweep(path: &PathBuf, jobs: &str, extra: &[&str]) -> (bool, String) {
    let output = Command::new(BIN)
        .args([
            "--workload",
            "two_mm",
            "--size",
            "32",
            "--no-timing",
            "--jobs",
            jobs,
        ])
        .arg("--sweep")
        .arg(path)
        .args(extra)
        .output()
        .expect("run hida-opt --sweep");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

/// Splits a sweep report into per-point blocks keyed by label (`p01`, ...).
fn point_blocks(stdout: &str) -> BTreeMap<String, String> {
    let mut blocks = BTreeMap::new();
    for chunk in stdout.split("\npoint ").skip(1) {
        let number = chunk.split(':').next().expect("point number");
        let body = chunk.split("\n\n").next().expect("point body");
        blocks.insert(format!("p{number}"), body.trim_end().to_string());
    }
    blocks
}

#[test]
fn injected_faults_fail_exactly_the_planned_points_at_any_job_count() {
    let path = write_variants("chaos_sweep.txt", HEALTHY_VARIANTS);
    // One pass panic plus one stall that overruns the per-point deadline.
    let spec = "seed=7,pass-panic=1,stall=1,stall-ms=400";
    let chaos = ["--inject-faults", spec, "--deadline-ms", "50"];

    // The expected failed set comes from the plan alone — the same
    // assignment the engine computes, independent of scheduling.
    let plan = FaultPlan::parse(spec).expect("valid fault spec");
    let labels: Vec<String> = (1..=4).map(|i| format!("p{i:02}")).collect();
    let assignment = plan.assign(&labels);
    let expected: Vec<String> = assignment.keys().cloned().collect();
    assert_eq!(expected.len(), 2, "the plan arms two faults");

    let (ok, chaos1) = run_sweep(&path, "1", &chaos);
    assert!(!ok, "a sweep with injected faults must exit nonzero");
    let (ok, chaos4) = run_sweep(&path, "4", &chaos);
    assert!(!ok);
    assert_eq!(
        chaos1, chaos4,
        "--no-timing chaos output must be byte-identical across job counts"
    );

    let summary = format!("FAILED: 2 of 4 sweep points ({})", expected.join(", "));
    assert!(
        chaos1.contains(&summary),
        "missing summary '{summary}' in:\n{chaos1}"
    );
    // Each failed point carries the structured reason of its own fault.
    let chaos_blocks = point_blocks(&chaos1);
    for (label, kind) in &assignment {
        let reason = match kind {
            FaultKind::PassPanic => "attempt 0: Panicked",
            FaultKind::Stall => "attempt 0: TimedOut",
        };
        let block = &chaos_blocks[label];
        assert!(block.contains(reason), "{label} lacks '{reason}':\n{block}");
    }

    // Surviving points report exactly what a fault-free run reports.
    let (ok, clean) = run_sweep(&path, "1", &[]);
    assert!(ok, "the fault-free sweep must pass:\n{clean}");
    let clean_blocks = point_blocks(&clean);
    for label in &labels {
        if expected.contains(label) {
            continue;
        }
        assert_eq!(
            chaos_blocks.get(label),
            clean_blocks.get(label),
            "survivor {label} must be byte-identical to the fault-free run"
        );
    }
}

#[test]
fn stalled_point_times_out_under_a_deadline() {
    let path = write_variants("chaos_deadline.txt", HEALTHY_VARIANTS);
    let (ok, stdout) = run_sweep(
        &path,
        "2",
        &[
            "--inject-faults",
            "seed=5,stall=1,stall-ms=400",
            "--deadline-ms",
            "50",
        ],
    );
    assert!(!ok, "a timed-out point must fail the sweep");
    assert!(
        stdout.contains("TimedOut") && stdout.contains("FAILED: 1 of 4"),
        "missing structured timeout in:\n{stdout}"
    );
}

#[test]
fn transient_faults_recover_under_retries() {
    let path = write_variants("chaos_retries.txt", HEALTHY_VARIANTS);
    let (ok, stdout) = run_sweep(
        &path,
        "2",
        &[
            "--inject-faults",
            "seed=3,pass-panic=1,transient",
            "--retries",
            "1",
        ],
    );
    assert!(
        ok,
        "a transient fault must converge under --retries 1:\n{stdout}"
    );
    assert!(!stdout.contains("FAILED"), "no point may fail:\n{stdout}");
}

#[test]
fn single_run_isolates_an_injected_pass_panic() {
    let output = Command::new(BIN)
        .args([
            "--workload",
            "two_mm",
            "--size",
            "32",
            "--no-timing",
            "--jobs",
            "1",
            "--inject-faults",
            "seed=1,pass-panic=1",
        ])
        .output()
        .expect("run hida-opt");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("injected fault"),
        "error must name the injected fault:\n{stderr}"
    );
    // The structured `WorkerPanic` display mentions the panic; what must NOT
    // appear is the runtime's own report of an escaped panic.
    assert!(
        !stderr.contains("stack backtrace") && !stderr.contains("thread 'main' panicked"),
        "the injected panic must not escape as a raw panic report:\n{stderr}"
    );
}
