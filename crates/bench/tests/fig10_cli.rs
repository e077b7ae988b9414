//! Bench-binary argument handling: an argument a binary does not know, or a
//! missing or malformed value, must stop it with exit code 2 before any
//! design point compiles, instead of silently running with defaults.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `bin` with `args` in a fresh directory under the test tmpdir and
/// asserts it exits 2 with `message` on stderr, printed nothing on stdout and
/// left no file behind — neither at `--json`-style paths passed in `args`
/// nor at a default report path in its working directory.
fn assert_rejected(bin: &str, case: &str, args: &[&str], message: &str) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(Path::new(bin).file_name().expect("binary name"))
        .join(case);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    let output = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run bench binary");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "{args:?} printed a report");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("read tmpdir")
        .map(|entry| entry.expect("dir entry").file_name())
        .collect();
    assert!(left.is_empty(), "{args:?} wrote {left:?}");
}

#[test]
fn bad_arguments_exit_2_without_running_the_sweep() {
    let bin = env!("CARGO_BIN_EXE_fig10_ablation");
    // Each case points the report into its own directory, so a sweep that
    // wrongly ran would leave a file behind.
    for (case, args, message) in [
        (
            "typo",
            &["--jbos", "4", "--sweep-json", "report.json"][..],
            "unknown argument '--jbos'",
        ),
        (
            "flag_typo",
            &["--jobs", "1", "--ful", "--sweep-json", "report.json"][..],
            "unknown argument '--ful'",
        ),
        (
            "positional",
            &["full", "--sweep-json", "report.json"][..],
            "unknown argument 'full'",
        ),
        (
            "zero_jobs",
            &["--jobs", "0", "--sweep-json", "report.json"][..],
            "--jobs: '0' is not a positive integer",
        ),
        (
            "missing_path",
            &["--sweep-json"][..],
            "--sweep-json requires a value",
        ),
    ] {
        assert_rejected(bin, case, args, message);
    }
}

#[test]
fn dse_frontier_rejects_bad_arguments_before_compiling() {
    let bin = env!("CARGO_BIN_EXE_dse_frontier");
    for (case, args, message) in [
        (
            "typo",
            &["--jbos", "4", "--json", "report.json"][..],
            "unknown argument '--jbos'",
        ),
        (
            "flag_typo",
            &["--ful", "--json", "report.json"][..],
            "unknown argument '--ful'",
        ),
        // Without a value the report must not fall back to BENCH_dse.json.
        ("missing_path", &["--json"][..], "--json requires a value"),
        (
            "flag_as_path",
            &["--json", "--full"][..],
            "--json requires a value",
        ),
        (
            "bad_seed",
            &["--seed", "x", "--json", "report.json"][..],
            "--seed: 'x' is not an integer",
        ),
        (
            "zero_budget",
            &["--budget", "0", "--json", "report.json"][..],
            "--budget: '0' is not a positive integer",
        ),
    ] {
        assert_rejected(bin, case, args, message);
    }
}

#[test]
fn figure_binaries_reject_a_mistyped_full_flag() {
    for bin in [
        env!("CARGO_BIN_EXE_fig11_iaca_ablation"),
        env!("CARGO_BIN_EXE_fig1_lenet_dse"),
    ] {
        assert_rejected(bin, "flag_typo", &["--ful"], "unknown argument '--ful'");
        assert_rejected(bin, "positional", &["full"], "unknown argument 'full'");
    }
}
