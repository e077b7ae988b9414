//! `fig10_ablation` argument handling: an argument the binary does not know,
//! or a malformed value, must stop it with exit code 2 before any design
//! point compiles, instead of silently running the sweep with defaults.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_fig10_ablation");

#[test]
fn bad_arguments_exit_2_without_running_the_sweep() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    for (report, args, message) in [
        (
            "typo.json",
            &["--jbos", "4"][..],
            "unknown argument '--jbos'",
        ),
        (
            "flag_typo.json",
            &["--jobs", "1", "--ful"][..],
            "unknown argument '--ful'",
        ),
        ("positional.json", &["full"][..], "unknown argument 'full'"),
        (
            "zero_jobs.json",
            &["--jobs", "0"][..],
            "--jobs: '0' is not a positive integer",
        ),
    ] {
        // Each case gets its own report path, so a sweep that wrongly ran
        // would leave a file behind.
        let json = dir.join(report);
        let _ = std::fs::remove_file(&json);
        let output = Command::new(BIN)
            .args(args)
            .arg("--sweep-json")
            .arg(&json)
            .output()
            .expect("run fig10_ablation");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?} printed a report");
        assert!(!json.exists(), "{args:?} wrote {}", json.display());
    }
}
