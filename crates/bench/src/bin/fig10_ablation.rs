//! Regenerates Figure 10: parallel factor and tile size ablation on ResNet-18.
//!
//! Sweeps the maximum parallel factor and the tile size, reporting DSP count, BRAM
//! count and throughput for every combination. Pass `--full` for the paper's full
//! sweep (parallel factor 1-256, tile 2-32); the default uses a reduced grid.
//!
//! Every ablation variant is a *pipeline string* handed to the pass registry —
//! the same text the `hida-opt` CLI accepts — built by the shared
//! [`hida_bench::variants::fig10`] helper. The design points run through the
//! [`SweepRunner`]: a pooled, estimate-sharing sweep is compared against the
//! sequential share-nothing loop (byte-identical per-point QoR enforced), and
//! the wall-clock/speedup/cache-traffic summary is written to
//! `BENCH_sweep.json` (override with `--sweep-json <path>`). `--jobs <n>` caps
//! the sweep's total worker-thread budget.
//!
//! Any other argument is rejected with exit code 2, so a typo such as
//! `--jbos 4` cannot silently run with defaults.

use hida::{HidaOptions, Model, SweepPoint, Workload};
use hida_bench::{variants, SweepRunner};

const USAGE: &str = "usage: fig10_ablation [--full] [--jobs <n>] [--sweep-json <path>]";

/// The parsed command line.
struct Args {
    full: bool,
    jobs: usize,
    json_path: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        full: false,
        jobs: hida::ir::default_jobs(),
        json_path: "BENCH_sweep.json".to_string(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--full" => args.full = true,
            "--sweep-json" => args.json_path = value_of("--sweep-json")?,
            "--jobs" => {
                let raw = value_of("--jobs")?;
                args.jobs = match raw.parse() {
                    Ok(jobs) if jobs >= 1 => jobs,
                    _ => return Err(format!("--jobs: '{raw}' is not a positive integer")),
                };
            }
            other => return Err(format!("unknown argument '{other}' ({USAGE})")),
        }
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        full,
        jobs,
        json_path,
    } = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };

    let parallel_factors: Vec<i64> = if full {
        vec![1, 2, 4, 8, 16, 32, 64, 128, 256]
    } else {
        vec![1, 8, 64, 256]
    };
    let tile_sizes: Vec<i64> = if full {
        vec![2, 4, 8, 16, 32]
    } else {
        vec![2, 8, 32]
    };

    let mut runner = SweepRunner::new(if full { "fig10-full" } else { "fig10-reduced" });
    for &pf in &parallel_factors {
        for &tile in &tile_sizes {
            runner = runner.point(
                SweepPoint::new(
                    format!("pf{pf}-tile{tile}"),
                    Workload::Model(Model::ResNet18),
                    HidaOptions::dnn(),
                )
                .with_pipeline(variants::fig10(pf, tile)),
            );
        }
    }

    println!("# Figure 10 — ResNet-18 parallel factor x tile size ablation (VU9P SLR)");
    println!("# variant pipeline: {}", variants::fig10(256, 32));
    let comparison = runner.compare(jobs);

    println!("parallel_factor, tile_size, dsp, bram_18k, throughput_samples_per_s");
    let mut last_statistics = &Vec::new();
    let mut index = 0;
    for &pf in &parallel_factors {
        for &tile in &tile_sizes {
            let point = &comparison.outcome.points[index];
            index += 1;
            let result = point.result.as_ref().expect("resnet compilation");
            println!(
                "{pf}, {tile}, {}, {}, {:.3}",
                result.estimate.resources.dsp,
                result.estimate.resources.bram_18k,
                result.estimate.throughput()
            );
            last_statistics = &result.pass_statistics;
        }
    }

    println!("\n# Per-pass compile-time breakdown (last design point)");
    for stat in last_statistics {
        println!("{stat}");
    }

    comparison.print_summary();
    match comparison.write_json(&json_path) {
        Ok(()) => println!("sweep report written to {json_path}"),
        Err(e) => eprintln!("error: could not write {json_path}: {e}"),
    }
    if !comparison.qor_identical() {
        std::process::exit(1);
    }
}
