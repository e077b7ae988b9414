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
//! the per-point QoR and cache-traffic summary is written to
//! `BENCH_sweep.json` (override with `--sweep-json <path>`). `--jobs <n>` caps
//! the sweep's total worker-thread budget. Compile time is measured by the
//! `bench-e2e` harness, not here.
//!
//! Any other argument is rejected with exit code 2 ([`hida_bench::cli`]), so
//! a typo such as `--jbos 4` cannot silently run with defaults.

use hida::{HidaOptions, Model, SweepPoint, Workload};
use hida_bench::cli::{self, Cli};
use hida_bench::{variants, SweepRunner};

const CLI: Cli = Cli {
    usage: "usage: fig10_ablation [--full] [--jobs <n>] [--sweep-json <path>]",
    switches: &["--full"],
    valued: &["--jobs", "--sweep-json"],
};

fn main() {
    let args = CLI.parse_env();
    let full = args.switch("--full");
    let jobs = cli::or_exit(args.positive("--jobs")).unwrap_or_else(hida::ir::default_jobs);
    let json_path = args.value("--sweep-json").unwrap_or("BENCH_sweep.json");

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

    println!("\n# Per-pass statistics (last design point)");
    for stat in last_statistics {
        println!("{stat}");
    }

    comparison.print_summary();
    match comparison.write_json(json_path) {
        Ok(()) => println!("sweep report written to {json_path}"),
        Err(e) => eprintln!("error: could not write {json_path}: {e}"),
    }
    if !comparison.qor_identical() {
        std::process::exit(1);
    }
}
