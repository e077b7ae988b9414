//! Regenerates Figure 11: IA/CA parallelization ablation on ResNet-18.
//!
//! For each strategy (IA+CA, IA-only, CA-only, Naive) and each maximum parallel
//! factor, reports DSP count, BRAM count and throughput. Pass `--full` for the full
//! factor sweep.
//!
//! The ablation axis is a *pipeline string* built by the shared
//! [`hida_bench::variants::fig11`] helper: each variant is the full DNN flow
//! with the strategy carried in the `parallelize{mode=...}` pass option. The
//! design points fan out through the [`SweepRunner`] pool with cross-
//! compilation estimate sharing; per-point results are identical to the old
//! sequential loop by construction (the fig10 harness and CI enforce it).
//!
//! Any other argument is rejected with exit code 2 ([`hida_bench::cli`]).

use hida::{Compiler, HidaOptions, Model, ParallelMode, SweepPoint, Workload};
use hida_bench::cli::Cli;
use hida_bench::{variants, SweepRunner};

const CLI: Cli = Cli {
    usage: "usage: fig11_iaca_ablation [--full]",
    switches: &["--full"],
    valued: &[],
};

fn main() {
    let full = CLI.parse_env().switch("--full");
    let parallel_factors: Vec<i64> = if full {
        vec![1, 2, 4, 8, 16, 32, 64, 128, 256]
    } else {
        vec![4, 32, 64]
    };
    let modes = [
        ParallelMode::IaCa,
        ParallelMode::IaOnly,
        ParallelMode::CaOnly,
        ParallelMode::Naive,
    ];

    let mut runner = SweepRunner::new(if full { "fig11-full" } else { "fig11-reduced" });
    for &mode in &modes {
        for &pf in &parallel_factors {
            runner = runner.point(
                SweepPoint::new(
                    format!("{}-pf{pf}", mode.label()),
                    Workload::Model(Model::ResNet18),
                    HidaOptions::dnn(),
                )
                .with_pipeline(variants::fig11(mode, pf)),
            );
        }
    }
    let outcome = runner.run(hida::ir::default_jobs());

    println!("# Figure 11 — ResNet-18 IA/CA ablation (VU9P SLR)");
    println!("mode, parallel_factor, dsp, bram_18k, throughput_samples_per_s");
    let mut index = 0;
    for &mode in &modes {
        for &pf in &parallel_factors {
            let point = &outcome.points[index];
            index += 1;
            let result = point.result.as_ref().expect("resnet compilation");
            println!(
                "{}, {pf}, {}, {}, {:.3}",
                mode.label(),
                result.estimate.resources.dsp,
                result.estimate.resources.bram_18k,
                result.estimate.throughput()
            );
        }
    }
    if let Some(cache) = &outcome.shared_cache {
        println!(
            "\n# Sweep: {} points ({} concurrent), estimate cache {cache}",
            outcome.points.len(),
            outcome.budget.pool_jobs
        );
    }

    // The mode is plain pass configuration inside the pipeline string.
    let sample = variants::fig11(ParallelMode::CaOnly, 256);
    println!("\n# Pipeline of the CA-only variant\n{sample}");
    let result = Compiler::new(HidaOptions::dnn())
        .with_pipeline(sample)
        .compile(Workload::Model(Model::LeNet))
        .expect("lenet compilation");
    for stat in &result.pass_statistics {
        println!("{stat}");
    }
}
