//! Regenerates Table 7: PolyBench C++ kernels compiled with HIDA vs the ScaleHLS,
//! SOFF and Vitis-only baselines on the ZU3EG device.
//!
//! The independent HIDA compilations (one per kernel) fan out through the
//! [`SweepRunner`] pool with cross-compilation estimate sharing; the analytic
//! baselines then run sequentially against the same estimator. Compile time
//! is measured by the `bench-e2e` harness (`polybench-text` workload).

use hida::estimator::dataflow::DataflowEstimator;
use hida::ir::Context;
use hida::{FpgaDevice, HidaOptions, PolybenchKernel, SweepPoint, Workload};
use hida_bench::{print_throughput_table, Row, SweepRunner};

fn main() {
    let device = FpgaDevice::zu3eg();
    let estimator = DataflowEstimator::new(device.clone());
    let mut rows = Vec::new();

    // All HIDA design points at once: one per kernel, pooled.
    let kernels = PolybenchKernel::all();
    let runner = SweepRunner::new("table7-polybench").points(kernels.iter().map(|&kernel| {
        SweepPoint::new(
            kernel.name(),
            Workload::PolybenchSized(kernel, kernel.default_size()),
            HidaOptions::polybench(),
        )
    }));
    let outcome = runner.run(hida::ir::default_jobs());

    println!("# Table 7 — PolyBench kernels on ZU3EG (throughput in samples/s)");
    for (kernel, point) in kernels.iter().zip(&outcome.points) {
        let kernel = *kernel;
        let n = kernel.default_size();
        let result = point.result.as_ref().expect("hida compilation");
        let hida_est = &result.estimate;

        // ScaleHLS-style baseline.
        let mut ctx = Context::new();
        let module = ctx.create_module("scalehls");
        let func = hida::frontend::polybench::build_kernel(&mut ctx, module, kernel, n);
        let scale_schedule =
            hida::baselines::scalehls::compile(&mut ctx, func, &device, 16).expect("scalehls");
        let scale_est = estimator.estimate_schedule(&ctx, scale_schedule, true);

        // SOFF-style baseline.
        let mut ctx = Context::new();
        let module = ctx.create_module("soff");
        let func = hida::frontend::polybench::build_kernel(&mut ctx, module, kernel, n);
        let soff_est = hida::baselines::soff::estimate(&mut ctx, func, &device);

        // Vitis-only baseline.
        let mut ctx = Context::new();
        let module = ctx.create_module("vitis");
        let func = hida::frontend::polybench::build_kernel(&mut ctx, module, kernel, n);
        let vitis_est = hida::baselines::vitis::estimate(&mut ctx, func, &device);

        println!(
            "{:<12} LUT {:<7} FF {:<7} DSP {:<4} | hida {:>12.2}  scalehls {:>12.2}  soff {:>12.2}  vitis {:>12.2}",
            kernel.name(),
            hida_est.resources.lut,
            hida_est.resources.ff,
            hida_est.resources.dsp,
            hida_est.throughput(),
            scale_est.throughput(),
            soff_est.throughput(),
            vitis_est.throughput(),
        );
        rows.push(Row {
            name: kernel.name().to_string(),
            columns: vec![
                ("HIDA".into(), Some(hida_est.throughput())),
                ("ScaleHLS".into(), Some(scale_est.throughput())),
                ("SOFF".into(), Some(soff_est.throughput())),
                ("Vitis".into(), Some(vitis_est.throughput())),
            ],
        });
    }
    print_throughput_table("Table 7 summary", &rows);
    if let Some(cache) = &outcome.shared_cache {
        println!(
            "\nsweep: {} kernels ({} concurrent), estimate cache {cache}",
            outcome.points.len(),
            outcome.budget.pool_jobs
        );
    }
}
