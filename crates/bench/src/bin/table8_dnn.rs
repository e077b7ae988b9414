//! Regenerates Table 8: DNN models compiled with HIDA vs DNNBuilder and ScaleHLS on
//! one VU9P SLR, reporting throughput and DSP efficiency.
//!
//! The independent HIDA compilations (one per model) fan out through the
//! [`SweepRunner`] pool; layers repeated across models (and within them) share
//! their QoR estimates through the cross-compilation cache. Per-point results
//! are identical to the old sequential loop — the merge order is
//! deterministic and the estimate cache is content-addressed. Compile time
//! is measured by the `bench-e2e` harness (`dnn-models` workload).

use hida::estimator::dataflow::DataflowEstimator;
use hida::ir::Context;
use hida::{FpgaDevice, HidaOptions, Model, SweepPoint, Workload};
use hida_bench::{print_throughput_table, Row, SweepRunner};

fn main() {
    let device = FpgaDevice::vu9p_slr();
    let jobs = hida::ir::default_jobs();
    let estimator = DataflowEstimator::new(device.clone()).with_jobs(jobs);
    let mut throughput_rows = Vec::new();
    let mut efficiency_rows = Vec::new();

    // All HIDA design points at once: one per model, pooled.
    let models = Model::table8();
    let runner =
        SweepRunner::new("table8-dnn").points(models.iter().map(|&model| {
            SweepPoint::new(model.name(), Workload::Model(model), HidaOptions::dnn())
        }));
    let outcome = runner.run(jobs);

    println!("# Table 8 — DNN models on one VU9P SLR");
    for (model, point) in models.iter().zip(&outcome.points) {
        let model = *model;
        let result = point.result.as_ref().expect("hida compilation");
        let hida_est = &result.estimate;

        // ScaleHLS baseline (only for the models it supports).
        let scalehls = if hida::baselines::scalehls::supports(model) {
            let mut ctx = Context::new();
            let module = ctx.create_module("scalehls");
            let func = hida::frontend::nn::build_model(&mut ctx, module, model);
            let schedule =
                hida::baselines::scalehls::compile(&mut ctx, func, &device, 64).expect("scalehls");
            Some(estimator.estimate_schedule(&ctx, schedule, true))
        } else {
            None
        };

        // DNNBuilder analytic model (only for the models it supports).
        let dnnbuilder =
            hida::baselines::dnnbuilder::estimate(model, hida_est.macs_per_sample, &device);

        println!(
            "{:<12} LUT {:<8} DSP {:<5} | hida {:>9.2} sps ({:>5.1}% eff) | dnnbuilder {} | scalehls {}",
            model.name(),
            hida_est.resources.lut,
            hida_est.resources.dsp,
            hida_est.throughput(),
            100.0 * hida_est.dsp_efficiency(),
            dnnbuilder
                .as_ref()
                .map(|d| format!("{:.2} sps ({:.1}% eff)", d.throughput(), 100.0 * d.dsp_efficiency()))
                .unwrap_or_else(|| "unsupported".into()),
            scalehls
                .as_ref()
                .map(|d| format!("{:.2} sps ({:.1}% eff)", d.throughput(), 100.0 * d.dsp_efficiency()))
                .unwrap_or_else(|| "unsupported".into()),
        );

        throughput_rows.push(Row {
            name: model.name().to_string(),
            columns: vec![
                ("HIDA".into(), Some(hida_est.throughput())),
                (
                    "DNNBuilder".into(),
                    dnnbuilder.as_ref().map(|d| d.throughput()),
                ),
                ("ScaleHLS".into(), scalehls.as_ref().map(|d| d.throughput())),
            ],
        });
        efficiency_rows.push(Row {
            name: model.name().to_string(),
            columns: vec![
                ("HIDA".into(), Some(hida_est.dsp_efficiency())),
                (
                    "DNNBuilder".into(),
                    dnnbuilder.as_ref().map(|d| d.dsp_efficiency()),
                ),
                (
                    "ScaleHLS".into(),
                    scalehls.as_ref().map(|d| d.dsp_efficiency()),
                ),
            ],
        });
    }
    print_throughput_table("Table 8 throughput (samples/s)", &throughput_rows);
    print_throughput_table("Table 8 DSP efficiency", &efficiency_rows);
    if let Some(cache) = &outcome.shared_cache {
        println!(
            "\nsweep: {} models ({} concurrent), estimate cache {cache}",
            outcome.points.len(),
            outcome.budget.pool_jobs
        );
    }
}
