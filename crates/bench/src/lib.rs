//! Shared helpers for the benchmark harnesses that regenerate every table and figure
//! of the paper's evaluation (see DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for recorded results).
//!
//! Beyond table printing, this crate hosts the pieces every bench binary now
//! shares instead of re-implementing:
//!
//! * [`cli`] — the argument parser of the binaries that take arguments, which
//!   rejects unknown or malformed arguments with exit code 2,
//! * [`variants`] — the pipeline-string builders behind the figure/table
//!   ablations (one source of truth for the swept flows),
//! * [`SweepRunner`] — the harness that drives a list of design points
//!   through the sweep engine ([`hida::SweepEngine`]), checks the pooled
//!   shared-cache run against the sequential share-nothing loop, and emits
//!   the `BENCH_sweep.json` QoR and cache-traffic report.
//!
//! The binaries take no timings of their own: compile time is measured by the
//! `bench-e2e` harness at the repository root.

pub mod cli;
pub mod variants;

mod sweep_runner;
pub use sweep_runner::{SweepComparison, SweepRunner};

use hida::{DesignEstimate, FpgaDevice};

/// One row of a printed comparison table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name (kernel or model).
    pub name: String,
    /// Labelled throughput columns, in samples per second.
    pub columns: Vec<(String, Option<f64>)>,
}

/// Prints a markdown-style table with a throughput column per flow plus speedup
/// ratios of the first column over the others.
pub fn print_throughput_table(title: &str, rows: &[Row]) {
    println!("\n## {title}\n");
    if rows.is_empty() {
        return;
    }
    let headers: Vec<String> = rows[0].columns.iter().map(|(h, _)| h.clone()).collect();
    println!("| workload | {} |", headers.join(" | "));
    println!(
        "|---|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        let cells: Vec<String> = row
            .columns
            .iter()
            .map(|(_, v)| match v {
                Some(x) => format!("{x:.2}"),
                None => "-".to_string(),
            })
            .collect();
        println!("| {} | {} |", row.name, cells.join(" | "));
    }
    // Geometric-mean speedups of column 0 over every other column.
    for other in 1..headers.len() {
        let ratios: Vec<f64> = rows
            .iter()
            .filter_map(|r| match (r.columns[0].1, r.columns[other].1) {
                (Some(a), Some(b)) if b > 0.0 => Some(a / b),
                _ => None,
            })
            .collect();
        if !ratios.is_empty() {
            println!(
                "geomean speedup of {} over {}: {:.2}x ({} workloads)",
                headers[0],
                headers[other],
                geomean(&ratios),
                ratios.len()
            );
        }
    }
}

/// Geometric mean of a slice of positive numbers.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Formats a design estimate as one summary line.
pub fn summary_line(label: &str, estimate: &DesignEstimate, device: &FpgaDevice) -> String {
    format!(
        "{label}: {:.2} samples/s, DSP {}({:.0}%), BRAM {}({:.0}%), LUT {}, eff {:.1}%",
        estimate.throughput(),
        estimate.resources.dsp,
        100.0 * estimate.resources.dsp as f64 / device.dsp.max(1) as f64,
        estimate.resources.bram_18k,
        100.0 * estimate.resources.bram_18k as f64 / device.bram_18k.max(1) as f64,
        estimate.resources.lut,
        100.0 * estimate.dsp_efficiency()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn rows_print_without_panicking() {
        print_throughput_table(
            "test",
            &[Row {
                name: "k".into(),
                columns: vec![
                    ("hida".into(), Some(2.0)),
                    ("vitis".into(), Some(1.0)),
                    ("none".into(), None),
                ],
            }],
        );
    }
}
