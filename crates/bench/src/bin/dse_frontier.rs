//! Adaptive DSE benchmark: Pareto-frontier explorer vs the exhaustive grid.
//!
//! Runs the Figure 10 reduced grid (ResNet-18, parallel factor x tile size)
//! twice: once exhaustively through the sweep engine, and once through the
//! guided [`Explorer`], which pre-scores every candidate with a sound
//! surrogate bound and skips points that are already dominated. The two arms
//! use *separate* fresh estimate caches — sharing one would let the explorer's
//! probes hit the exhaustive arm's results and fake the savings.
//!
//! The report (`BENCH_dse.json`, override with `--json <path>`) extends the
//! `BENCH_sweep.json` schema with the discovered `frontier`, the per-generation
//! explorer counters, `compiles_saved` and `frontier_coverage`: the fraction
//! of the exhaustive grid's Pareto frontier the explorer recovered. The
//! process exits nonzero unless coverage is 1.0 with strictly fewer
//! compilations than the grid — the CI `dse` stage gates on exactly that.
//!
//! `--full` runs the paper's full 9x5 grid; `--budget <n>` caps the explorer's
//! compilations; `--seed <n>` reseeds the lattice walk; `--jobs <n>` caps the
//! total worker-thread budget of both arms. Any other argument is rejected
//! with exit code 2 ([`hida_bench::cli`]). The report carries no wall-clock:
//! the explorer's time against the exhaustive sweep is measured by
//! `bench-e2e --workload fig10-sweep --trace 1` (`explore.ms` against
//! `sweep.unshared_ms`).

use hida::sweep::{json_escape, JobBudget, SweepEngine, SweepPoint};
use hida::{
    ExploreConfig, Explorer, Frontier, FrontierPoint, HidaOptions, Model, Objective, Workload,
};
use hida_bench::cli::{self, Cli};
use hida_bench::variants;

const CLI: Cli = Cli {
    usage: "usage: dse_frontier [--full] [--jobs <n>] [--seed <n>] [--budget <n>] [--json <path>]",
    switches: &["--full"],
    valued: &["--jobs", "--seed", "--budget", "--json"],
};

fn main() {
    let args = CLI.parse_env();
    let full = args.switch("--full");
    let json_path = args.value("--json").unwrap_or("BENCH_dse.json");
    let jobs = cli::or_exit(args.positive("--jobs")).unwrap_or_else(hida::ir::default_jobs);
    let seed = cli::or_exit(args.integer("--seed")).unwrap_or(0);
    let budget = cli::or_exit(args.positive("--budget"));

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
    let mut points = Vec::new();
    for &pf in &parallel_factors {
        for &tile in &tile_sizes {
            points.push(
                SweepPoint::new(
                    format!("pf{pf}-tile{tile}"),
                    Workload::Model(Model::ResNet18),
                    HidaOptions::dnn(),
                )
                .with_pipeline(variants::fig10(pf, tile)),
            );
        }
    }
    let grid = if full {
        "dse-fig10-full"
    } else {
        "dse-fig10-reduced"
    };
    let objectives = vec![Objective::Throughput, Objective::Dsp, Objective::Bram];

    println!("# Adaptive DSE — explorer vs exhaustive Figure 10 grid ({grid})");
    println!("# {} grid points, jobs {jobs}, seed {seed}", points.len());

    // Exhaustive arm: every grid point compiles through the sweep pool with a
    // fresh in-process estimate cache.
    let exhaustive = SweepEngine::new()
        .with_budget(JobBudget::for_points(jobs, points.len()))
        .run(&points);
    if !exhaustive.all_ok() {
        eprintln!(
            "error: exhaustive arm failed points: {}",
            exhaustive.failed_labels().join(", ")
        );
        std::process::exit(1);
    }
    let mut exhaustive_frontier = Frontier::new();
    for point in &exhaustive.points {
        let result = point.result.as_ref().expect("checked all_ok");
        exhaustive_frontier.insert(FrontierPoint {
            label: point.label.clone(),
            pipeline: point.pipeline.clone(),
            objectives: objectives
                .iter()
                .map(|o| o.value(&result.estimate))
                .collect(),
            throughput: result.estimate.throughput(),
            dsp: result.estimate.resources.dsp,
            bram_18k: result.estimate.resources.bram_18k,
            generation: 0,
        });
    }

    // Explorer arm: separate fresh cache, guided walk over the same lattice.
    let config = ExploreConfig {
        budget,
        seed,
        objectives: objectives.clone(),
        ..ExploreConfig::default()
    };
    let explored = match Explorer::new(config).with_total_jobs(jobs).explore(&points) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: explorer: {e}");
            std::process::exit(1);
        }
    };
    if !explored.all_ok() {
        eprintln!(
            "error: explorer arm failed points: {}",
            explored.failed_labels().join(", ")
        );
        std::process::exit(1);
    }

    // Both arms compile the same designs against the same device: any label
    // compiled by both must agree on the objective vector exactly (the sweep
    // engine's results are byte-identical at any job split).
    let qor_identical = explored.points.iter().all(|point| {
        let result = point.result.as_ref().expect("checked all_ok");
        let vector: Vec<i64> = objectives
            .iter()
            .map(|o| o.value(&result.estimate))
            .collect();
        exhaustive
            .points
            .iter()
            .find(|p| p.label == point.label)
            .and_then(|p| p.result.as_ref().ok())
            .is_some_and(|r| {
                let reference: Vec<i64> = objectives.iter().map(|o| o.value(&r.estimate)).collect();
                reference == vector
            })
    });

    let explorer_vectors = explored.frontier.vectors();
    let reference_vectors = exhaustive_frontier.vectors();
    let recovered = reference_vectors
        .iter()
        .filter(|v| explorer_vectors.contains(v))
        .count();
    let coverage = recovered as f64 / reference_vectors.len().max(1) as f64;
    let compiles_saved = explored.compiles_saved();

    println!(
        "\n# Exhaustive frontier ({} of {} points)",
        exhaustive_frontier.len(),
        points.len()
    );
    for p in exhaustive_frontier.points() {
        println!(
            "  {}: throughput {:.3} samples/s, DSP {}, BRAM-18K {}",
            p.label, p.throughput, p.dsp, p.bram_18k
        );
    }
    println!("\n# Explorer");
    for g in &explored.generations {
        println!(
            "generation {}: proposed {}, pruned by surrogate {}, compiled {}, frontier {}",
            g.index, g.proposed, g.pruned, g.compiled, g.frontier_size
        );
    }
    println!(
        "compiled {} of {} candidates ({} saved), frontier {} points, coverage {:.1}%",
        explored.points.len(),
        explored.num_candidates,
        compiles_saved,
        explored.frontier.len(),
        100.0 * coverage
    );

    let frontier_json: Vec<String> = explored
        .frontier
        .points()
        .iter()
        .map(|p| {
            let vector: Vec<String> = p.objectives.iter().map(i64::to_string).collect();
            format!(
                "{{\"label\":\"{}\",\"objectives\":[{}],\"throughput\":{:.3},\
                 \"dsp\":{},\"bram_18k\":{},\"generation\":{}}}",
                json_escape(&p.label),
                vector.join(","),
                p.throughput,
                p.dsp,
                p.bram_18k,
                p.generation
            )
        })
        .collect();
    let generations_json: Vec<String> = explored
        .generations
        .iter()
        .map(|g| {
            format!(
                "{{\"index\":{},\"proposed\":{},\"pruned\":{},\"compiled\":{},\
                 \"failed\":{},\"frontier_size\":{}}}",
                g.index, g.proposed, g.pruned, g.compiled, g.failed, g.frontier_size
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"sweep\": \"{grid}\",\n  \"available_parallelism\": {},\n  \"jobs\": {jobs},\n  \
         \"seed\": {seed},\n  \"num_grid_points\": {},\n  \"exhaustive_frontier_size\": {},\n  \
         \"compiled_points\": {},\n  \"compiles_saved\": {compiles_saved},\n  \
         \"pruned_by_surrogate\": {},\n  \"frontier_coverage\": {coverage:.3},\n  \
         \"qor_identical\": {qor_identical},\n  \"generations\": [{}],\n  \"frontier\": [{}]\n}}",
        std::thread::available_parallelism().map_or(1, usize::from),
        points.len(),
        exhaustive_frontier.len(),
        explored.points.len(),
        explored.pruned,
        generations_json.join(","),
        frontier_json.join(","),
    );
    match std::fs::write(json_path, format!("{json}\n")) {
        Ok(()) => println!("dse report written to {json_path}"),
        Err(e) => eprintln!("error: could not write {json_path}: {e}"),
    }

    if coverage < 1.0 {
        eprintln!(
            "error: explorer recovered {recovered} of {} frontier points",
            reference_vectors.len()
        );
        std::process::exit(1);
    }
    if explored.points.len() >= points.len() {
        eprintln!(
            "error: explorer compiled {} of {} grid points — no compilations saved",
            explored.points.len(),
            points.len()
        );
        std::process::exit(1);
    }
    if !qor_identical {
        eprintln!("error: explorer and exhaustive arms disagree on a compiled point's QoR");
        std::process::exit(1);
    }
}
