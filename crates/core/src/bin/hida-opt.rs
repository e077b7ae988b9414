//! `hida-opt` — run a textual HIDA-OPT pass pipeline over a built-in workload.
//!
//! The CLI counterpart of `Pipeline::parse`: ablations are command-line strings
//! instead of recompiled bench binaries.
//!
//! ```text
//! hida-opt --list-passes
//! hida-opt --list-workloads
//! hida-opt --workload two_mm \
//!     --pipeline "construct,fusion,lower,multi-producer-elim,tiling{factor=4},balance,parallelize"
//! hida-opt --workload lenet --preset dnn
//! hida-opt --workload resnet-18 --sweep variants.txt --jobs 8
//! ```
//!
//! Prints the normalized pipeline, per-pass `PassStatistics`, the resulting
//! schedule (nodes, unroll factors, buffers) and the estimated QoR. With
//! `--sweep <file>` (one pipeline string per line), every line becomes an
//! independent design point of the workload: the points fan out over the
//! sweep engine's pool and share per-node QoR estimates through the
//! content-addressed cross-compilation cache, with `--jobs` as the total
//! worker-thread budget.

use hida::sweep::{json_escape, JobBudget, SweepEngine, SweepOutcome, SweepPoint};
use hida::{ExploreConfig, ExploreOutcome, Explorer, SharedCacheStats, Workload};
use hida_dialects::analysis::ComputeProfile;
use hida_estimator::dataflow::DataflowEstimator;
use hida_estimator::device::FpgaDevice;
use hida_frontend::nn::Model;
use hida_frontend::polybench::PolybenchKernel;
use hida_ir_core::fault::{self, FaultPlan};
use hida_ir_core::pass::PassStatistics;
use hida_ir_core::{AnalysisCacheStats, Context, OpId};
use hida_opt::registry::{registry, registry_listing};
use hida_opt::{HidaOptions, Pipeline};
use std::process::ExitCode;

const USAGE: &str = "\
usage: hida-opt [OPTIONS]

  --workload <name>     workload to compile (see --list-workloads); accepts
                        paper names (2mm, resnet-18) and identifiers (two_mm)
  --input <file.hir>    compile a module from textual IR instead of a built-in
                        workload (exclusive with --workload; grammar in
                        docs/IR_SYNTAX.md). The file's first func.func is the
                        workload function; works with --pipeline, --sweep and
                        --explore alike
  --emit-ir <file>      write the workload module as textual IR before the
                        pipeline runs (single compilations only); the output
                        re-parses with --input to the same design
  --pipeline <text>     textual pass pipeline, e.g.
                        \"construct,fusion,lower,tiling{factor=4},parallelize\"
  --preset <name>       pipeline preset when --pipeline is omitted:
                        default | polybench | dnn
  --sweep <file>        run every non-empty, non-# line of <file> as an
                        independent pipeline variant of the workload: the
                        design points compile concurrently on the sweep pool
                        and share per-node QoR estimates through the
                        content-addressed cross-compilation cache
  --explore <file>      guided design-space exploration over the same sweep
                        grammar: pipeline lines span a knob lattice, and a
                        Pareto-frontier explorer compiles only candidates
                        whose surrogate QoR bound is not already dominated.
                        An optional first line configures the search:
                        explore{budget=N,seed=N,objectives=throughput+dsp+bram,
                        extras=N,max-generations=N}. Exploration order is
                        deterministic for a fixed seed at any --jobs
  --size <n>            PolyBench problem size (default: the kernel's own)
  --jobs <n>            worker threads for per-node pass work and QoR
                        estimation; under --sweep, the total budget split
                        between concurrent points and per-point workers
                        (default: available parallelism; 1 = fully
                        sequential, bitwise-reproducible execution)
  --device <name>       device for QoR estimation: pynq-z2 | zu3eg | vu9p-slr
                        (default: the pipeline's parallelize device, else
                        vu9p-slr)
  --deadline-ms <n>     per-point wall-clock deadline in milliseconds: a point
                        that exceeds it is cancelled at the next checkpoint
                        and reported as timed-out; under --sweep the run
                        continues and the reclaimed workers widen later points
  --retries <n>         retry failed sweep/explore points up to <n> times with
                        degraded settings (1 worker, verification forced on,
                        shared cache bypassed); a point that never converges
                        reports its full attempt history
  --run-budget-ms <n>   whole-run wall-clock budget under --sweep: when it
                        expires, in-flight points are cancelled at their next
                        checkpoint and remaining retries are skipped
  --inject-faults <s>   deterministic chaos testing: arm faults at named sites
                        from a seeded plan, e.g.
                        \"seed=7,pass-panic=1,stall=1,stall-ms=200\"
                        (add 'transient' to fire faults only on the first
                        attempt, so --retries can recover the point); which
                        points fault depends only on the seed and the point
                        labels, never on --jobs
  --no-verify           skip inter-pass IR verification
  --no-timing           omit timing and machine/state-dependent counters
                        (pass micros, jobs, cache traffic, wall-clock) so the
                        report is byte-stable across runs and job counts —
                        what CI diffs for determinism
  --stats-json          emit per-pass statistics (timing, op deltas, analysis
                        + estimator cache hits/misses; under --sweep, the
                        per-point QoR and aggregated cross-compilation cache
                        counters) as one JSON object on stdout; the
                        human-readable report moves to stderr
  --list-passes         print the pass registry and exit
  --list-workloads      print the known workloads and exit
  --help                print this help and exit";

/// A workload resolvable from the command line.
enum CliWorkload {
    Polybench(PolybenchKernel),
    Model(Model),
}

/// Lowercased name with separators removed, so `two_mm`, `TwoMm` and `2mm`
/// collapse onto comparable keys.
fn normalize(name: &str) -> String {
    name.to_lowercase()
        .chars()
        .filter(|c| *c != '-' && *c != '_')
        .collect()
}

/// Additional spellings accepted for kernels whose paper name starts with a digit.
fn kernel_aliases(kernel: PolybenchKernel) -> &'static [&'static str] {
    match kernel {
        PolybenchKernel::TwoMm => &["twomm"],
        PolybenchKernel::ThreeMm => &["threemm"],
        _ => &[],
    }
}

fn resolve_workload(name: &str) -> Option<CliWorkload> {
    let key = normalize(name);
    for kernel in PolybenchKernel::all() {
        if normalize(kernel.name()) == key || kernel_aliases(kernel).contains(&key.as_str()) {
            return Some(CliWorkload::Polybench(kernel));
        }
    }
    Model::all()
        .into_iter()
        .find(|m| normalize(m.name()) == key)
        .map(CliWorkload::Model)
}

fn workload_listing() -> String {
    let kernels: Vec<&str> = PolybenchKernel::all().iter().map(|k| k.name()).collect();
    let models: Vec<&str> = Model::all().iter().map(|m| m.name()).collect();
    format!(
        "PolyBench kernels: {}\nDNN models:        {}",
        kernels.join(", "),
        models.join(", ")
    )
}

/// What the CLI was asked to compile: a built-in workload or a `.hir` file.
enum CliSource {
    Builtin(CliWorkload),
    TextIr { name: String, text: String },
}

/// Resolves `--workload`/`--input` (exclusive) into a compile source.
///
/// `--input` files are parsed here so syntax errors surface with line/column
/// before any compilation machinery spins up.
fn resolve_source(args: &Args) -> Result<CliSource, String> {
    match (&args.input, &args.workload) {
        (Some(_), Some(_)) => Err("--input and --workload are exclusive".to_string()),
        (Some(path), None) => {
            if args.size.is_some() {
                return Err("--size applies to built-in workloads, not --input".to_string());
            }
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("--input: cannot read '{path}': {e}"))?;
            hida_ir_core::parse_module(&text).map_err(|e| format!("--input '{path}': {e}"))?;
            let name = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("input")
                .to_string();
            Ok(CliSource::TextIr { name, text })
        }
        (None, Some(workload_name)) => resolve_workload(workload_name)
            .map(CliSource::Builtin)
            .ok_or_else(|| format!("unknown workload '{workload_name}'\n{}", workload_listing())),
        (None, None) => Err("missing --workload or --input (try --list-workloads)".to_string()),
    }
}

/// The name reported in JSON output: the raw `--workload` spelling (what the
/// user typed, kept byte-stable) or the `--input` file stem.
fn source_name(source: &CliSource, args: &Args) -> String {
    match source {
        CliSource::TextIr { name, .. } => name.clone(),
        CliSource::Builtin(_) => args
            .workload
            .clone()
            .expect("builtin source has --workload"),
    }
}

/// Converts a resolved source into the compiler's `Workload` plus the
/// human-readable report line describing it.
fn source_workload(source: CliSource, args: &Args) -> (Workload, String) {
    match source {
        CliSource::Builtin(CliWorkload::Polybench(kernel)) => {
            let size = args.size.unwrap_or_else(|| kernel.default_size());
            (
                Workload::PolybenchSized(kernel, size),
                format!("workload: {} (PolyBench, size {size})", kernel.name()),
            )
        }
        CliSource::Builtin(CliWorkload::Model(model)) => (
            Workload::Model(model),
            format!("workload: {} (DNN model)", model.name()),
        ),
        CliSource::TextIr { name, text } => {
            let line = format!("workload: {name} (textual IR)");
            (Workload::text_ir(name, text), line)
        }
    }
}

#[derive(Default)]
struct Args {
    workload: Option<String>,
    input: Option<String>,
    emit_ir: Option<String>,
    pipeline: Option<String>,
    preset: Option<String>,
    sweep: Option<String>,
    explore: Option<String>,
    size: Option<i64>,
    jobs: Option<usize>,
    device: Option<String>,
    deadline_ms: Option<u64>,
    retries: Option<usize>,
    run_budget_ms: Option<u64>,
    inject_faults: Option<String>,
    no_verify: bool,
    no_timing: bool,
    stats_json: bool,
    list_passes: bool,
    list_workloads: bool,
    help: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value_of("--workload")?),
            "--input" => args.input = Some(value_of("--input")?),
            "--emit-ir" => args.emit_ir = Some(value_of("--emit-ir")?),
            "--pipeline" => args.pipeline = Some(value_of("--pipeline")?),
            "--preset" => args.preset = Some(value_of("--preset")?),
            "--sweep" => args.sweep = Some(value_of("--sweep")?),
            "--explore" => args.explore = Some(value_of("--explore")?),
            "--size" => {
                let raw = value_of("--size")?;
                let size: i64 = raw
                    .parse()
                    .map_err(|_| format!("--size: '{raw}' is not an integer"))?;
                if size < 4 {
                    return Err(format!("--size: {size} must be >= 4"));
                }
                args.size = Some(size);
            }
            "--jobs" => {
                let raw = value_of("--jobs")?;
                let jobs: usize = raw
                    .parse()
                    .map_err(|_| format!("--jobs: '{raw}' is not an integer"))?;
                if jobs < 1 {
                    return Err("--jobs: must be >= 1".to_string());
                }
                args.jobs = Some(jobs);
            }
            "--device" => args.device = Some(value_of("--device")?),
            "--deadline-ms" => {
                let raw = value_of("--deadline-ms")?;
                let ms: u64 = raw
                    .parse()
                    .map_err(|_| format!("--deadline-ms: '{raw}' is not an integer"))?;
                if ms < 1 {
                    return Err("--deadline-ms: must be >= 1".to_string());
                }
                args.deadline_ms = Some(ms);
            }
            "--retries" => {
                let raw = value_of("--retries")?;
                let retries: usize = raw
                    .parse()
                    .map_err(|_| format!("--retries: '{raw}' is not an integer"))?;
                args.retries = Some(retries);
            }
            "--run-budget-ms" => {
                let raw = value_of("--run-budget-ms")?;
                let ms: u64 = raw
                    .parse()
                    .map_err(|_| format!("--run-budget-ms: '{raw}' is not an integer"))?;
                if ms < 1 {
                    return Err("--run-budget-ms: must be >= 1".to_string());
                }
                args.run_budget_ms = Some(ms);
            }
            "--inject-faults" => args.inject_faults = Some(value_of("--inject-faults")?),
            "--no-verify" => args.no_verify = true,
            "--no-timing" => args.no_timing = true,
            "--stats-json" => args.stats_json = true,
            "--list-passes" => args.list_passes = true,
            "--list-workloads" => args.list_workloads = true,
            "--help" | "-h" => args.help = true,
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    Ok(args)
}

fn preset_text(preset: &str) -> Result<String, String> {
    let options = match preset {
        "default" => HidaOptions::default(),
        "polybench" => HidaOptions::polybench(),
        "dnn" => HidaOptions::dnn(),
        other => {
            return Err(format!(
                "unknown preset '{other}' (default, polybench, dnn)"
            ))
        }
    };
    Ok(options.pipeline_text())
}

fn cache_json(cache: &AnalysisCacheStats) -> String {
    format!(
        "{{\"hits\":{},\"misses\":{},\"invalidations\":{},\"preserved\":{}}}",
        cache.hits, cache.misses, cache.invalidations, cache.preserved
    )
}

fn parallel_json(parallel: Option<&hida_ir_core::ParallelStats>) -> String {
    match parallel {
        Some(p) => format!(
            "{{\"workers\":{},\"items\":{},\"steals\":{},\"imbalance\":{}}}",
            p.workers,
            p.items,
            p.steals,
            p.imbalance()
        ),
        None => "null".to_string(),
    }
}

fn shared_cache_json(shared: &SharedCacheStats) -> String {
    format!(
        "{{\"hits\":{},\"misses\":{},\"entries\":{},\"hit_rate\":{:.3}}}",
        shared.hits,
        shared.misses,
        shared.entries,
        shared.hit_rate()
    )
}

/// Parses `--inject-faults` into a seeded plan; empty plans (no armed faults)
/// collapse to `None` so the zero-cost fast path stays active.
fn parse_fault_plan(args: &Args) -> Result<Option<FaultPlan>, String> {
    match &args.inject_faults {
        None => Ok(None),
        Some(spec) => {
            let plan = FaultPlan::parse(spec).map_err(|e| format!("--inject-faults: {e}"))?;
            Ok(if plan.is_empty() { None } else { Some(plan) })
        }
    }
}

/// Renders one pass's statistics without timing or cache/worker counters:
/// only fields that are byte-stable across runs and job counts survive, so
/// `--no-timing` output can be diffed directly.
fn stable_stat(stat: &PassStatistics) -> String {
    let mut out = format!(
        "{}: ops {} -> {} ({:+})",
        stat.pass,
        stat.live_ops_before,
        stat.live_ops_after,
        stat.op_delta()
    );
    if !stat.options.is_empty() {
        let rendered: Vec<String> = stat.options.iter().map(|o| o.to_string()).collect();
        out.push_str(&format!(" [{}]", rendered.join(", ")));
    }
    if stat.failed {
        out.push_str(" FAILED");
    }
    out
}

/// Renders the per-pass statistics (and their aggregate analysis-cache
/// counters, plus the QoR estimator's cache when estimation ran) as one
/// machine-readable JSON object for the CI ablation matrix.
fn stats_json(
    workload: &str,
    pipeline_text: &str,
    statistics: &[PassStatistics],
    estimator_cache: Option<&AnalysisCacheStats>,
) -> String {
    let totals = PassStatistics::aggregate_cache(statistics);
    let passes: Vec<String> = statistics
        .iter()
        .map(|stat| {
            let options: Vec<String> = stat
                .options
                .iter()
                .map(|o| {
                    format!(
                        "{{\"name\":\"{}\",\"value\":\"{}\"}}",
                        json_escape(&o.name),
                        json_escape(&o.value)
                    )
                })
                .collect();
            format!(
                "{{\"pass\":\"{}\",\"micros\":{},\"live_ops_before\":{},\"live_ops_after\":{},\
                 \"op_delta\":{},\"verified\":{},\"failed\":{},\"cache\":{},\"parallel\":{},\
                 \"options\":[{}]}}",
                json_escape(&stat.pass),
                stat.micros,
                stat.live_ops_before,
                stat.live_ops_after,
                stat.op_delta(),
                stat.verified,
                stat.failed,
                cache_json(&stat.cache),
                parallel_json(stat.parallel.as_ref()),
                options.join(",")
            )
        })
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"pipeline\":\"{}\",\"passes\":[{}],\
         \"analysis_cache_totals\":{},\"estimator_cache\":{}}}",
        json_escape(workload),
        json_escape(pipeline_text),
        passes.join(","),
        cache_json(&totals),
        estimator_cache.map_or_else(|| "null".to_string(), cache_json),
    )
}

/// Renders a sweep's per-point QoR and the aggregated cross-compilation cache
/// counters as one machine-readable JSON object.
fn sweep_json(workload: &str, outcome: &SweepOutcome) -> String {
    let points: Vec<String> = outcome
        .points
        .iter()
        .enumerate()
        .map(|(index, point)| match &point.result {
            Ok(result) => format!(
                "{{\"index\":{index},\"pipeline\":\"{}\",\"seconds\":{:.6},\
                 \"throughput\":{:.3},\"dsp\":{},\"bram_18k\":{},\"shared_cache\":{}}}",
                json_escape(&point.pipeline),
                point.seconds,
                result.estimate.throughput(),
                result.estimate.resources.dsp,
                result.estimate.resources.bram_18k,
                result
                    .shared_estimator_cache
                    .as_ref()
                    .map_or_else(|| "null".to_string(), shared_cache_json),
            ),
            Err(e) => format!(
                "{{\"index\":{index},\"pipeline\":\"{}\",\"seconds\":{:.6},\"error\":\"{}\",\
                 \"reason\":\"{}\",\"attempts\":{}}}",
                json_escape(&point.pipeline),
                point.seconds,
                json_escape(&e.to_string()),
                point.failure_reason().map_or("Failed", |r| r.name()),
                point.attempts,
            ),
        })
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"sweep\":{{\"pool_jobs\":{},\"point_jobs\":{},\
         \"wall_seconds\":{:.6},\"points\":[{}],\"shared_cache_totals\":{}}}}}",
        json_escape(workload),
        outcome.budget.pool_jobs,
        outcome.budget.point_jobs,
        outcome.wall_seconds,
        points.join(","),
        outcome
            .shared_cache
            .as_ref()
            .map_or_else(|| "null".to_string(), shared_cache_json),
    )
}

/// The device the pipeline's last `parallelize` pass sized the design for.
fn pipeline_device(pipeline: &Pipeline) -> Option<String> {
    pipeline
        .invocations()
        .iter()
        .rev()
        .find(|i| i.name == "parallelize")
        .and_then(|i| i.options.iter().find(|o| o.name == "device"))
        .map(|o| o.value.clone())
}

fn resolve_device(name: &str) -> Result<FpgaDevice, String> {
    FpgaDevice::by_name(name).ok_or_else(|| {
        let known: Vec<String> = FpgaDevice::catalog().into_iter().map(|d| d.name).collect();
        format!("unknown device '{name}' (known: {})", known.join(", "))
    })
}

/// `--sweep` mode: every line of the sweep file is an independent pipeline
/// variant of the workload, compiled through the sweep engine's pool with the
/// cross-compilation estimate cache attached.
fn run_sweep(args: &Args) -> Result<(), String> {
    macro_rules! say {
        ($($arg:tt)*) => {
            if args.stats_json {
                eprintln!($($arg)*)
            } else {
                println!($($arg)*)
            }
        };
    }
    if args.pipeline.is_some() || args.preset.is_some() {
        return Err("--sweep is exclusive with --pipeline and --preset".to_string());
    }
    if args.emit_ir.is_some() {
        return Err("--emit-ir applies to single compilations, not --sweep".to_string());
    }
    let source = resolve_source(args)?;
    let path = args
        .sweep
        .as_deref()
        .expect("caller checked --sweep is set");
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("--sweep: cannot read '{path}': {e}"))?;
    let lines: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .collect();
    if lines.is_empty() {
        return Err(format!("--sweep: '{path}' contains no pipeline variants"));
    }

    let workload_name = source_name(&source, args);
    let workload_name = workload_name.as_str();
    let (workload, workload_line) = source_workload(source, args);
    say!("{workload_line}");
    let mut points = Vec::new();
    for (index, line) in lines.iter().enumerate() {
        // Validate early: a typo on line 7 should fail before compiling lines
        // 1-6, with the line number in the message.
        let parsed = Pipeline::parse(&registry(), line)
            .map_err(|e| format!("sweep variant on line {}: {e}", index + 1))?;
        let device_name = args
            .device
            .clone()
            .or_else(|| pipeline_device(&parsed))
            .unwrap_or_else(|| "vu9p-slr".to_string());
        let options = HidaOptions {
            device: resolve_device(&device_name)?,
            ..HidaOptions::default()
        };
        points.push(
            SweepPoint::new(format!("p{:02}", index + 1), workload.clone(), options)
                .with_pipeline(*line),
        );
    }

    let total_jobs = args.jobs.unwrap_or_else(hida_ir_core::default_jobs);
    let budget = JobBudget::for_points(total_jobs, points.len());
    say!("sweep: {} design points from {path}", points.len());
    if !args.no_timing {
        say!(
            "jobs: {total_jobs} total -> {} concurrent points x {} each",
            budget.pool_jobs,
            budget.point_jobs
        );
    }
    let plan = parse_fault_plan(args)?;
    if plan.is_some() || args.deadline_ms.is_some() || args.run_budget_ms.is_some() {
        // Injected faults and deadline cancellations unwind by design; keep
        // the default panic hook from spamming stderr with their backtraces.
        fault::silence_expected_panics();
    }
    let mut engine = SweepEngine::new()
        .with_budget(budget)
        .with_verification(!args.no_verify)
        .with_retries(args.retries.unwrap_or(0));
    if let Some(ms) = args.deadline_ms {
        engine = engine.with_deadline_ms(ms);
    }
    if let Some(ms) = args.run_budget_ms {
        engine = engine.with_run_budget_ms(ms);
    }
    if let Some(plan) = plan {
        engine = engine.with_fault_plan(plan);
    }
    let outcome = engine.run(&points);

    for (index, point) in outcome.points.iter().enumerate() {
        say!("\npoint {:02}: {}", index + 1, point.pipeline);
        match &point.result {
            Ok(result) => {
                say!(
                    "  qor: throughput {:.3} samples/s, DSP {}, BRAM-18K {}, LUT {}",
                    result.estimate.throughput(),
                    result.estimate.resources.dsp,
                    result.estimate.resources.bram_18k,
                    result.estimate.resources.lut
                );
                if !args.no_timing {
                    say!(
                        "  time: {:.4}s, shared cache {}",
                        point.seconds,
                        result.shared_estimator_cache.unwrap_or_default()
                    );
                }
            }
            Err(e) => {
                say!("  error: {e}");
                if let Some(failure) = &point.failure {
                    for attempt in &failure.attempts {
                        say!("  {attempt}");
                    }
                }
            }
        }
    }
    if !args.no_timing {
        if let Some(cache) = &outcome.shared_cache {
            say!(
                "\nsweep wall-clock {:.4}s, cross-compilation estimate cache: {cache}",
                outcome.wall_seconds
            );
        }
    }
    if args.stats_json {
        println!("{}", sweep_json(workload_name, &outcome));
    }
    if !outcome.all_ok() {
        let failed = outcome.failed_labels();
        say!(
            "\nFAILED: {} of {} sweep points ({})",
            failed.len(),
            outcome.points.len(),
            failed.join(", ")
        );
        return Err(format!(
            "{} of {} sweep points failed (see the report above)",
            failed.len(),
            outcome.points.len()
        ));
    }
    Ok(())
}

/// Renders an exploration's generations, frontier, compiled points and the
/// aggregated cache counters as one machine-readable JSON object — the
/// `--sweep` schema extended with `frontier`, per-generation counters and
/// `compiles_saved`.
fn explore_json(workload: &str, outcome: &ExploreOutcome) -> String {
    let generations: Vec<String> = outcome
        .generations
        .iter()
        .map(|g| {
            format!(
                "{{\"index\":{},\"proposed\":{},\"pruned\":{},\"compiled\":{},\
                 \"failed\":{},\"frontier_size\":{},\"probe_hits\":{},\"probe_nodes\":{}}}",
                g.index,
                g.proposed,
                g.pruned,
                g.compiled,
                g.failed,
                g.frontier_size,
                g.probe_hits,
                g.probe_nodes
            )
        })
        .collect();
    let frontier: Vec<String> = outcome
        .frontier
        .points()
        .iter()
        .map(|p| {
            let objectives: Vec<String> = p.objectives.iter().map(i64::to_string).collect();
            format!(
                "{{\"label\":\"{}\",\"pipeline\":\"{}\",\"objectives\":[{}],\
                 \"throughput\":{:.3},\"dsp\":{},\"bram_18k\":{},\"generation\":{}}}",
                json_escape(&p.label),
                json_escape(&p.pipeline),
                objectives.join(","),
                p.throughput,
                p.dsp,
                p.bram_18k,
                p.generation
            )
        })
        .collect();
    let points: Vec<String> = outcome
        .points
        .iter()
        .map(|point| match &point.result {
            Ok(result) => format!(
                "{{\"label\":\"{}\",\"pipeline\":\"{}\",\"seconds\":{:.6},\
                 \"throughput\":{:.3},\"dsp\":{},\"bram_18k\":{},\"shared_cache\":{}}}",
                json_escape(&point.label),
                json_escape(&point.pipeline),
                point.seconds,
                result.estimate.throughput(),
                result.estimate.resources.dsp,
                result.estimate.resources.bram_18k,
                result
                    .shared_estimator_cache
                    .as_ref()
                    .map_or_else(|| "null".to_string(), shared_cache_json),
            ),
            Err(e) => format!(
                "{{\"label\":\"{}\",\"pipeline\":\"{}\",\"seconds\":{:.6},\"error\":\"{}\",\
                 \"reason\":\"{}\",\"attempts\":{}}}",
                json_escape(&point.label),
                json_escape(&point.pipeline),
                point.seconds,
                json_escape(&e.to_string()),
                point.failure_reason().map_or("Failed", |r| r.name()),
                point.attempts,
            ),
        })
        .collect();
    let seeds: Vec<String> = outcome
        .seeds
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"explore\":{{\"pool_jobs\":{},\"point_jobs\":{},\
         \"adaptive\":{},\"num_candidates\":{},\"probed\":{},\"pruned\":{},\
         \"compiled\":{},\"compiles_saved\":{},\"wall_seconds\":{:.6},\
         \"seeds\":[{}],\"generations\":[{}],\"frontier\":[{}],\"points\":[{}],\
         \"shared_cache_totals\":{}}}}}",
        json_escape(workload),
        outcome.budget.pool_jobs,
        outcome.budget.point_jobs,
        outcome.adaptive,
        outcome.num_candidates,
        outcome.probed,
        outcome.pruned,
        outcome.points.len(),
        outcome.compiles_saved(),
        outcome.wall_seconds,
        seeds.join(","),
        generations.join(","),
        frontier.join(","),
        points.join(","),
        outcome
            .shared_cache
            .as_ref()
            .map_or_else(|| "null".to_string(), shared_cache_json),
    )
}

/// `--explore` mode: the sweep file's pipeline lines span a knob lattice and
/// the Pareto-frontier explorer walks it generation by generation, compiling
/// only candidates whose surrogate QoR bound is not already dominated.
fn run_explore(args: &Args) -> Result<(), String> {
    macro_rules! say {
        ($($arg:tt)*) => {
            if args.stats_json {
                eprintln!($($arg)*)
            } else {
                println!($($arg)*)
            }
        };
    }
    if args.pipeline.is_some() || args.preset.is_some() {
        return Err("--explore is exclusive with --pipeline and --preset".to_string());
    }
    if args.sweep.is_some() {
        return Err("--explore is exclusive with --sweep".to_string());
    }
    if args.emit_ir.is_some() {
        return Err("--emit-ir applies to single compilations, not --explore".to_string());
    }
    let source = resolve_source(args)?;
    let path = args
        .explore
        .as_deref()
        .expect("caller checked --explore is set");
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("--explore: cannot read '{path}': {e}"))?;
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, line)| (i + 1, line.trim()))
        .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
        .collect();
    // An optional leading `explore{...}` line configures the search; every
    // other line is a pipeline variant, exactly as under --sweep.
    let (config, variants) = match lines.split_first() {
        Some(((line_no, first), rest)) if first.starts_with("explore") => {
            let config = ExploreConfig::parse(first)
                .map_err(|e| format!("explore config on line {line_no}: {e}"))?;
            (config, rest)
        }
        _ => (ExploreConfig::default(), &lines[..]),
    };
    if variants.is_empty() {
        return Err(format!("--explore: '{path}' contains no pipeline variants"));
    }

    let workload_name = source_name(&source, args);
    let workload_name = workload_name.as_str();
    let (workload, workload_line) = source_workload(source, args);
    say!("{workload_line}");
    let mut points = Vec::new();
    for (index, (line_no, line)) in variants.iter().enumerate() {
        let parsed = Pipeline::parse(&registry(), line)
            .map_err(|e| format!("explore variant on line {line_no}: {e}"))?;
        let device_name = args
            .device
            .clone()
            .or_else(|| pipeline_device(&parsed))
            .unwrap_or_else(|| "vu9p-slr".to_string());
        let options = HidaOptions {
            device: resolve_device(&device_name)?,
            ..HidaOptions::default()
        };
        points.push(
            SweepPoint::new(format!("p{:02}", index + 1), workload.clone(), options)
                .with_pipeline(*line),
        );
    }

    let total_jobs = args.jobs.unwrap_or_else(hida_ir_core::default_jobs);
    let objectives: Vec<&str> = config.objectives.iter().map(|o| o.name()).collect();
    say!("explore: {} candidate points from {path}", points.len());
    say!(
        "objectives: {} (seed {}, budget {})",
        objectives.join("+"),
        config.seed,
        config
            .budget
            .map_or_else(|| "unbounded".to_string(), |b| b.to_string())
    );
    if !args.no_timing {
        say!("jobs: {total_jobs} total, adaptive per-point rebalancing");
    }
    if args.run_budget_ms.is_some() {
        return Err("--run-budget-ms applies to --sweep".to_string());
    }
    let plan = parse_fault_plan(args)?;
    if plan.is_some() || args.deadline_ms.is_some() {
        fault::silence_expected_panics();
    }
    let mut explorer = Explorer::new(config)
        .with_total_jobs(total_jobs)
        .with_verification(!args.no_verify)
        .with_retries(args.retries.unwrap_or(0));
    if let Some(ms) = args.deadline_ms {
        explorer = explorer.with_deadline_ms(ms);
    }
    if let Some(plan) = plan {
        explorer = explorer.with_fault_plan(plan);
    }
    let outcome = explorer.explore(&points)?;

    say!("seeds: {}", outcome.seeds.join(", "));
    for g in &outcome.generations {
        say!(
            "generation {}: proposed {}, pruned by surrogate {}, compiled {}, failed {}, \
             frontier {}",
            g.index,
            g.proposed,
            g.pruned,
            g.compiled,
            g.failed,
            g.frontier_size
        );
    }

    for point in &outcome.points {
        say!("\npoint {}: {}", point.label, point.pipeline);
        match &point.result {
            Ok(result) => {
                say!(
                    "  qor: throughput {:.3} samples/s, DSP {}, BRAM-18K {}, LUT {}",
                    result.estimate.throughput(),
                    result.estimate.resources.dsp,
                    result.estimate.resources.bram_18k,
                    result.estimate.resources.lut
                );
                if !args.no_timing {
                    say!(
                        "  time: {:.4}s, jobs {}, shared cache {}",
                        point.seconds,
                        point.point_jobs,
                        result.shared_estimator_cache.unwrap_or_default()
                    );
                }
            }
            Err(e) => {
                say!("  error: {e}");
                if let Some(failure) = &point.failure {
                    for attempt in &failure.attempts {
                        say!("  {attempt}");
                    }
                }
            }
        }
    }

    say!("\n# Pareto frontier ({} points)", outcome.frontier.len());
    for p in outcome.frontier.points() {
        say!(
            "  {}: throughput {:.3} samples/s, DSP {}, BRAM-18K {} (generation {})",
            p.label,
            p.throughput,
            p.dsp,
            p.bram_18k,
            p.generation
        );
    }
    say!(
        "\nprobed {} of {} candidates: {} pruned by surrogate, {} compiled \
         ({} compilations saved)",
        outcome.probed,
        outcome.num_candidates,
        outcome.pruned,
        outcome.points.len(),
        outcome.compiles_saved()
    );
    if !args.no_timing {
        say!("exploration wall-clock {:.4}s", outcome.wall_seconds);
        if let Some(cache) = &outcome.shared_cache {
            say!("cross-compilation estimate cache: {cache}");
        }
    }
    if args.stats_json {
        println!("{}", explore_json(workload_name, &outcome));
    }
    if !outcome.all_ok() {
        let failed = outcome.failed_labels();
        say!(
            "\nFAILED: {} of {} compiled points ({})",
            failed.len(),
            outcome.points.len(),
            failed.join(", ")
        );
        return Err(format!(
            "{} of {} compiled points failed (see the report above)",
            failed.len(),
            outcome.points.len()
        ));
    }
    Ok(())
}

fn run(args: Args) -> Result<(), String> {
    if args.explore.is_some() {
        return run_explore(&args);
    }
    if args.sweep.is_some() {
        return run_sweep(&args);
    }
    // With --stats-json, stdout carries exactly one JSON object; the
    // human-readable report moves to stderr so `hida-opt --stats-json | jq .`
    // works as documented.
    macro_rules! say {
        ($($arg:tt)*) => {
            if args.stats_json {
                eprintln!($($arg)*)
            } else {
                println!($($arg)*)
            }
        };
    }
    if args.retries.is_some() {
        return Err("--retries applies to --sweep and --explore".to_string());
    }
    if args.run_budget_ms.is_some() {
        return Err("--run-budget-ms applies to --sweep".to_string());
    }
    let fault_plan = parse_fault_plan(&args)?;
    if fault_plan.is_some() || args.deadline_ms.is_some() {
        fault::silence_expected_panics();
    }
    let source = resolve_source(&args)?;
    let workload_name = match &source {
        CliSource::Builtin(_) => args
            .workload
            .clone()
            .expect("builtin source has --workload"),
        CliSource::TextIr { name, .. } => name.clone(),
    };
    let workload_name = workload_name.as_str();
    let pipeline_text = match (&args.pipeline, &args.preset) {
        (Some(_), Some(_)) => return Err("--pipeline and --preset are exclusive".to_string()),
        (Some(text), None) => text.clone(),
        (None, Some(preset)) => preset_text(preset)?,
        (None, None) => preset_text("default")?,
    };
    let mut pipeline = Pipeline::parse(&registry(), &pipeline_text).map_err(|e| e.to_string())?;
    if pipeline.is_empty() {
        return Err("the pipeline is empty".to_string());
    }
    // Estimate QoR against the device the design was actually sized for: the
    // parallelize pass's device option, unless --device overrides it.
    let device_name = args
        .device
        .clone()
        .or_else(|| pipeline_device(&pipeline))
        .unwrap_or_else(|| "vu9p-slr".to_string());
    let device = resolve_device(&device_name)?;
    if args.no_verify {
        pipeline = pipeline.with_verification(false);
    }
    // Per-node pass work (tiling, parallelize, profile) and QoR estimation run
    // on this many workers; --jobs 1 is the reproducibility escape hatch.
    let jobs = args.jobs.unwrap_or_else(hida_ir_core::default_jobs);
    pipeline = pipeline.with_jobs(jobs);

    let mut ctx = Context::new();
    // Build through the same `build_workload` path the sweep/explore compilers
    // use, so `--emit-ir` output matches the library builders byte for byte.
    let (workload, workload_line) = source_workload(source, &args);
    say!("{workload_line}");
    let (module, func): (OpId, OpId) =
        hida::build_workload(&mut ctx, workload).map_err(|e| e.to_string())?;
    // --emit-ir captures the module as the pipeline will see it: the printed
    // text re-parses (with --input) to a structurally identical design.
    if let Some(path) = &args.emit_ir {
        let text = hida_ir_core::printer::print_op(&ctx, module);
        std::fs::write(path, &text)
            .map_err(|e| format!("--emit-ir: cannot write '{path}': {e}"))?;
        say!("emitted IR: {path}");
    }
    say!("pipeline: {}", pipeline.to_text());
    if !args.no_timing {
        say!("jobs: {jobs}");
    }
    let pipeline_text = pipeline.to_text();

    // In single-run mode --deadline-ms and --inject-faults scope to the pass
    // pipeline: a cancel token (and any armed faults) is installed for its
    // duration, so a stuck or faulted pass surfaces as a structured error
    // instead of a hang or an escaping panic.
    let chaos_guard = if args.deadline_ms.is_some() || fault_plan.is_some() {
        let token = match args.deadline_ms {
            Some(ms) => fault::CancelToken::with_deadline_ms(ms),
            None => fault::CancelToken::new(),
        };
        let faults = fault_plan.as_ref().map(|plan| {
            let labels = vec![workload_name.to_string()];
            plan.assign(&labels)
                .remove(workload_name)
                .map(|kind| plan.arm(kind))
                .unwrap_or_default()
        });
        Some(fault::install_point(token, faults))
    } else {
        None
    };
    let run_result = pipeline.run(&mut ctx, func);
    drop(chaos_guard);

    say!("\n# Per-pass statistics");
    for stat in pipeline.statistics() {
        if args.no_timing {
            say!("{}", stable_stat(stat));
        } else {
            say!("{stat}");
        }
    }
    if !args.no_timing {
        let cache_totals = PassStatistics::aggregate_cache(pipeline.statistics());
        say!("analysis cache totals: {cache_totals}");
    }
    // A failing pipeline still reports where (and after how long) it died —
    // including the machine-readable statistics, with the estimator section
    // nulled out because estimation never ran.
    if let Err(e) = &run_result {
        if args.stats_json {
            println!(
                "{}",
                stats_json(workload_name, &pipeline_text, pipeline.statistics(), None)
            );
        }
        return Err(e.to_string());
    }
    let schedule = run_result.map_err(|e| e.to_string())?;

    say!("\n# Schedule ({} nodes)", schedule.nodes(&ctx).len());
    for node in schedule.nodes(&ctx) {
        // The parallelize pass preserved the node profiles; these queries are
        // pure cache hits.
        let rank = pipeline
            .analyses_mut()
            .get::<ComputeProfile>(&ctx, node.id())
            .loop_dims
            .len();
        say!(
            "node {:<24} intensity {:<10} parallel factor {:<5} unroll {:?}",
            node.name(&ctx),
            ctx.op(node.id()).attr_int("intensity").unwrap_or(0),
            ctx.op(node.id()).attr_int("parallel_factor").unwrap_or(0),
            hida_dialects::transforms::unroll_factors_of(&ctx, node.id(), rank),
        );
    }
    for buffer in schedule.internal_buffers(&ctx) {
        let partition = buffer.partition(&ctx);
        say!(
            "buffer {:<22} depth {:<3} kind {:<9} partition {:?} ({} banks)",
            buffer.name(&ctx),
            buffer.depth(&ctx),
            format!("{:?}", buffer.memory_kind(&ctx)),
            partition.factors,
            partition.bank_count(),
        );
    }

    let estimator = DataflowEstimator::new(device.clone()).with_jobs(jobs);
    let dataflow = estimator.estimate_schedule(&ctx, schedule, true);
    let sequential = estimator.estimate_schedule(&ctx, schedule, false);
    say!("\n# QoR estimate ({})", device.name);
    say!(
        "throughput: {:.3} samples/s (dataflow) vs {:.3} samples/s (sequential)",
        dataflow.throughput(),
        sequential.throughput()
    );
    say!(
        "resources:  DSP {} / {}, BRAM-18K {} / {}, LUT {} / {}",
        dataflow.resources.dsp,
        device.dsp,
        dataflow.resources.bram_18k,
        device.bram_18k,
        dataflow.resources.lut,
        device.lut
    );
    say!("DSP efficiency: {:.1}%", 100.0 * dataflow.dsp_efficiency());
    if !args.no_timing {
        say!(
            "estimator cache: {} (dataflow + sequential estimates share node estimates)",
            estimator.cache_stats()
        );
    }
    if args.stats_json {
        println!(
            "{}",
            stats_json(
                workload_name,
                &pipeline_text,
                pipeline.statistics(),
                Some(&estimator.cache_stats()),
            )
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    if args.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.list_passes {
        print!("{}", registry_listing());
        return ExitCode::SUCCESS;
    }
    if args.list_workloads {
        println!("{}", workload_listing());
        return ExitCode::SUCCESS;
    }
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
