//! The three workloads' design sets and their set-up: reference outputs,
//! baseline QoR and the interpreter oracle.

use std::collections::BTreeMap;

use hida::dataflow_ir::structural::ScheduleOp;
use hida::estimator::dataflow::DataflowEstimator;
use hida::ir::{Context, IrResult};
use hida::sim::functional::Memory;
use hida::{
    registry, CompilationResult, Compiler, DesignEstimate, ExploreConfig, FpgaDevice, Frontier,
    FrontierPoint, HidaOptions, Model, Pipeline, PolybenchKernel, SweepPoint, Workload,
};

use hida_bench::geomean;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The seven model-zoo networks, one compile each per round.
    DnnModels,
    /// The eleven PolyBench kernels entering as textual IR.
    PolybenchText,
    /// The full Fig. 10 ResNet-18 grid through the sweep engine.
    Fig10Sweep,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::DnnModels, Kind::PolybenchText, Kind::Fig10Sweep];

    pub fn name(self) -> &'static str {
        match self {
            Kind::DnnModels => "dnn-models",
            Kind::PolybenchText => "polybench-text",
            Kind::Fig10Sweep => "fig10-sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Fig. 10's swept maximum parallel factors and tile sizes.
pub const FIG10_PARALLEL_FACTORS: [i64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];
pub const FIG10_TILE_SIZES: [i64; 5] = [2, 4, 8, 16, 32];

/// Problem size of the interpreter oracle (the default sizes are too large
/// to interpret in set-up).
pub const ORACLE_SIZE: i64 = 8;

/// The outputs every compile is checked on.
#[derive(Debug, Clone, PartialEq)]
pub struct Outputs {
    pub hls_cpp: String,
    pub estimate: DesignEstimate,
    pub estimate_sequential: DesignEstimate,
}

impl Outputs {
    pub fn of(result: &CompilationResult) -> Self {
        Outputs {
            hls_cpp: result.hls_cpp.clone(),
            estimate: result.estimate.clone(),
            estimate_sequential: result.estimate_sequential.clone(),
        }
    }

    /// True when `result` carries exactly these outputs.
    pub fn matches(&self, result: &CompilationResult) -> bool {
        self.hls_cpp == result.hls_cpp
            && self.estimate == result.estimate
            && self.estimate_sequential == result.estimate_sequential
    }
}

/// One design of a workload: what to compile, and what it must produce.
pub struct Design {
    pub label: String,
    pub compiler: Compiler,
    pub workload: Workload,
    pub reference: Outputs,
}

/// The deterministic design-quality figures of a workload, from its
/// references.
#[derive(Debug, Clone, PartialEq)]
pub struct Qor {
    /// Geometric mean of Eq. 1 DSP efficiency over the designs.
    pub dsp_efficiency_geomean: f64,
    /// Designs whose DSP, BRAM and LUT use all fit their device.
    pub within_budget: usize,
    /// Geometric mean of HIDA over ScaleHLS estimated throughput, over the
    /// designs the ScaleHLS baseline supports.
    pub speedup_vs_scalehls: f64,
}

/// What the interpreter oracle found.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleRecord {
    pub size: i64,
    pub kernels: usize,
    pub agreed: usize,
}

/// A workload ready to time.
pub struct Setup {
    pub designs: Vec<Design>,
    /// The designs as sweep points (fig10-sweep), in design order.
    pub points: Vec<SweepPoint>,
    /// The references' Pareto frontier over (interval, DSP, BRAM)
    /// (fig10-sweep), the explorer's coverage target.
    pub frontier: Vec<Vec<i64>>,
    pub qor: Qor,
    pub oracle: Option<OracleRecord>,
}

impl Setup {
    /// Builds the design set, compiles every reference (one job, no shared
    /// cache), computes QoR against the baselines and, for PolyBench, runs
    /// the interpreter oracle.
    ///
    /// # Errors
    /// A reference or baseline that fails to compile.
    pub fn new(kind: Kind) -> IrResult<Setup> {
        let specs: Vec<(String, Compiler, Workload, Source)> = match kind {
            Kind::DnnModels => Model::all()
                .into_iter()
                .map(|m| {
                    let label = m.name().to_string();
                    (
                        label,
                        Compiler::dnn_defaults(),
                        Workload::Model(m),
                        Source::Model(m),
                    )
                })
                .collect(),
            Kind::PolybenchText => PolybenchKernel::all()
                .into_iter()
                .map(|k| {
                    let text = kernel_text(k, k.default_size());
                    let workload = Workload::text_ir(k.name(), text);
                    let label = k.name().to_string();
                    (
                        label,
                        Compiler::polybench_defaults(),
                        workload,
                        Source::Kernel(k),
                    )
                })
                .collect(),
            Kind::Fig10Sweep => FIG10_PARALLEL_FACTORS
                .iter()
                .flat_map(|&pf| FIG10_TILE_SIZES.iter().map(move |&tile| (pf, tile)))
                .map(|(pf, tile)| {
                    let compiler = Compiler::new(HidaOptions::dnn())
                        .with_pipeline(hida_bench::variants::fig10(pf, tile));
                    let resnet = Model::ResNet18;
                    let label = format!("pf{pf}-tile{tile}");
                    (
                        label,
                        compiler,
                        Workload::Model(resnet),
                        Source::Model(resnet),
                    )
                })
                .collect(),
        };
        // One ScaleHLS baseline per distinct source (all 45 fig10 points
        // share ResNet-18's).
        let mut baselines: Vec<(Source, Option<f64>)> = Vec::new();
        let mut baseline_of_design = Vec::with_capacity(specs.len());
        for (_, compiler, _, source) in &specs {
            let known = baselines.iter().find(|(s, _)| s == source).map(|&(_, b)| b);
            let baseline = match known {
                Some(baseline) => baseline,
                None => {
                    let baseline = scalehls_throughput(*source, &compiler.options().device)?;
                    baselines.push((*source, baseline));
                    baseline
                }
            };
            baseline_of_design.push(baseline);
        }
        let mut designs = Vec::with_capacity(specs.len());
        for (label, compiler, workload, _) in specs {
            let reference = Outputs::of(&compiler.compile(workload.clone())?);
            designs.push(Design {
                label,
                compiler,
                workload,
                reference,
            });
        }
        let points = match kind {
            Kind::Fig10Sweep => designs
                .iter()
                .map(|d| {
                    SweepPoint::new(
                        d.label.clone(),
                        d.workload.clone(),
                        d.compiler.options().clone(),
                    )
                    .with_pipeline(d.compiler.pipeline_text().unwrap_or_default())
                })
                .collect(),
            _ => Vec::new(),
        };
        let frontier = match kind {
            Kind::Fig10Sweep => reference_frontier(&designs),
            _ => Vec::new(),
        };
        let qor = qor(&designs, &baseline_of_design);
        let oracle = match kind {
            Kind::PolybenchText => Some(run_oracle()?),
            _ => None,
        };
        Ok(Setup {
            designs,
            points,
            frontier,
            qor,
            oracle,
        })
    }

    /// True when `other` holds the same references, QoR, frontier and oracle
    /// outcome: set-up is deterministic.
    pub fn same_as(&self, other: &Setup) -> bool {
        self.designs.len() == other.designs.len()
            && self
                .designs
                .iter()
                .zip(&other.designs)
                .all(|(a, b)| a.label == b.label && a.reference == b.reference)
            && self.frontier == other.frontier
            && self.qor == other.qor
            && self.oracle == other.oracle
    }
}

/// The printed module of a PolyBench kernel, as `build_workload` builds it.
fn kernel_text(kernel: PolybenchKernel, size: i64) -> String {
    let mut ctx = Context::new();
    let module = ctx.create_module(kernel.name());
    hida::frontend::polybench::build_kernel(&mut ctx, module, kernel, size);
    hida::ir::printer::print_op(&ctx, module)
}

/// The Pareto frontier of the references over the explorer's default
/// objectives (interval, DSP, BRAM).
fn reference_frontier(designs: &[Design]) -> Vec<Vec<i64>> {
    let objectives = ExploreConfig::default().objectives;
    let mut frontier = Frontier::new();
    for design in designs {
        let vector = objectives
            .iter()
            .map(|o| o.value(&design.reference.estimate))
            .collect();
        frontier.insert(FrontierPoint::from_vector(design.label.clone(), vector));
    }
    frontier.vectors()
}

fn within_budget(estimate: &DesignEstimate, device: &FpgaDevice) -> bool {
    let used = &estimate.resources;
    used.dsp <= device.dsp && used.bram_18k <= device.bram_18k && used.lut <= device.lut
}

/// What a design is built from, for its ScaleHLS baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Model(Model),
    Kernel(PolybenchKernel),
}

/// ScaleHLS-baseline throughput of a source, `None` when the baseline does
/// not support it; computed the way the table7/table8 binaries do.
fn scalehls_throughput(source: Source, device: &FpgaDevice) -> IrResult<Option<f64>> {
    let mut ctx = Context::new();
    let module = ctx.create_module("scalehls");
    let (func, max_factor) = match source {
        Source::Kernel(kernel) => {
            let n = kernel.default_size();
            let func = hida::frontend::polybench::build_kernel(&mut ctx, module, kernel, n);
            (func, 16)
        }
        Source::Model(model) if hida::baselines::scalehls::supports(model) => {
            (hida::frontend::nn::build_model(&mut ctx, module, model), 64)
        }
        Source::Model(_) => return Ok(None),
    };
    let schedule = hida::baselines::scalehls::compile(&mut ctx, func, device, max_factor)?;
    let estimate = DataflowEstimator::new(device.clone()).estimate_schedule(&ctx, schedule, true);
    Ok(Some(estimate.throughput()))
}

fn qor(designs: &[Design], baselines: &[Option<f64>]) -> Qor {
    let efficiencies: Vec<f64> = designs
        .iter()
        .map(|d| d.reference.estimate.dsp_efficiency())
        .collect();
    let within = designs
        .iter()
        .filter(|d| within_budget(&d.reference.estimate, &d.compiler.options().device))
        .count();
    let speedups: Vec<f64> = designs
        .iter()
        .zip(baselines)
        .filter_map(|(d, b)| b.map(|b| d.reference.estimate.throughput() / b))
        .collect();
    Qor {
        dsp_efficiency_geomean: geomean(&efficiencies),
        within_budget: within,
        speedup_vs_scalehls: geomean(&speedups),
    }
}

/// Runs every PolyBench kernel at [`ORACLE_SIZE`], entered as text like the
/// timed designs, through the reference flow and through the minimal
/// `construct,lower` flow, interprets both designs on identical inputs and
/// counts the kernels whose buffers agree (relative tolerance 1e-6).
fn run_oracle() -> IrResult<OracleRecord> {
    let optimized = HidaOptions::polybench().pipeline_text();
    let kernels = PolybenchKernel::all();
    let mut agreed = 0;
    for &kernel in &kernels {
        let workload = Workload::text_ir(kernel.name(), kernel_text(kernel, ORACLE_SIZE));
        let baseline = interpret(workload.clone(), "construct,lower")?;
        let optimized = interpret(workload, &optimized)?;
        if oracle_agrees(&baseline, &optimized) {
            agreed += 1;
        } else {
            eprintln!(
                "oracle: {} diverges from its construct,lower baseline",
                kernel.name()
            );
        }
    }
    Ok(OracleRecord {
        size: ORACLE_SIZE,
        kernels: kernels.len(),
        agreed,
    })
}

type BufferContents = BTreeMap<String, (usize, Vec<f64>)>;

fn interpret(workload: Workload, pipeline_text: &str) -> IrResult<BufferContents> {
    let mut ctx = Context::new();
    let (_, func) = hida::build_workload(&mut ctx, workload)?;
    let mut pipeline = Pipeline::parse(&registry(), pipeline_text)
        .map_err(|e| hida::ir::IrError::pass_failed("hida-pipeline", e.to_string()))?;
    let schedule = pipeline.run(&mut ctx, func)?;
    let mut memory = seed_inputs(&ctx, schedule);
    hida::sim::interpret_schedule(&ctx, schedule, &mut memory);
    Ok(contents_by_name(&ctx, schedule, &memory))
}

/// A deterministic per-name fill, so both flows see identical inputs.
fn name_fill(name: &str) -> f64 {
    let h: u64 = name.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |acc, b| {
        (acc ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    });
    0.25 + (h % 8) as f64 * 0.125
}

/// Seeds every original buffer with its name fill plus a diagonal ramp, so
/// index mix-ups change the result. Duplicates made by multi-producer
/// elimination are filled by the design itself and left unseeded.
fn seed_inputs(ctx: &Context, schedule: ScheduleOp) -> Memory {
    let mut memory = Memory::new();
    for buf in schedule.internal_buffers(ctx) {
        let name = buf.name(ctx);
        if name.ends_with("_dup") {
            continue;
        }
        let shape = buf.shape(ctx);
        let fill = name_fill(&name);
        memory.init(buf.value(ctx), &shape, fill);
        let extent = shape.iter().copied().min().unwrap_or(1);
        for i in 0..extent {
            let indices: Vec<i64> = shape.iter().map(|_| i).collect();
            memory.store(buf.value(ctx), &indices, fill + 0.0625 * i as f64);
        }
    }
    memory
}

/// Buffer contents by base name; the deepest `_dup` copy holds the final
/// value.
fn contents_by_name(ctx: &Context, schedule: ScheduleOp, memory: &Memory) -> BufferContents {
    let mut out = BufferContents::new();
    for buf in schedule.internal_buffers(ctx) {
        let Some(data) = memory.contents(buf.value(ctx)) else {
            continue;
        };
        let mut base = buf.name(ctx);
        let mut dups = 0;
        while let Some(stripped) = base.strip_suffix("_dup") {
            base = stripped.to_string();
            dups += 1;
        }
        match out.get(&base) {
            Some(&(best, _)) if best >= dups => {}
            _ => {
                out.insert(base, (dups, data.to_vec()));
            }
        }
    }
    out
}

/// True when every buffer both designs hold agrees, at least one buffer is
/// compared and some value is nonzero (so agreement is not vacuous).
fn oracle_agrees(baseline: &BufferContents, optimized: &BufferContents) -> bool {
    let mut compared = 0;
    let mut nonzero = false;
    for (name, (_, expected)) in baseline {
        let Some((_, actual)) = optimized.get(name) else {
            continue;
        };
        if expected.len() != actual.len() {
            return false;
        }
        compared += 1;
        for (&e, &a) in expected.iter().zip(actual) {
            nonzero |= e != 0.0;
            if (e - a).abs() > 1e-6 * e.abs().max(a.abs()).max(1.0) {
                return false;
            }
        }
    }
    compared > 0 && nonzero
}
