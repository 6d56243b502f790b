//! The compile pipeline stage by stage, for traced runs.
//!
//! `Compiler::compile` is one call, so a traced run compiles through the
//! same public stage functions it calls, in its order, with a span around
//! each: `fuse` (`fuse_map_reduce` + `validate`), `search`
//! (`analyze_with`), `analyze` (`analyze_program` + `lint_mapping`),
//! `lower` (`lower_planned`), `validate` (`validate_kernels`) and
//! `locality` (`LocalityFacts::of` + `locality_of`). The launch
//! consolidation plan is taken from `Compiler::prepare_tune` at set-up.
//! Every staged compile must produce the mapping and kernels of the
//! reference `Compiler::compile`, so the stages cannot drift from it
//! unnoticed.

use crate::catalog::{Entry, Rows};
use crate::check::Tally;
use crate::host::Host;
use crate::spans::{now_ns, Span, Tracer};
use crate::stats::mean;
use multidim::prelude::{CodegenOptions, GpuSpec, MappingDecision};
use multidim::{Compiler, LocalityFacts, Severity};
use multidim_codegen::{
    fuse_map_reduce, lower_planned, validate_kernels, DynParPlan, KernelProgram,
};
use multidim_mapping::{analyze_with, TuneOptions, Weights};
use std::collections::BTreeMap;
use std::time::Instant;

/// Stage span names in pipeline order, with the layer metric of each.
const STAGES: [(&str, &str); 6] = [
    ("fuse", "fuse.us"),
    ("search", "search.us"),
    ("analyze", "analyze.us"),
    ("lower", "lower.us"),
    ("validate", "validate.us"),
    ("locality", "locality.us"),
];

/// Passes over the catalog that a traced run makes at set-up, so that
/// every workload reports the compile stages and the simulator.
const SWEEP_PASSES: usize = 10;

/// The default compiler's configuration, spelled out for the stages.
pub struct Stages {
    gpu: GpuSpec,
    weights: Weights,
    options: CodegenOptions,
    dynpar: Vec<DynParPlan>,
}

impl Stages {
    pub fn prepare(compiler: &Compiler, entries: &[Entry]) -> Result<Stages, String> {
        let gpu = GpuSpec::tesla_k20c();
        let options = CodegenOptions {
            smem_budget: Some(gpu.smem_per_sm),
            ..CodegenOptions::default()
        };
        let dynpar = entries
            .iter()
            .map(|e| {
                compiler
                    .prepare_tune(&e.program, &e.bindings, &TuneOptions::default())
                    .map(|p| p.dynpar)
                    .map_err(|err| format!("`{}`: {err}", e.name()))
            })
            .collect::<Result<_, _>>()?;
        Ok(Stages {
            gpu,
            weights: Weights::default(),
            options,
            dynpar,
        })
    }

    /// Compile catalog entry `index` stage by stage under a `compile`
    /// span. Returns the mapping search's candidate count.
    pub fn compile(
        &self,
        t: &Tracer,
        request: u64,
        index: usize,
        e: &Entry,
    ) -> Result<(MappingDecision, KernelProgram, usize), String> {
        let (program, bindings, gpu) = (&e.program, &e.bindings, &self.gpu);
        let err = |what: &str, detail: String| format!("`{}` {what}: {detail}", e.name());
        t.span("compile", request, || {
            let fused = t.span("fuse", request, || {
                let (fused, _) = fuse_map_reduce(program);
                fused.validate().map(|()| fused)
            });
            let fused = fused.map_err(|x| err("validate", x.to_string()))?;
            let analysis = t.span("search", request, || {
                analyze_with(&fused, bindings, gpu, &self.weights)
            });
            let mapping = analysis.decision;
            let report = t.span("analyze", request, || {
                let mut report = multidim::analyze_program(&fused, bindings);
                report
                    .diagnostics
                    .extend(multidim::lint_mapping(&fused, &mapping));
                report
            });
            if report.has_errors() {
                return Err(err("static analysis", "rejected".into()));
            }
            let kernels = t.span("lower", request, || {
                lower_planned(&fused, &mapping, &self.options, &self.dynpar[index])
            });
            let kernels = kernels.map_err(|x| err("lower", x.to_string()))?;
            t.span("validate", request, || {
                validate_kernels(&kernels, gpu.smem_per_sm)
            })
            .map_err(|x| err("validate_kernels", x.0))?;
            let locality = t.span("locality", request, || {
                let facts = LocalityFacts::of(&fused, bindings);
                multidim::locality_of(
                    &facts,
                    &mapping,
                    &kernels,
                    bindings,
                    gpu,
                    self.options.smem_prefetch,
                )
            });
            if locality
                .diagnostics()
                .iter()
                .any(|d| d.severity == Severity::Error)
            {
                return Err(err("locality analysis", "rejected".into()));
            }
            Ok((mapping, kernels, analysis.candidates))
        })
    }

    /// Compile catalog entry `index` once with `Compiler::compile`, timed
    /// and untraced, and once stage by stage, in the order `staged_first`
    /// gives; alternating it keeps either from always finding the other's
    /// data in cache. Returns both compiles' checks.
    pub fn compile_both(
        &self,
        t: &Tracer,
        compiler: &Compiler,
        request: u64,
        (index, e): (usize, &Entry),
        staged_first: bool,
        samples: &mut CompileSamples,
    ) -> [Result<(), String>; 2] {
        [staged_first, !staged_first].map(|staged| {
            if staged {
                let (mapping, kernels, candidates) = self.compile(t, request, index, e)?;
                samples.candidates.insert(index, candidates);
                return check_compiled(e, &self.gpu, &mapping, &kernels);
            }
            let start_ns = now_ns();
            let start = Instant::now();
            let exe = compiler.compile(&e.program, &e.bindings);
            let us = start.elapsed().as_secs_f64() * 1e6;
            samples.untraced_compile_us.push((start_ns, us));
            let exe = exe.map_err(|x| x.to_string())?;
            check_compiled(e, &self.gpu, &exe.mapping, &exe.kernels)
        })
    }

    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// The codegen options `Compiler::compile` lowers with.
    pub fn options(&self) -> &CodegenOptions {
        &self.options
    }
}

/// A compile is correct when it reproduces the reference executable,
/// whose outputs were checked against the interpreter at set-up. Any
/// other result is run and checked against the interpreter itself.
pub fn check_compiled(
    e: &Entry,
    gpu: &GpuSpec,
    mapping: &MappingDecision,
    kernels: &KernelProgram,
) -> Result<(), String> {
    if *mapping == e.exe.mapping && *kernels == e.exe.kernels {
        return Ok(());
    }
    let run = multidim_sim::run_program(kernels, gpu, &e.bindings, &e.inputs)
        .map_err(|x| format!("`{}`: {x}", e.name()))?;
    e.check_interpreter(&run.arrays)
}

/// What a traced run measures of the compiler and simulator besides its
/// spans: untraced compile times for the same programs, as (start,
/// unscaled µs), and the search's candidate count per program.
#[derive(Debug, Default)]
pub struct CompileSamples {
    pub untraced_compile_us: Vec<(u64, f64)>,
    pub candidates: BTreeMap<usize, usize>,
}

/// The traced set-up pass: every program compiled both ways and its
/// reference executable simulated under a `simulate` span,
/// [`SWEEP_PASSES`] times.
pub fn sweep(
    t: &Tracer,
    compiler: &Compiler,
    stages: &Stages,
    entries: &[Entry],
    rows: &mut Rows,
    tally: &mut Tally,
    samples: &mut CompileSamples,
) {
    let mut request = u64::MAX / 2;
    for pass in 0..SWEEP_PASSES {
        for (i, e) in entries.iter().enumerate() {
            request += 1;
            let staged_first = pass % 2 == 0;
            for outcome in stages.compile_both(t, compiler, request, (i, e), staged_first, samples)
            {
                tally.record(outcome);
            }
            if let Some(&(_, us)) = samples.untraced_compile_us.last() {
                rows.compile_us[i].push(us);
            }
            let start = Instant::now();
            let run = t.span("simulate", request, || {
                multidim_sim::run_program(&e.exe.kernels, stages.gpu(), &e.bindings, &e.inputs)
            });
            rows.simulate_us[i].push(start.elapsed().as_secs_f64() * 1e6);
            tally.record(
                run.map_err(|x| x.to_string())
                    .and_then(|r| crate::check::bit_identical(e.name(), &e.outputs, &r.arrays)),
            );
        }
    }
}

/// Mean untraced compile, µs, scaled.
fn untraced_mean(samples: &CompileSamples, host: &Host) -> f64 {
    let scaled: Vec<f64> = samples
        .untraced_compile_us
        .iter()
        .map(|&(t, us)| us * host.scale_at(t))
        .collect();
    mean(&scaled)
}

/// The compile-stage and simulator layer metrics from a traced run's
/// span self times (µs, scaled).
pub fn layer_metrics(
    self_us: &BTreeMap<&'static str, Vec<f64>>,
    samples: &CompileSamples,
    host: &Host,
) -> Vec<(&'static str, f64)> {
    let stage_mean = |name: &str| self_us.get(name).map_or(0.0, |v| mean(v));
    let mut out: Vec<(&'static str, f64)> = STAGES
        .iter()
        .map(|&(span, metric)| (metric, stage_mean(span)))
        .collect();
    let attributed: f64 = STAGES.iter().map(|(span, _)| stage_mean(span)).sum();
    out.push((
        "compile.unattributed_share",
        1.0 - attributed / untraced_mean(samples, host),
    ));
    out.push((
        "search.candidates",
        samples.candidates.values().sum::<usize>() as f64,
    ));
    out.push(("simulate.us", stage_mean("simulate")));
    out
}

/// What staging a compile under spans costs: the mean staged compile over
/// the mean untraced one, minus 1.
pub fn compile_overhead(spans: &[Span], samples: &CompileSamples, host: &Host) -> f64 {
    let staged: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "compile")
        .map(|s| s.dur_ns() as f64 / 1e3 * host.scale_at(s.start_ns))
        .collect();
    mean(&staged) / untraced_mean(samples, host) - 1.0
}
