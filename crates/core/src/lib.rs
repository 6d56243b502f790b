//! `multidim` — locality-aware mapping of nested parallel patterns on GPUs.
//!
//! This is the facade crate of a full reproduction of *Locality-Aware
//! Mapping of Nested Parallel Patterns on GPUs* (MICRO 2014). It wires the
//! pipeline together:
//!
//! 1. write an application as nested parallel patterns
//!    ([`prelude::ProgramBuilder`], Section III of the paper);
//! 2. run the mapping analysis ([`multidim_mapping::analyze`], Section IV)
//!    or pick a fixed baseline [`prelude::Strategy`];
//! 3. lower to CUDA-shaped kernels with the Section V optimizations
//!    ([`multidim_codegen::lower`]);
//! 4. execute on the warp-synchronous GPU simulator
//!    ([`multidim_sim::run_program`]) for both *results* and *time*.
//!
//! # Examples
//!
//! ```
//! use multidim::prelude::*;
//! use std::collections::HashMap;
//!
//! // Figure 1's sumRows.
//! let mut b = ProgramBuilder::new("sumRows");
//! let r = b.sym("R");
//! let c = b.sym("C");
//! let m = b.input("m", ScalarKind::F32, &[Size::sym(r), Size::sym(c)]);
//! let root = b.map(Size::sym(r), |b, row| {
//!     b.reduce(Size::sym(c), ReduceOp::Add, |b, col| {
//!         b.read(m, &[row.into(), col.into()])
//!     })
//! });
//! let program = b.finish_map(root, "sums", ScalarKind::F32)?;
//!
//! let mut bind = Bindings::new();
//! bind.bind(r, 64);
//! bind.bind(c, 128);
//!
//! let exe = Compiler::new().compile(&program, &bind)?;
//! // The analysis puts the inner (column) loop on dimension x.
//! assert!(exe.mapping.level(1).dim.is_x());
//!
//! let inputs: HashMap<_, _> = [(m, vec![1.0f64; 64 * 128])].into_iter().collect();
//! let report = exe.run(&inputs)?;
//! assert_eq!(report.outputs[&program.output.unwrap()][0], 128.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod fingerprint;

use multidim_codegen::{
    emit_cuda, fuse_map_reduce, lower_planned, CodegenOptions, DynParPlan, KernelProgram,
};
use multidim_device::GpuSpec;
use multidim_dynpar::choose;
use multidim_ir::{ArrayId, Bindings, NestInfo, Program};
use multidim_mapping::{
    analyze_with, collect_constraints, fixed_mapping, Analysis, Cost, MappingDecision, Strategy,
    Weights,
};
use multidim_sim::{run_program, run_program_capped, Capped, KernelRun, RunMetrics, SimResult};
use multidim_trace as trace;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

pub use fingerprint::Fingerprint;
pub use multidim_analyze::{
    analyze_program, cross_check, kernel_defect, lint_mapping, locality_cross_check, locality_of,
    seconds_lower_bound, AccessClass, AccessLocality, BankProof, Code, Diagnostic, LocalityFacts,
    LocalitySummary, Report as AnalysisReport, ReuseSummary, Severity, SmemProof, Verdict,
};
pub use multidim_codegen::{LaunchStrategy, LayoutPolicy, SiteDecision};
pub use multidim_dynpar::DynParPolicy;
pub use multidim_mapping::{Dim, Span};
pub use multidim_sim::{RunCounters, SanitizerReport};

/// Commonly used items, re-exported for applications.
pub mod prelude {
    pub use crate::{Compiler, Executable, RunReport};
    pub use multidim_codegen::{CodegenOptions, LaunchStrategy, LayoutPolicy};
    pub use multidim_device::{CpuSpec, GpuSpec, PcieSpec};
    pub use multidim_dynpar::DynParPolicy;
    pub use multidim_ir::{
        Bindings, Effect, Expr, Program, ProgramBuilder, ReduceOp, ScalarKind, Size, SymId,
    };
    pub use multidim_mapping::{Dim, MappingDecision, Span, Strategy};
}

/// A compilation failure anywhere in the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError(pub String);

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error: {}", self.0)
    }
}

impl std::error::Error for CompileError {}

impl From<multidim_ir::ValidateError> for CompileError {
    fn from(e: multidim_ir::ValidateError) -> CompileError {
        CompileError(e.to_string())
    }
}

impl From<multidim_codegen::LowerError> for CompileError {
    fn from(e: multidim_codegen::LowerError) -> CompileError {
        CompileError(e.to_string())
    }
}

impl From<multidim_codegen::KernelError> for CompileError {
    fn from(e: multidim_codegen::KernelError) -> CompileError {
        CompileError(e.to_string())
    }
}

/// An execution failure on the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunError(pub String);

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run error: {}", self.0)
    }
}

impl std::error::Error for RunError {}

impl From<multidim_sim::SimError> for RunError {
    fn from(e: multidim_sim::SimError) -> RunError {
        RunError(e.to_string())
    }
}

/// The pipeline driver: configure once, compile many programs.
///
/// Defaults: Tesla K20c, the paper's *MultiDim* analysis, fusion on, all
/// Section V optimizations on.
#[derive(Debug, Clone)]
pub struct Compiler {
    gpu: GpuSpec,
    strategy: Strategy,
    options: CodegenOptions,
    weights: Weights,
    fusion: bool,
    checks: bool,
    dynpar: DynParPolicy,
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler::new()
    }
}

impl Compiler {
    /// A compiler with the paper's evaluation configuration.
    pub fn new() -> Self {
        Compiler {
            gpu: GpuSpec::tesla_k20c(),
            strategy: Strategy::MultiDim,
            options: CodegenOptions::default(),
            weights: Weights::default(),
            fusion: true,
            checks: true,
            dynpar: DynParPolicy::Auto,
        }
    }

    /// Target a different device.
    pub fn gpu(mut self, gpu: GpuSpec) -> Self {
        self.gpu = gpu;
        self
    }

    /// Use a fixed mapping strategy instead of the analysis (the paper's
    /// baselines: 1D, thread-block/thread, warp-based).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Code-generation options (Section V optimizations).
    pub fn options(mut self, options: CodegenOptions) -> Self {
        self.options = options;
        self
    }

    /// Soft-constraint weights for the analysis.
    pub fn weights(mut self, weights: Weights) -> Self {
        self.weights = weights;
        self
    }

    /// Enable/disable map→reduce fusion (on by default; Figure 16's
    /// preallocation study runs with it off).
    pub fn fusion(mut self, on: bool) -> Self {
        self.fusion = on;
        self
    }

    /// Set the dynamic-parallelism consolidation policy (`Auto` by
    /// default). Programs whose inner nest extent is data-dependent get a
    /// per-site choice between inlining (thresholding), launch
    /// coarsening, and launch aggregation; `Force` holds one strategy,
    /// and `Force(Inline)` keeps the baseline lowering. See
    /// `multidim-dynpar` for the cost model.
    pub fn dynpar(mut self, policy: DynParPolicy) -> Self {
        self.dynpar = policy;
        self
    }

    /// Wrap this compiler in an [`Arc`](std::sync::Arc) for cheap sharing
    /// across service threads. Compilation takes `&self`, and every field
    /// is immutable configuration, so one shared compiler serves any
    /// number of concurrent requests without redoing per-request setup
    /// (device spec, weights, codegen options are constructed exactly
    /// once).
    pub fn shared(self) -> std::sync::Arc<Compiler> {
        std::sync::Arc::new(self)
    }

    /// A stable rendering of this compiler's configuration, folded into
    /// [`Compiler::fingerprint`] so that e.g. a fusion-off compiler never
    /// shares cache entries with a fusion-on one.
    pub fn config_digest(&self) -> String {
        format!(
            "strategy={:?};options={:?};weights={:?};fusion={};checks={};dynpar={:?}",
            self.strategy, self.options, self.weights, self.fusion, self.checks, self.dynpar
        )
    }

    /// The content address of compiling `program` under `bindings` with
    /// this compiler: equal fingerprints ⇒ interchangeable executables.
    /// This is the key of `multidim-engine`'s compilation cache and
    /// persistent tuning store; see [`fingerprint`] for what is hashed.
    pub fn fingerprint(&self, program: &Program, bindings: &Bindings) -> Fingerprint {
        fingerprint::fingerprint(program, bindings, &self.gpu, &self.config_digest())
    }

    /// Enable/disable the static-analysis stage (on by default).
    /// Error-severity diagnostics — proven races, proven out-of-bounds
    /// accesses — abort compilation; turn the stage off to compile a
    /// deliberately racy program (e.g. to watch the simulator's sanitizer
    /// catch it).
    pub fn checks(mut self, on: bool) -> Self {
        self.checks = on;
        self
    }

    /// The codegen options actually passed to lowering: the user's
    /// options with the shared-memory budget defaulted to the target
    /// device's capacity, so the Section V-B prefetch skips itself instead
    /// of emitting a kernel the footprint proof rejects.
    fn effective_options(&self) -> CodegenOptions {
        let mut opts = self.options.clone();
        opts.smem_budget = opts.smem_budget.or(Some(self.gpu.smem_per_sm));
        opts
    }

    /// Compile `program` for the sizes in `bindings`.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] if validation or lowering fails.
    pub fn compile(
        &self,
        program: &Program,
        bindings: &Bindings,
    ) -> Result<Executable, CompileError> {
        self.compile_traced(program, |program| {
            let (mapping, analysis) = self.choose_mapping(&program, bindings);
            self.compile_mapped(program, bindings, mapping, analysis)
        })
    }

    /// `program` after map→reduce fusion (when enabled), with the number
    /// of fusions applied.
    fn fuse(&self, program: &Program) -> (Program, usize) {
        if self.fusion {
            fuse_map_reduce(program)
        } else {
            (program.clone(), 0)
        }
    }

    /// The `core/compile` span around a whole compile: fuse and validate
    /// `program` under a `codegen/fuse` span, then finish with `rest`. The
    /// span names the program and counts the fusions applied as `fused`.
    fn compile_traced(
        &self,
        program: &Program,
        rest: impl FnOnce(Program) -> Result<Executable, CompileError>,
    ) -> Result<Executable, CompileError> {
        let mut sp = trace::span("core", "compile");
        let program = {
            let _fuse = trace::span("codegen", "fuse");
            let (program, fused) = self.fuse(program);
            if let Some(sp) = sp.as_mut() {
                sp.arg("program", program.name.as_str());
                sp.arg("fused", fused);
            }
            program.validate()?;
            program
        };
        rest(program)
    }

    /// The mapping [`Compiler::compile`] picks for an already fused and
    /// validated program: the analysis's decision under *MultiDim*, else
    /// the fixed strategy's mapping.
    fn choose_mapping(
        &self,
        program: &Program,
        bindings: &Bindings,
    ) -> (MappingDecision, Option<Analysis>) {
        match self.strategy {
            Strategy::MultiDim => {
                let a = analyze_with(program, bindings, &self.gpu, &self.weights);
                (a.decision.clone(), Some(a))
            }
            fixed => {
                let nest = NestInfo::of(program);
                let cs = collect_constraints(program, &nest, bindings, &self.gpu, &self.weights);
                (fixed_mapping(fixed, &nest, &cs), None)
            }
        }
    }

    /// The mapping [`Compiler::compile`] would pick for the program of a
    /// prepared tuning run — the analytic baseline a tuned mapping is
    /// compared against. It need not be one of the plan's candidates
    /// (the analysis's DOP control may rewrite spans).
    pub fn analytic_mapping(
        &self,
        prepared: &TunePrepared,
        bindings: &Bindings,
    ) -> MappingDecision {
        self.choose_mapping(&prepared.program, bindings).0
    }

    /// Empirically auto-tune the mapping: enumerate the hard-valid
    /// candidates (optionally score-pruned), simulate each with the given
    /// inputs, and return the executable for the fastest one.
    ///
    /// This recovers the Figure 17 "region C" false negatives the static
    /// score misses, at the cost of one simulation per candidate that its
    /// proven seconds floor cannot rule out. Each simulation runs against
    /// the best time committed before it and stops once its time provably
    /// exceeds it ([`multidim_sim::run_program_capped`]): its blocks so
    /// far plus the static floor of the blocks and kernels still to run,
    /// checked before its first block too. Such a candidate is measured
    /// with the bound it stopped at ([`Measured::cut`]). The candidates
    /// are lowered, floored and simulated on
    /// [`std::thread::available_parallelism`] threads, and `best`,
    /// `best_cost`, the measured candidates and the counts are the serial
    /// loop's ([`multidim_mapping::tune_parallel`]).
    ///
    /// A traced pass records a `core/autotune` span, with the helpers'
    /// spans nested under it and the arguments of [`TuneTally::record`]:
    /// `program`, `candidates`, `threads`, `simulations` (the simulator's
    /// runs, thrown-away speculation included), `cut` (the simulations
    /// stopped early), and `measured`, `pruned` and `skipped` when a
    /// candidate was measured.
    ///
    /// [`Measured::cut`]: multidim_mapping::Measured::cut
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when `options.max_measurements` is 0, or
    /// when no candidate both compiles and runs.
    pub fn autotune(
        &self,
        program: &Program,
        bindings: &Bindings,
        inputs: &HashMap<ArrayId, Vec<f64>>,
        options: &multidim_mapping::TuneOptions,
    ) -> Result<(Executable, multidim_mapping::TuneResult), CompileError> {
        let mut sp = trace::span("core", "autotune");
        let prepared = self.prepare_tune(program, bindings, options)?;
        let candidates = prepared.plan.candidates.len();
        let threads = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(candidates);
        // Floor pruning: a candidate whose proven seconds floor
        // ([`seconds_lower_bound`]) already exceeds the best simulated time
        // so far cannot win, so skip its simulation. Selection stays
        // bit-identical to measuring every candidate because the floor is
        // sound for every run that succeeds (`cost >= floor > best so
        // far`) and pruning only triggers on a strict comparison. A pruned
        // candidate may be one whose simulation would have failed: it is
        // then counted as pruned, not skipped.
        //
        // Each candidate is lowered once: the bound lowers it, and its
        // measurement simulates those kernels. A candidate that does not
        // lower or validate has no bound and fails its measurement.
        //
        // A simulation runs against the best time committed before it, and
        // stops once the time of its blocks so far, plus the floor of
        // what it has left, exceeds it: that candidate cannot win either.
        let facts = LocalityFacts::of(&prepared.program, bindings);
        let tally = TuneTally::default();
        let result = multidim_mapping::tune_parallel(
            &prepared.plan,
            options.max_measurements,
            threads,
            |cand| {
                let kernels = self.lower_candidate(&prepared, &cand.mapping);
                let bound = kernels.as_ref().map(|k| {
                    seconds_lower_bound(
                        &facts,
                        &cand.mapping,
                        k,
                        bindings,
                        &self.gpu,
                        self.options.smem_prefetch,
                    )
                });
                (bound, kernels)
            },
            |_, kernels, ceiling| {
                let kernels = kernels?;
                tally.simulated(self.simulated_cost(&kernels, bindings, inputs, ceiling))
            },
        );
        let name = prepared.program.name.as_str();
        tally.record(sp.as_mut(), name, candidates, threads, result.as_ref());
        let result =
            result.ok_or_else(|| CompileError("no mapping candidate was executable".into()))?;
        let exe = self.compile_tuned(&prepared, bindings, result.best.clone())?;
        Ok((exe, result))
    }

    /// Lower one tuning candidate with the prepared consolidation plan and
    /// validate it against device limits; `None` when either fails. These
    /// are exactly the kernels both tuners simulate: [`Compiler::autotune`]
    /// bounds and runs them, and `Engine::autotune` runs them through
    /// [`Compiler::measure_candidate_capped`].
    pub fn lower_candidate(
        &self,
        prepared: &TunePrepared,
        mapping: &MappingDecision,
    ) -> Option<KernelProgram> {
        let opts = self.effective_options();
        let kernels = lower_planned(&prepared.program, mapping, &opts, &prepared.dynpar).ok()?;
        multidim_codegen::validate_kernels(&kernels, self.gpu.smem_per_sm).ok()?;
        Some(kernels)
    }

    /// Simulated seconds of one lowered candidate; `None` when it faults.
    fn simulated_seconds(
        &self,
        kernels: &KernelProgram,
        bindings: &Bindings,
        inputs: &HashMap<ArrayId, Vec<f64>>,
    ) -> Option<f64> {
        let sim = run_program(kernels, &self.gpu, bindings, inputs).ok()?;
        Some(sim.total_seconds)
    }

    /// Simulated seconds of one lowered candidate against `ceiling`, or the
    /// bound the simulation stopped at; `None` when it faults first.
    fn simulated_cost(
        &self,
        kernels: &KernelProgram,
        bindings: &Bindings,
        inputs: &HashMap<ArrayId, Vec<f64>>,
        ceiling: &AtomicU64,
    ) -> Option<Cost> {
        match run_program_capped(kernels, &self.gpu, bindings, inputs, ceiling).ok()? {
            Capped::Finished(sim) => Some(Cost::exact(sim.total_seconds)),
            Capped::Cut(bound) => Some(Cost::cut(bound)),
        }
    }

    /// The serial front half of [`Compiler::autotune`]: fuse + validate the
    /// program once and enumerate the score-ordered candidate plan. The
    /// measurements over the plan are independent of each other and may
    /// run on any thread ([`Compiler::measure_candidate`]); selection
    /// tie-breaks on candidate index, so a caller that folds the costs
    /// through [`multidim_mapping::tune_pruned`] selects what a serial run
    /// selects.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when `options.max_measurements` is 0 (such
    /// a run could measure nothing), or if the (fused) program fails
    /// validation.
    pub fn prepare_tune(
        &self,
        program: &Program,
        bindings: &Bindings,
        options: &multidim_mapping::TuneOptions,
    ) -> Result<TunePrepared, CompileError> {
        if options.max_measurements == 0 {
            return Err(CompileError(
                "max_measurements is 0: a zero measurement cap lets no candidate be measured"
                    .into(),
            ));
        }
        let (program, _) = self.fuse(program);
        program.validate()?;
        let plan = multidim_mapping::plan(&program, bindings, &self.gpu, &self.weights, options);
        // One consolidation decision shared by every candidate: the plan
        // depends only on the program, sizes, and device, so measuring
        // candidates with it keeps tuning consistent with the final
        // compile_tuned artifact.
        let dynpar = choose(&program, bindings, &self.gpu, self.dynpar);
        Ok(TunePrepared {
            program,
            plan,
            dynpar,
        })
    }

    /// Measure one candidate of a prepared tuning plan: lower, validate
    /// against device limits, and simulate with `inputs`. Returns the
    /// simulated seconds, or `None` when the candidate is not executable.
    /// Thread-safe: takes `&self` and touches no shared mutable state, so
    /// any number of candidates can be measured concurrently.
    pub fn measure_candidate(
        &self,
        prepared: &TunePrepared,
        bindings: &Bindings,
        inputs: &HashMap<ArrayId, Vec<f64>>,
        mapping: &MappingDecision,
    ) -> Option<f64> {
        let kernels = self.lower_candidate(prepared, mapping)?;
        self.simulated_seconds(&kernels, bindings, inputs)
    }

    /// [`Compiler::measure_candidate`] against `ceiling`, an `f64`'s bits
    /// (the ceiling [`multidim_mapping::tune_parallel`] hands a
    /// measurement): the simulation stops once its time provably exceeds
    /// the ceiling, and returns [`Cost::cut`] with the bound it stopped
    /// at. A simulation that finishes returns the exact cost. Thread-safe
    /// like `measure_candidate`.
    pub fn measure_candidate_capped(
        &self,
        prepared: &TunePrepared,
        bindings: &Bindings,
        inputs: &HashMap<ArrayId, Vec<f64>>,
        mapping: &MappingDecision,
        ceiling: &AtomicU64,
    ) -> Option<Cost> {
        let kernels = self.lower_candidate(prepared, mapping)?;
        self.simulated_cost(&kernels, bindings, inputs, ceiling)
    }

    /// Compile the winning mapping of a prepared tuning run. The program
    /// inside `prepared` is already fused and validated, so this skips
    /// both (re-fusing an already-fused program would be wasted work).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] if lowering fails.
    pub fn compile_tuned(
        &self,
        prepared: &TunePrepared,
        bindings: &Bindings,
        mapping: MappingDecision,
    ) -> Result<Executable, CompileError> {
        self.compile_mapped(prepared.program.clone(), bindings, mapping, None)
    }

    /// Compile with an explicit mapping decision (used by the Figure 17
    /// score/performance sweep and by auto-tuners).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] if validation or lowering fails.
    pub fn compile_with_mapping(
        &self,
        program: &Program,
        bindings: &Bindings,
        mapping: MappingDecision,
    ) -> Result<Executable, CompileError> {
        self.compile_traced(program, |program| {
            self.compile_mapped(program, bindings, mapping, None)
        })
    }

    fn compile_mapped(
        &self,
        program: Program,
        bindings: &Bindings,
        mapping: MappingDecision,
        analysis: Option<Analysis>,
    ) -> Result<Executable, CompileError> {
        let mut diagnostics = if self.checks {
            self.check_program(&program, bindings, &mapping)?
        } else {
            multidim_analyze::Report::default()
        };
        let opts = self.effective_options();
        let dynpar = choose(&program, bindings, &self.gpu, self.dynpar);
        let kernels = lower_planned(&program, &mapping, &opts, &dynpar)?;
        {
            let _validate = trace::span("codegen", "validate");
            multidim_codegen::validate_kernels(&kernels, self.gpu.smem_per_sm)
                .map_err(|e| CompileError(multidim_analyze::kernel_defect(&e).render_line()))?;
        }
        let locality = if self.checks {
            let mut sp = trace::span("analyze", "locality");
            let facts = LocalityFacts::of(&program, bindings);
            let summary = locality_of(
                &facts,
                &mapping,
                &kernels,
                bindings,
                &self.gpu,
                opts.smem_prefetch,
            );
            // Render MD010–MD015 through the same report machinery as the
            // pre-lowering stage: abort on errors (proven smem overflow),
            // else ride along as diagnostics.
            let report = multidim_analyze::Report {
                program: program.name.clone(),
                diagnostics: summary.diagnostics(),
                arrays: Vec::new(),
            };
            if let Some(sp) = sp.as_mut() {
                sp.arg("codes", report.codes());
                sp.arg("tx_lower_bound", summary.tx_lower_bound);
            }
            if report.has_errors() {
                let lines: Vec<String> = report.errors().map(|d| d.render_line()).collect();
                return Err(CompileError(format!(
                    "locality analysis rejected `{}`:\n  {}",
                    report.program,
                    lines.join("\n  ")
                )));
            }
            diagnostics.diagnostics.extend(report.diagnostics);
            Some(summary)
        } else {
            None
        };
        Ok(Executable {
            program,
            mapping,
            analysis,
            diagnostics,
            locality,
            kernels,
            dynpar,
            gpu: self.gpu.clone(),
            bindings: bindings.clone(),
        })
    }

    /// The static-analysis stage: race/bounds proofs, nest lints, and
    /// mapping-dependent determinism lints. Errors abort compilation with
    /// their `MD` codes; warnings and infos ride along in
    /// [`Executable::diagnostics`]. The `analyze/static_analysis` span
    /// carries the codes and each array's verdicts.
    fn check_program(
        &self,
        program: &Program,
        bindings: &Bindings,
        mapping: &MappingDecision,
    ) -> Result<multidim_analyze::Report, CompileError> {
        let mut sp = trace::span("analyze", "static_analysis");
        let mut report = multidim_analyze::analyze_program(program, bindings);
        report
            .diagnostics
            .extend(multidim_analyze::lint_mapping(program, mapping));
        if let Some(sp) = sp.as_mut() {
            sp.arg("diagnostics", report.diagnostics.len() as u64);
            sp.arg("errors", report.errors().count() as u64);
            sp.arg("codes", report.codes());
            let verdicts = |verdict: fn(&multidim_analyze::ArrayVerdicts) -> Verdict| {
                let pairs: Vec<String> = report
                    .arrays
                    .iter()
                    .map(|v| format!("{}={}", v.name, verdict(v)))
                    .collect();
                pairs.join(" ")
            };
            sp.arg("race_free", verdicts(|v| v.race_free));
            sp.arg("in_bounds", verdicts(|v| v.in_bounds));
        }
        if report.has_errors() {
            let lines: Vec<String> = report.errors().map(|d| d.render_line()).collect();
            return Err(CompileError(format!(
                "static analysis rejected `{}`:\n  {}",
                report.program,
                lines.join("\n  ")
            )));
        }
        Ok(report)
    }
}

/// The reusable front half of a tuning run: the fused, validated program
/// and its score-ordered candidate plan. Produced by
/// [`Compiler::prepare_tune`]; constraint collection and candidate
/// enumeration happen exactly once here no matter how many threads then
/// measure candidates.
#[derive(Debug, Clone)]
pub struct TunePrepared {
    /// The program after fusion and validation.
    pub program: Program,
    /// Candidates to measure, best static score first.
    pub plan: multidim_mapping::TunePlan,
    /// The launch-consolidation decision shared by every candidate.
    pub dynpar: DynParPlan,
}

/// The simulations of one tuning pass, counted for the pass's span. Both
/// [`Compiler::autotune`] (`core/autotune`) and the engine's tuner record
/// their spans through [`TuneTally::record`], so the two carry the same
/// arguments.
#[derive(Debug, Default)]
pub struct TuneTally {
    simulations: AtomicUsize,
    cut: AtomicUsize,
}

impl TuneTally {
    /// Count one simulation that ended with `cost` (`None` when it
    /// failed), and hand the cost on. Thread-safe.
    pub fn simulated(&self, cost: Option<Cost>) -> Option<Cost> {
        self.simulations.fetch_add(1, Ordering::Relaxed);
        if cost.is_some_and(|c| c.cut) {
            self.cut.fetch_add(1, Ordering::Relaxed);
        }
        cost
    }

    /// Record a tuning pass's arguments on its span: `program`,
    /// `candidates` (the plan's), `threads`, `simulations` (thrown-away
    /// speculation included), `cut` (the simulations stopped early), and
    /// `measured`, `pruned` and `skipped` when a candidate was measured.
    pub fn record(
        self,
        span: Option<&mut trace::Span>,
        program: &str,
        candidates: usize,
        threads: usize,
        result: Option<&multidim_mapping::TuneResult>,
    ) {
        let Some(sp) = span else {
            return;
        };
        sp.arg("program", program);
        sp.arg("candidates", candidates);
        sp.arg("threads", threads);
        sp.arg("simulations", self.simulations.into_inner());
        sp.arg("cut", self.cut.into_inner());
        if let Some(r) = result {
            sp.arg("measured", r.measured.len());
            sp.arg("pruned", r.pruned);
            sp.arg("skipped", r.skipped);
        }
    }
}

/// A compiled program, ready to run on the simulator.
#[derive(Debug, Clone)]
pub struct Executable {
    /// The (possibly fused) program that was compiled.
    pub program: Program,
    /// The selected mapping decision.
    pub mapping: MappingDecision,
    /// The full analysis result when the *MultiDim* strategy ran.
    pub analysis: Option<Analysis>,
    /// Static-analysis diagnostics (empty when checks were disabled);
    /// error-severity findings never reach here — they abort compilation.
    pub diagnostics: multidim_analyze::Report,
    /// Locality proofs for the selected mapping (coalescing classes,
    /// bank-conflict degrees, shared-memory footprint, reuse, and the
    /// transaction/seconds lower bounds). `None` when checks were disabled.
    pub locality: Option<LocalitySummary>,
    /// The generated kernels and buffer plan.
    pub kernels: KernelProgram,
    /// The dynamic-parallelism consolidation decision (`site: None` when
    /// the program has no data-dependent launch site or the stage is off).
    pub dynpar: DynParPlan,
    gpu: GpuSpec,
    bindings: Bindings,
}

impl Executable {
    /// Execute on the simulator with host `inputs` (keyed by array id).
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] for missing inputs or kernel faults.
    pub fn run(&self, inputs: &HashMap<ArrayId, Vec<f64>>) -> Result<RunReport, RunError> {
        let mut sp = trace::span("core", "run");
        if let Some(sp) = sp.as_mut() {
            sp.arg("program", self.kernels.name.as_str());
        }
        Ok(run_program(&self.kernels, &self.gpu, &self.bindings, inputs)?.into())
    }

    /// Execute with the simulator's sanitizer on: every non-atomic global
    /// store is recorded per kernel, and elements written by two different
    /// threads in one launch come back as conflicts. Use
    /// [`cross_check`] to compare the
    /// observations against [`Executable::diagnostics`].
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] for missing inputs or kernel faults.
    pub fn run_sanitized(
        &self,
        inputs: &HashMap<ArrayId, Vec<f64>>,
    ) -> Result<(RunReport, SanitizerReport), RunError> {
        let mut sp = trace::span("core", "run_sanitized");
        if let Some(sp) = sp.as_mut() {
            sp.arg("program", self.kernels.name.as_str());
        }
        let (sim, san) =
            multidim_sim::run_program_sanitized(&self.kernels, &self.gpu, &self.bindings, inputs)?;
        Ok((sim.into(), san))
    }

    /// Machine-readable metrics for a finished run — the export format
    /// behind `metrics.json` and the benches' `--report` flag.
    pub fn metrics(&self, run: &RunReport) -> RunMetrics {
        RunMetrics::of(&self.kernels.name, &self.gpu, &run.kernels, run.gpu_seconds)
    }

    /// The generated CUDA C source (Figure 9's shape), for inspection.
    pub fn cuda_source(&self) -> String {
        emit_cuda(&self.kernels)
    }

    /// A profiler-style report for a finished run: per-kernel bound-by
    /// classification, coalescing ratios, and occupancy.
    pub fn report(&self, run: &RunReport) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "program `{}` under {}", self.kernels.name, self.mapping);
        for k in &run.kernels {
            s.push_str(&multidim_sim::kernel_report(&self.gpu, k));
        }
        let _ = writeln!(s, "total: {:.3} ms", run.gpu_seconds * 1e3);
        s
    }

    /// The launch-time size bindings this executable was specialized for.
    pub fn bindings(&self) -> &Bindings {
        &self.bindings
    }

    /// The target device.
    pub fn device(&self) -> &GpuSpec {
        &self.gpu
    }
}

/// The outcome of one simulated execution.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Final contents of every materialized program array.
    pub outputs: HashMap<ArrayId, Vec<f64>>,
    /// Total simulated GPU time (sum over kernels), seconds.
    pub gpu_seconds: f64,
    /// One record per kernel launch, in launch order.
    pub kernels: Vec<KernelRun>,
}

impl From<SimResult> for RunReport {
    fn from(sim: SimResult) -> RunReport {
        RunReport {
            outputs: sim.arrays,
            gpu_seconds: sim.total_seconds,
            kernels: sim.kernels,
        }
    }
}

impl RunReport {
    /// The output array for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not an output of the program.
    pub fn output(&self, id: ArrayId) -> &[f64] {
        &self.outputs[&id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multidim_ir::{ProgramBuilder, ReduceOp, ScalarKind, Size};

    fn sum_cols(r: i64, c: i64) -> (Program, Bindings, ArrayId) {
        let mut b = ProgramBuilder::new("sumCols");
        let rs = b.sym("R");
        let cs = b.sym("C");
        let m = b.input("m", ScalarKind::F32, &[Size::sym(rs), Size::sym(cs)]);
        let root = b.map(Size::sym(cs), |b, col| {
            b.reduce(Size::sym(rs), ReduceOp::Add, |b, row| {
                b.read(m, &[row.into(), col.into()])
            })
        });
        let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
        let mut bind = Bindings::new();
        bind.bind(rs, r);
        bind.bind(cs, c);
        (p, bind, m)
    }

    #[test]
    fn pipeline_end_to_end() {
        let (p, bind, m) = sum_cols(32, 48);
        let exe = Compiler::new().compile(&p, &bind).unwrap();
        let data: Vec<f64> = (0..32 * 48).map(|x| (x % 7) as f64).collect();
        let inputs: HashMap<_, _> = [(m, data.clone())].into_iter().collect();
        let report = exe.run(&inputs).unwrap();

        let r = multidim_ir::interpret(&p, &bind, &inputs).unwrap();
        assert_eq!(
            report.output(p.output.unwrap()),
            &r.array(p.output.unwrap()).data[..]
        );
        assert!(report.gpu_seconds > 0.0);
    }

    #[test]
    fn fixed_strategy_pipeline() {
        let (p, bind, m) = sum_cols(16, 16);
        for s in [
            Strategy::OneD,
            Strategy::ThreadBlockThread,
            Strategy::WarpBased,
        ] {
            let exe = Compiler::new().strategy(s).compile(&p, &bind).unwrap();
            let inputs: HashMap<_, _> = [(m, vec![1.0f64; 16 * 16])].into_iter().collect();
            let report = exe.run(&inputs).unwrap();
            assert!(
                report.output(p.output.unwrap()).iter().all(|&v| v == 16.0),
                "{s} wrong"
            );
        }
    }

    #[test]
    fn launch_policy_splits_the_fingerprint() {
        // Same program, same sizes, same device: compilers differing only
        // in the consolidation policy must not share cache entries (they
        // generate different kernels).
        let (p, bind, _) = sum_cols(32, 48);
        let auto = Compiler::new();
        let forced = Compiler::new().dynpar(DynParPolicy::Force(LaunchStrategy::Aggregate));
        let off = Compiler::new().dynpar(DynParPolicy::Force(LaunchStrategy::Inline));
        let base = auto.fingerprint(&p, &bind);
        assert_ne!(base, forced.fingerprint(&p, &bind));
        assert_ne!(base, off.fingerprint(&p, &bind));
    }

    #[test]
    fn dynamic_estimate_hint_splits_the_fingerprint() {
        // Two programs identical except for the mean inner-extent hint:
        // the hint steers the consolidation choice, so the fingerprints
        // must differ.
        let build = |hint: i64| {
            let mut b = ProgramBuilder::new("hinted");
            let n = b.sym("N");
            let rp = b.input("rp", ScalarKind::I32, &[Size::sym(n) + Size::from(1)]);
            let root = b.map(Size::sym(n), |b, i| {
                let start = b.read(rp, &[i.into()]);
                let end = b.read(
                    rp,
                    &[multidim_ir::Expr::var(i) + multidim_ir::Expr::lit(1.0)],
                );
                b.reduce_dyn(end - start, hint, ReduceOp::Add, |_b, _j| {
                    multidim_ir::Expr::lit(1.0)
                })
            });
            let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
            let mut bind = Bindings::new();
            bind.bind(n, 64);
            (p, bind)
        };
        let (p3, b3) = build(3);
        let (p9, b9) = build(9);
        let c = Compiler::new();
        assert_ne!(c.fingerprint(&p3, &b3), c.fingerprint(&p9, &b9));
    }

    #[test]
    fn cuda_source_is_emitted() {
        let (p, bind, _) = sum_cols(8, 8);
        let exe = Compiler::new().compile(&p, &bind).unwrap();
        let src = exe.cuda_source();
        assert!(src.contains("__global__"));
        assert!(src.contains("sumCols"));
    }

    #[test]
    fn explicit_mapping_respected() {
        use multidim_mapping::LevelMapping;
        let (p, bind, m) = sum_cols(16, 64);
        let mapping = MappingDecision::new(vec![
            LevelMapping {
                dim: Dim::Y,
                block_size: 8,
                span: Span::ONE,
            },
            LevelMapping {
                dim: Dim::X,
                block_size: 32,
                span: Span::All,
            },
        ]);
        let config = trace::TailSamplerConfig::keep_all();
        let installed = trace::install_store(std::sync::Arc::new(trace::TraceStore::new(config)));
        let (exe, kept) = trace::collect("test", "sumCols", || {
            Compiler::new()
                .compile_with_mapping(&p, &bind, mapping.clone())
                .unwrap()
        });
        drop(installed);
        assert_eq!(exe.mapping, mapping);
        // An explicit-mapping compile (the engine's tuned-store path) opens
        // the same `core/compile` span as `compile`.
        let spans = kept.expect("kept").spans;
        let span = spans
            .iter()
            .find(|s| (s.cat, s.name) == ("core", "compile"))
            .map(trace::chrome::span_event)
            .expect("core/compile span");
        assert_eq!(span.get_str("program"), Some("sumCols"));
        assert_eq!(span.get_u64("fused"), Some(0));
        let inputs: HashMap<_, _> = [(m, vec![2.0f64; 16 * 64])].into_iter().collect();
        let report = exe.run(&inputs).unwrap();
        assert!(report.output(p.output.unwrap()).iter().all(|&v| v == 32.0));
    }
}

#[cfg(test)]
mod report_tests {
    use super::*;
    use multidim_ir::{ProgramBuilder, ReduceOp, ScalarKind, Size};

    #[test]
    fn report_renders_per_kernel_diagnosis() {
        let mut b = ProgramBuilder::new("sumRows");
        let r = b.sym("R");
        let c = b.sym("C");
        let m = b.input("m", ScalarKind::F32, &[Size::sym(r), Size::sym(c)]);
        let root = b.map(Size::sym(r), |b, row| {
            b.reduce(Size::sym(c), ReduceOp::Add, |b, col| {
                b.read(m, &[row.into(), col.into()])
            })
        });
        let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
        let mut bind = Bindings::new();
        bind.bind(r, 128);
        bind.bind(c, 256);
        let exe = Compiler::new().compile(&p, &bind).unwrap();
        let inputs: HashMap<_, _> = [(m, vec![1.0; 128 * 256])].into_iter().collect();
        let run = exe.run(&inputs).unwrap();
        let text = exe.report(&run);
        assert!(text.contains("sumRows_kernel"), "{text}");
        assert!(text.contains("coalescing"), "{text}");
        assert!(text.contains("total:"), "{text}");
    }
}
