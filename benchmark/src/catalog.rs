//! The shared set-up: every catalog program with verified reference
//! outputs, and the per-program rows of the report.

use crate::check::{matches_interpreter, Outputs};
use crate::stats::{geomean, median};
use multidim::{Code, Compiler, Executable};
use multidim_ir::{interpret, Bindings, InterpResult, Program};
use std::time::Instant;

/// One catalog program with its references, computed at set-up.
pub struct Entry {
    pub program: Program,
    pub bindings: Bindings,
    pub inputs: Outputs,
    /// The reference interpreter's result.
    pub interp: InterpResult,
    /// `Compiler::compile` of the program under the default compiler.
    pub exe: Executable,
    /// The outputs of running `exe`; serve responses must equal them bit
    /// for bit.
    pub outputs: Outputs,
    /// The analyzer could not prove the program race-free (MD002).
    racy: bool,
}

impl Entry {
    pub fn name(&self) -> &str {
        &self.program.name
    }

    /// `got` matches the interpreter. A program whose writes may race
    /// (QPSCD's HogWild updates, BFS's duplicate frontier writes) has no
    /// sequential specification, so the check passes it; its serve
    /// responses are still held bit-identical to the reference run.
    pub fn check_interpreter(&self, got: &Outputs) -> Result<(), String> {
        if self.racy {
            return Ok(());
        }
        matches_interpreter(&self.program, &self.interp, got)
    }
}

/// Load the catalog, compile and run every program once and check its
/// outputs against the interpreter. Compile and simulate times go into
/// `rows`. A program that fails here fails the set-up.
pub fn load(compiler: &Compiler, rows: &mut Rows) -> Result<Vec<Entry>, String> {
    let catalog = multidim_workloads::catalog::catalog();
    if rows.names.is_empty() {
        *rows = Rows::new(catalog.iter().map(|e| e.name().to_string()).collect());
    }
    catalog
        .into_iter()
        .enumerate()
        .map(|(i, e)| {
            let name = e.name().to_string();
            let interp = interpret(&e.program, &e.bindings, &e.inputs)
                .map_err(|err| format!("`{name}`: {err}"))?;
            let t = Instant::now();
            let exe = compiler
                .compile(&e.program, &e.bindings)
                .map_err(|err| format!("`{name}`: {err}"))?;
            rows.compile_us[i].push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let run = exe
                .run(&e.inputs)
                .map_err(|err| format!("`{name}`: {err}"))?;
            rows.simulate_us[i].push(t.elapsed().as_secs_f64() * 1e6);
            rows.gpu_us[i] = run.gpu_seconds * 1e6;
            let racy = exe
                .diagnostics
                .diagnostics
                .iter()
                .any(|d| d.code == Code::MAYBE_RACE);
            let entry = Entry {
                program: e.program,
                bindings: e.bindings,
                inputs: e.inputs,
                interp,
                exe,
                outputs: run.outputs,
                racy,
            };
            entry.check_interpreter(&entry.outputs)?;
            Ok(entry)
        })
        .collect()
}

/// Per-program samples behind the report's table.
#[derive(Debug, Default)]
pub struct Rows {
    pub names: Vec<String>,
    pub compile_us: Vec<Vec<f64>>,
    pub simulate_us: Vec<Vec<f64>>,
    /// Simulated GPU time of the analytic mapping (exact).
    pub gpu_us: Vec<f64>,
    /// Simulated GPU time of the tuned mapping (exact), when tuned.
    pub tuned_gpu_us: Vec<Option<f64>>,
    /// Wall time of each autotune of the program.
    pub tune_s: Vec<Vec<f64>>,
}

impl Rows {
    fn new(names: Vec<String>) -> Rows {
        let n = names.len();
        Rows {
            names,
            compile_us: vec![Vec::new(); n],
            simulate_us: vec![Vec::new(); n],
            gpu_us: vec![0.0; n],
            tuned_gpu_us: vec![None; n],
            tune_s: vec![Vec::new(); n],
        }
    }

    /// Geometric mean of the analytic mappings' simulated GPU time.
    pub fn gpu_us_geomean(&self) -> f64 {
        geomean(&self.gpu_us)
    }

    /// Geometric mean of the tuned mappings' simulated GPU time; 0 unless
    /// every program was tuned.
    pub fn tuned_gpu_us_geomean(&self) -> f64 {
        let tuned: Option<Vec<f64>> = self.tuned_gpu_us.iter().copied().collect();
        tuned.map_or(0.0, |t| geomean(&t))
    }

    /// One row per program, medians of the samples, then the geometric
    /// means. Columns: name, compile µs, simulate µs, GPU µs, tuned GPU
    /// µs, tune s (the last two `NaN` when not tuned).
    pub fn table(&self) -> Vec<(String, [f64; 5])> {
        let mut rows: Vec<(String, [f64; 5])> = self
            .names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let tuned = self.tuned_gpu_us[i].unwrap_or(f64::NAN);
                let tune = if self.tune_s[i].is_empty() {
                    f64::NAN
                } else {
                    median(&self.tune_s[i])
                };
                let row = [
                    median(&self.compile_us[i]),
                    median(&self.simulate_us[i]),
                    self.gpu_us[i],
                    tuned,
                    tune,
                ];
                (name.clone(), row)
            })
            .collect();
        let column_geomean = |c: usize| -> f64 {
            let v: Vec<f64> = rows.iter().map(|(_, r)| r[c]).collect();
            if v.iter().all(|x| x.is_finite() && *x > 0.0) {
                geomean(&v)
            } else {
                f64::NAN
            }
        };
        let total = [0, 1, 2, 3, 4].map(column_geomean);
        rows.push(("geomean".to_string(), total));
        rows
    }
}
