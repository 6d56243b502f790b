//! Simulator golden: every catalog program, compiled under the analysis
//! and under each fixed strategy, must reproduce the committed run record
//! exactly — its `RunMetrics` JSON (every cost counter and every f64 time
//! bit-for-bit, through shortest-round-trip rendering), a digest of the
//! f64 bits of every output array, and what the sanitizer observed.
//!
//! The record pins the simulator's observable behaviour, so any change to
//! its execution order, cost accounting or floating-point evaluation
//! shows up here as a diff against `tests/golden/sim_golden.txt`. On a
//! mismatch the test writes the full actual record next to the build's
//! temporary files and names the first differing line.

#[path = "support/golden.rs"]
mod golden;

use multidim::prelude::*;
use multidim::SanitizerReport;
use multidim_workloads::catalog::catalog;
use std::collections::HashMap;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/sim_golden.txt");

/// 64-bit FNV-1a over the f64 bits of `values`.
fn digest(values: &[f64]) -> u64 {
    golden::fnv1a(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

fn outputs_line(outputs: &HashMap<multidim_ir::ArrayId, Vec<f64>>) -> String {
    let mut ids: Vec<_> = outputs.keys().copied().collect();
    ids.sort();
    let mut line = String::from("outputs");
    for id in ids {
        let values = &outputs[&id];
        let _ = write!(line, " a{}:{}:{:016x}", id.0, values.len(), digest(values));
    }
    line
}

fn sanitizer_line(san: &SanitizerReport) -> String {
    let mut line = format!(
        "sanitizer tracked={} conflicts={}",
        san.tracked_stores,
        san.conflicts.len()
    );
    for c in &san.conflicts {
        let _ = write!(
            line,
            " [{} {} {} {}/{}]",
            c.kernel, c.buffer, c.index, c.first_tid, c.second_tid
        );
    }
    line
}

/// The full record: one block per (program, configuration).
fn record() -> String {
    let configs: [(&str, Compiler); 4] = [
        ("analysis", Compiler::new()),
        ("1D", Compiler::new().strategy(Strategy::OneD)),
        (
            "ThreadBlock/Thread",
            Compiler::new().strategy(Strategy::ThreadBlockThread),
        ),
        ("Warp-based", Compiler::new().strategy(Strategy::WarpBased)),
    ];
    let mut out = String::new();
    for e in catalog() {
        for (label, compiler) in &configs {
            let _ = writeln!(out, "== {} under {label}", e.name());
            let exe = match compiler.compile(&e.program, &e.bindings) {
                Ok(exe) => exe,
                Err(err) => {
                    let first = err.to_string();
                    let first = first.lines().next().unwrap_or_default();
                    let _ = writeln!(out, "does not compile: {first}");
                    continue;
                }
            };
            match exe.run(&e.inputs) {
                Ok(run) => {
                    let _ = writeln!(out, "metrics {}", exe.metrics(&run).render());
                    let _ = writeln!(out, "{}", outputs_line(&run.outputs));
                }
                Err(err) => {
                    let _ = writeln!(out, "run fails: {err}");
                }
            }
            match exe.run_sanitized(&e.inputs) {
                Ok((_, san)) => {
                    let _ = writeln!(out, "{}", sanitizer_line(&san));
                }
                Err(err) => {
                    let _ = writeln!(out, "sanitized run fails: {err}");
                }
            }
        }
    }
    out
}

#[test]
fn simulator_reproduces_the_golden_record_over_the_catalog() {
    golden::check("sim_golden", GOLDEN, &record());
}
