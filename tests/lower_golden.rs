//! Lowering golden: every catalog program, compiled under each code
//! generator configuration, must reproduce the committed digest of its
//! `KernelProgram` — kernels, local numbering, buffers and notes — or the
//! committed first line of its compile error.
//!
//! The configurations are the analysis, the three fixed strategies, both
//! forced temporary layouts, device `malloc`, prefetch off, fusion off, and
//! each forced launch-consolidation strategy. The catalog has both launch
//! site shapes: spmv and spmv_zipf are map→reduce_dyn, bfs_step and
//! ragged_filter are foreach→foreach_dyn. (pagerank_step's dynamic reduce
//! sits under arithmetic, which no site shape matches, so its forced lines
//! equal its analysis line.) `tests/sim_golden.rs` pins what the kernels
//! compute and cost under the default consolidation policy; this record
//! pins the kernels themselves, including what the simulator cannot see.
//!
//! The record also holds Figure 9: sumRows' generated CUDA under the
//! analysis, verbatim. On a mismatch the test writes the full actual
//! record next to the build's temporary files and names the first
//! differing line; a change that alters generated code on purpose
//! re-records `tests/golden/lower_golden.txt` from that file.

#[path = "support/golden.rs"]
mod golden;

use multidim::prelude::*;
use multidim_workloads::catalog::catalog;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/lower_golden.txt");

fn configs() -> Vec<(&'static str, Compiler)> {
    let options = |edit: fn(&mut CodegenOptions)| {
        let mut o = CodegenOptions::default();
        edit(&mut o);
        Compiler::new().options(o)
    };
    let force = |strategy| Compiler::new().dynpar(DynParPolicy::Force(strategy));
    vec![
        ("analysis", Compiler::new()),
        ("1D", Compiler::new().strategy(Strategy::OneD)),
        (
            "ThreadBlock/Thread",
            Compiler::new().strategy(Strategy::ThreadBlockThread),
        ),
        ("Warp-based", Compiler::new().strategy(Strategy::WarpBased)),
        (
            "layout=row-major",
            options(|o| o.layout = LayoutPolicy::ForceRowMajor),
        ),
        (
            "layout=col-major",
            options(|o| o.layout = LayoutPolicy::ForceColMajor),
        ),
        ("device_malloc", options(|o| o.device_malloc = true)),
        ("smem_prefetch=off", options(|o| o.smem_prefetch = false)),
        ("fusion=off", Compiler::new().fusion(false)),
        ("dynpar=naive", force(LaunchStrategy::Naive)),
        ("dynpar=coarsen(0)", force(LaunchStrategy::Coarsen(0))),
        ("dynpar=aggregate", force(LaunchStrategy::Aggregate)),
    ]
}

/// One line per (program, configuration), plus Figure 9's CUDA text.
fn record() -> String {
    let configs = configs();
    let mut out = String::new();
    for e in catalog() {
        for (label, compiler) in &configs {
            let exe = match compiler.compile(&e.program, &e.bindings) {
                Ok(exe) => exe,
                Err(err) => {
                    let first = err.to_string();
                    let first = first.lines().next().unwrap_or_default();
                    let _ = writeln!(out, "{} under {label}: does not compile: {first}", e.name());
                    continue;
                }
            };
            let kp = &exe.kernels;
            let digest = golden::fnv1a(format!("{kp:?}").into_bytes());
            let _ = writeln!(
                out,
                "{} under {label}: {} kernels, {} children, {} buffers, {digest:016x}",
                e.name(),
                kp.kernels.len(),
                kp.children.len(),
                kp.buffers.len()
            );
            if e.name() == "sumRows" && *label == "analysis" {
                let _ = writeln!(out, "-- Figure 9: sumRows CUDA under the analysis");
                out.push_str(&exe.cuda_source());
                let _ = writeln!(out, "-- end of Figure 9");
            }
        }
    }
    out
}

#[test]
fn lowering_reproduces_the_golden_record_over_the_catalog() {
    golden::check("lower_golden", GOLDEN, &record());
}
