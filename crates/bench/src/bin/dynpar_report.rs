//! Dynamic-parallelism consolidation report.
//!
//! ```text
//! dynpar_report [--report <path>]
//! ```
//!
//! Sweeps the power-law SpMV workload over a grid of shapes (small /
//! wide-row / narrow-row) and Zipf skews (0.8 / 1.0 / 1.2), compiling
//! each point twice: once under the `Auto` consolidation policy and once
//! with per-row child launches forced (`Naive`, the uncoarsened
//! dynamic-parallelism baseline). Both executables run on the simulator
//! and the report records the chosen strategy, simulated times, launch
//! counters, and the speedup.
//!
//! The bin self-gates: it exits non-zero unless (a) the Auto policy
//! selects all three consolidation strategies (inline / coarsen /
//! aggregate) somewhere across the sweep, and (b) consolidation beats
//! the naive baseline by at least 2x on the wide-row config at skew 1.0.

use multidim::prelude::*;
use multidim::LaunchStrategy;
use multidim_ir::ArrayId;
use multidim_trace::json::Json;
use multidim_workloads::apps::spmv;
use multidim_workloads::data::CsrGraph;
use std::collections::HashMap;
use std::process::ExitCode;

/// The sweep's shape grid: (label, rows, mean degree). Sized so the
/// default `Auto` policy exercises every strategy: `small` falls under
/// the work floor (inline), `wide` has warp-filling rows (coarsen), and
/// `narrow` has tiny rows at large scale (aggregate).
const SHAPES: [(&str, usize, usize); 3] =
    [("small", 384, 8), ("wide", 4096, 16), ("narrow", 131072, 2)];

/// Zipf skew sweep from the issue: moderate, heavy, and extreme tails.
const ALPHAS: [f64; 3] = [0.8, 1.0, 1.2];

fn case(rows: usize, mean: usize, alpha: f64) -> (Program, Bindings, HashMap<ArrayId, Vec<f64>>) {
    let g = CsrGraph::zipf(rows, mean, alpha, 91);
    let (p, n, e, row_ptr, col_idx, vals, x) = spmv::zipf_program(g.mean_degree());
    let mut bind = Bindings::new();
    bind.bind(n, g.nodes as i64);
    bind.bind(e, g.edges as i64);
    let vs: Vec<f64> = (0..g.edges).map(|i| 1.0 + (i % 3) as f64 * 0.5).collect();
    let xs: Vec<f64> = (0..g.nodes).map(|i| (i % 7) as f64 * 0.25).collect();
    let inputs: HashMap<_, _> = [
        (row_ptr, g.row_ptr.clone()),
        (col_idx, g.col_idx.clone()),
        (vals, vs),
        (x, xs),
    ]
    .into_iter()
    .collect();
    (p, bind, inputs)
}

fn child_launches(run: &RunReport) -> u64 {
    run.kernels.iter().map(|k| k.cost.child_launches).sum()
}

fn main() -> ExitCode {
    let mut report_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--report" => report_path = args.next(),
            "--help" | "-h" => {
                eprintln!("usage: dynpar_report [--report <path>]");
                return ExitCode::from(2);
            }
            other => {
                eprintln!("unknown flag `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let mut rows = Vec::new();
    let mut selected: Vec<&'static str> = Vec::new();
    let mut gate_speedup: Option<f64> = None;

    for (label, n, mean) in SHAPES {
        for alpha in ALPHAS {
            let (p, bind, inputs) = case(n, mean, alpha);
            let auto = Compiler::new()
                .compile(&p, &bind)
                .expect("auto compile failed");
            let naive = Compiler::new()
                .dynpar(DynParPolicy::Force(LaunchStrategy::Naive))
                .compile(&p, &bind)
                .expect("naive compile failed");
            let fast = auto.run(&inputs).expect("auto run failed");
            let slow = naive.run(&inputs).expect("naive run failed");
            let out = p.output.expect("spmv has an output");
            assert_eq!(
                fast.outputs[&out], slow.outputs[&out],
                "{label} alpha={alpha}: consolidated output diverges from naive"
            );
            let site = auto.dynpar.site.as_ref().expect("launch site expected");
            let strategy = site.strategy.name();
            if !selected.contains(&strategy) {
                selected.push(strategy);
            }
            let speedup = slow.gpu_seconds / fast.gpu_seconds;
            if label == "wide" && alpha == 1.0 {
                gate_speedup = Some(speedup);
            }
            println!(
                "{label:>6} rows={n:<7} mean={mean:<3} alpha={alpha:<4} -> {strategy:<10} \
                 naive {:>9.1}us  auto {:>9.1}us  ({speedup:.1}x)",
                slow.gpu_seconds * 1e6,
                fast.gpu_seconds * 1e6,
            );
            rows.push(Json::Obj(vec![
                ("workload".into(), Json::Str("spmv_zipf".into())),
                ("shape".into(), Json::Str(label.into())),
                ("rows".into(), Json::Num(n as f64)),
                ("mean_degree".into(), Json::Num(mean as f64)),
                ("alpha".into(), Json::Num(alpha)),
                ("strategy".into(), Json::Str(strategy.into())),
                ("reason".into(), Json::Str(site.reason.clone())),
                ("naive_us".into(), Json::Num(slow.gpu_seconds * 1e6)),
                ("auto_us".into(), Json::Num(fast.gpu_seconds * 1e6)),
                ("speedup".into(), Json::Num(speedup)),
                (
                    "naive_child_launches".into(),
                    Json::Num(child_launches(&slow) as f64),
                ),
                (
                    "auto_child_launches".into(),
                    Json::Num(child_launches(&fast) as f64),
                ),
            ]));
        }
    }

    let gate_speedup = gate_speedup.expect("wide/alpha=1.0 row must exist");
    let all_three = ["inline", "coarsen", "aggregate"]
        .iter()
        .all(|s| selected.contains(s));
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str("dynpar".into())),
        (
            "strategies_selected".into(),
            Json::Arr(selected.iter().map(|s| Json::Str((*s).into())).collect()),
        ),
        ("wide_alpha1_speedup".into(), Json::Num(gate_speedup)),
        ("rows".into(), Json::Arr(rows)),
    ]);
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(&path, doc.render()) {
            eprintln!("cannot write report `{path}`: {e}");
            return ExitCode::from(2);
        }
        println!("report written to {path}");
    }

    if !all_three {
        eprintln!("GATE: expected inline/coarsen/aggregate all selected, got {selected:?}");
        return ExitCode::FAILURE;
    }
    if gate_speedup < 2.0 {
        eprintln!("GATE: wide-row consolidation speedup {gate_speedup:.2}x < 2x at alpha 1.0");
        return ExitCode::FAILURE;
    }
    println!(
        "gates pass: strategies {{{}}}, wide-row speedup {gate_speedup:.1}x",
        selected.join(", ")
    );
    ExitCode::SUCCESS
}
