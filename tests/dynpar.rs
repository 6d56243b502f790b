//! Dynamic-parallelism consolidation, end to end through the `Compiler`:
//! every launch strategy on the irregular workloads must (a) reproduce
//! the interpreter's reference outputs exactly, (b) survive the
//! sanitizer with zero static/dynamic disagreements, and (c) record its
//! decision in the executable's metadata.

use multidim::prelude::*;
use multidim::{cross_check, LaunchStrategy};
use multidim_ir::interpret;
use multidim_workloads::apps::{ragged, spmv};
use multidim_workloads::catalog::catalog;
use multidim_workloads::data::{CsrGraph, Rng};
use std::collections::HashMap;

fn spmv_case(
    rows: usize,
    mean: usize,
    alpha: f64,
) -> (Program, Bindings, HashMap<multidim_ir::ArrayId, Vec<f64>>) {
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

fn ragged_case(
    segments: usize,
    mean: usize,
) -> (Program, Bindings, HashMap<multidim_ir::ArrayId, Vec<f64>>) {
    let g = CsrGraph::zipf(segments, mean, 1.0, 29);
    let (p, n, e, seg_ptr, data, _out, _counts) = ragged::program(g.mean_degree());
    let mut bind = Bindings::new();
    bind.bind(n, g.nodes as i64);
    bind.bind(e, g.edges as i64);
    let inputs: HashMap<_, _> = [
        (seg_ptr, g.row_ptr.clone()),
        (data, ragged::element_data(g.edges)),
    ]
    .into_iter()
    .collect();
    (p, bind, inputs)
}

/// Compile under `policy`, run sanitized, and check outputs against the
/// interpreter plus the zero-disagreement invariant. Returns the
/// executable for decision-metadata assertions.
fn check(
    p: &Program,
    bind: &Bindings,
    inputs: &HashMap<multidim_ir::ArrayId, Vec<f64>>,
    policy: DynParPolicy,
) -> Executable {
    let exe = Compiler::new().dynpar(policy).compile(p, bind).unwrap();
    let (run, san) = exe.run_sanitized(inputs).unwrap();
    let disagreements = cross_check(&exe.diagnostics, &san);
    assert!(
        disagreements.is_empty(),
        "{}: {}",
        p.name,
        disagreements.join("; ")
    );
    let reference = interpret(p, bind, inputs).unwrap();
    for decl in &p.arrays {
        if matches!(decl.role, multidim_ir::ArrayRole::Output) {
            assert_eq!(
                run.outputs[&decl.id],
                reference.array(decl.id).data,
                "{}: output `{}` diverges from the interpreter",
                p.name,
                decl.name
            );
        }
    }
    exe
}

#[test]
fn spmv_matches_interpreter_under_every_strategy() {
    let (p, bind, inputs) = spmv_case(384, 8, 1.0);
    for strategy in [
        LaunchStrategy::Naive,
        LaunchStrategy::Coarsen(8),
        LaunchStrategy::Aggregate,
    ] {
        let exe = check(&p, &bind, &inputs, DynParPolicy::Force(strategy));
        let site = exe.dynpar.site.as_ref().expect("site expected");
        assert_eq!(site.strategy, strategy, "decision metadata mismatch");
        assert!(!site.modeled.is_empty());
    }
    // Auto on this small instance thresholds back to Inline.
    let exe = check(&p, &bind, &inputs, DynParPolicy::Auto);
    let site = exe.dynpar.site.as_ref().expect("site expected");
    assert_eq!(site.strategy, LaunchStrategy::Inline);
}

#[test]
fn ragged_matches_interpreter_under_every_strategy() {
    let (p, bind, inputs) = ragged_case(300, 9);
    for strategy in [
        LaunchStrategy::Naive,
        LaunchStrategy::Coarsen(6),
        LaunchStrategy::Aggregate,
    ] {
        let exe = check(&p, &bind, &inputs, DynParPolicy::Force(strategy));
        assert_eq!(exe.dynpar.site.as_ref().map(|s| s.strategy), Some(strategy));
    }
}

#[test]
fn catalog_spmv_zipf_names_the_rule_that_keeps_it_inline() {
    // 1024 rows × mean 14 = 14,336 clears the 12,000 work floor, so the
    // rule that fires is the inner-extent cutoff, and the reason says so.
    let e = catalog()
        .into_iter()
        .find(|e| e.name() == "spmv_zipf")
        .expect("spmv_zipf is in the catalog");
    let exe = Compiler::new().compile(&e.program, &e.bindings).unwrap();
    let site = exe.dynpar.site.as_ref().expect("site expected");
    assert_eq!(site.strategy, LaunchStrategy::Inline);
    assert_eq!(
        site.reason,
        "thresholded: mean inner 14 below the inner-extent cutoff 16 at total work 14336 \
         (under 48000)"
    );
}

#[test]
fn auto_consolidation_beats_naive_at_scale() {
    // Four times the catalog's spmv_zipf rows: Auto must consolidate and
    // the consolidated schedule must be materially faster than per-row
    // child launches.
    let (p, bind, inputs) = spmv_case(4096, 16, 1.0);
    let auto = Compiler::new().compile(&p, &bind).unwrap();
    let site = auto.dynpar.site.as_ref().expect("site expected");
    assert_ne!(site.strategy, LaunchStrategy::Inline, "{}", site.reason);
    let naive = Compiler::new()
        .dynpar(DynParPolicy::Force(LaunchStrategy::Naive))
        .compile(&p, &bind)
        .unwrap();
    let fast = auto.run(&inputs).unwrap();
    let slow = naive.run(&inputs).unwrap();
    assert_eq!(
        fast.outputs[&p.output.unwrap()],
        slow.outputs[&p.output.unwrap()]
    );
    assert!(
        slow.gpu_seconds >= 2.0 * fast.gpu_seconds,
        "consolidation speedup only {:.2}x (naive {:.1}us vs {:.1}us)",
        slow.gpu_seconds / fast.gpu_seconds,
        slow.gpu_seconds * 1e6,
        fast.gpu_seconds * 1e6
    );
}

#[test]
fn consolidated_strategies_match_on_random_structures() {
    // Randomized segment structures (seeded): every strategy agrees with
    // the interpreter bit-for-bit on ragged data with empty, tiny, and
    // hub segments.
    let mut rng = Rng::new(17);
    for case in 0..3 {
        let segments = 96 + rng.below(64);
        let mean = 2 + rng.below(12);
        let (p, bind, inputs) = ragged_case(segments, mean);
        for strategy in [
            LaunchStrategy::Naive,
            LaunchStrategy::Coarsen(5),
            LaunchStrategy::Aggregate,
        ] {
            let _ = check(&p, &bind, &inputs, DynParPolicy::Force(strategy));
        }
        let _ = case;
    }
}
