//! Static-analysis pipeline integration: seeded defects must abort
//! compilation with the right `MD` codes, every shipped workload must come
//! back free of error-severity diagnostics, and the analyzer's verdicts
//! must show up in profiling traces.

use multidim::prelude::*;
use multidim::{Severity, Verdict};
use multidim_trace as trace;
use multidim_workloads::catalog::catalog;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Run `f` as one request whose trace a fresh store keeps, and return its
/// result with the kept spans as events. Tests that install the store
/// serialize on one lock.
fn traced<T>(f: impl FnOnce() -> T) -> (T, Vec<trace::Event>) {
    static LOCK: Mutex<()> = Mutex::new(());
    let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let store = Arc::new(trace::TraceStore::new(trace::TailSamplerConfig::keep_all()));
    let _installed = trace::install_store(store);
    let (out, kept) = trace::collect("test", "analysis", f);
    let spans = kept.expect("kept").spans;
    (out, spans.iter().map(trace::chrome::span_event).collect())
}

/// A foreach in which every instance stores to `y[0]` — a proven race.
fn racy_program() -> (Program, Bindings, multidim_ir::ArrayId) {
    let mut b = ProgramBuilder::new("racy");
    let n = b.sym("N");
    let x = b.input("x", ScalarKind::F32, &[Size::sym(n)]);
    let y = b.output("y", ScalarKind::F32, &[Size::sym(n)]);
    let root = b.foreach(Size::sym(n), |b, i| {
        let v = b.read(x, &[i.into()]);
        vec![Effect::Write {
            cond: None,
            array: y,
            idx: vec![Expr::int(0)],
            value: v,
        }]
    });
    let p = b.finish_foreach(root).unwrap();
    let mut bind = Bindings::new();
    bind.bind(n, 64);
    (p, bind, x)
}

/// A map that reads `x[i + N]` — every access lands past the end.
fn oob_program() -> (Program, Bindings) {
    let mut b = ProgramBuilder::new("oob");
    let n = b.sym("N");
    let x = b.input("x", ScalarKind::F32, &[Size::sym(n)]);
    let root = b.map(Size::sym(n), |b, i| {
        b.read(x, &[Expr::var(i) + Expr::size(Size::sym(n))])
    });
    let p = b.finish_map(root, "y", ScalarKind::F32).unwrap();
    let mut bind = Bindings::new();
    bind.bind(n, 64);
    (p, bind)
}

#[test]
fn seeded_race_aborts_compilation_with_md001() {
    let (p, bind, _) = racy_program();
    let err = Compiler::new().compile(&p, &bind).unwrap_err();
    assert!(err.0.contains("MD001"), "{err}");
    assert!(err.0.contains("racy"), "{err}");
}

#[test]
fn seeded_oob_aborts_compilation_with_md003() {
    let (p, bind) = oob_program();
    let err = Compiler::new().compile(&p, &bind).unwrap_err();
    assert!(err.0.contains("MD003"), "{err}");
}

#[test]
fn checks_off_compiles_the_racy_program() {
    let (p, bind, _) = racy_program();
    let exe = Compiler::new().checks(false).compile(&p, &bind).unwrap();
    // The stage was skipped entirely: no diagnostics attached.
    assert!(exe.diagnostics.diagnostics.is_empty());
}

#[test]
fn all_shipped_workloads_are_error_free() {
    for e in catalog() {
        // Compilation itself is the assertion: the analyzer runs as a
        // pipeline stage and aborts on any Error-severity finding.
        let exe = Compiler::new()
            .compile(&e.program, &e.bindings)
            .unwrap_or_else(|err| panic!("{}: {err}", e.name()));
        assert!(
            !exe.diagnostics.has_errors(),
            "{}: error-severity diagnostics attached",
            e.name()
        );
        for v in &exe.diagnostics.arrays {
            assert_ne!(
                v.race_free,
                Verdict::Refuted,
                "{}: array `{}` refuted race-free",
                e.name(),
                v.name
            );
            assert_ne!(
                v.in_bounds,
                Verdict::Refuted,
                "{}: array `{}` refuted in-bounds",
                e.name(),
                v.name
            );
        }
    }
}

#[test]
fn known_unknowns_stay_warnings() {
    // QPSCD's HogWild scatter and BFS's benign duplicate frontier writes
    // are intentionally unprovable: the analyzer must keep them at Warn
    // (MD002), never promote them to errors.
    let mut seen = 0;
    for e in catalog() {
        if e.name() != "qpscd_epoch" && e.name() != "bfs_step" {
            continue;
        }
        seen += 1;
        let exe = Compiler::new().compile(&e.program, &e.bindings).unwrap();
        let warns: Vec<_> = exe
            .diagnostics
            .diagnostics
            .iter()
            .filter(|d| d.code == multidim::Code::MAYBE_RACE)
            .collect();
        assert!(!warns.is_empty(), "{}: expected MD002", e.name());
        assert!(warns.iter().all(|d| d.severity == Severity::Warn));
    }
    assert_eq!(seen, 2, "catalog must ship qpscd_epoch and bfs_step");
}

#[test]
fn analyzer_verdicts_appear_in_traces() {
    let mut b = ProgramBuilder::new("scale");
    let n = b.sym("N");
    let x = b.input("x", ScalarKind::F32, &[Size::sym(n)]);
    let root = b.map(Size::sym(n), |b, i| b.read(x, &[i.into()]) * Expr::lit(2.0));
    let p = b.finish_map(root, "y", ScalarKind::F32).unwrap();
    let mut bind = Bindings::new();
    bind.bind(n, 256);

    let (exe, events) = traced(|| Compiler::new().compile(&p, &bind).unwrap());

    // The static-analysis phase is a span on the pipeline lane...
    let span = events
        .iter()
        .find(|e| e.cat == "analyze" && e.name == "static_analysis")
        .expect("missing the static_analysis span");
    // ...carrying each array's verdicts as `array=verdict` pairs.
    for key in ["race_free", "in_bounds"] {
        let verdicts: Vec<&str> = span.get_str(key).expect("verdicts").split(' ').collect();
        assert_eq!(verdicts.len(), p.arrays.len());
        for (v, decl) in verdicts.iter().zip(&p.arrays) {
            assert_eq!(*v, format!("{}=proven", decl.name), "{key}");
        }
    }
    assert_eq!(exe.diagnostics.race_free(x), Verdict::Proven);

    // A warning-producing program additionally traces its diagnostics.
    let (rp, rbind, _) = racy_program();
    let (_, events) = traced(|| Compiler::new().checks(false).compile(&rp, &rbind).unwrap());
    // checks(false) records nothing — the stage never ran.
    assert!(!events.iter().any(|e| e.cat == "analyze"));
}

#[test]
fn kernel_defects_render_as_md008() {
    use multidim_codegen::KernelError;
    let d = multidim::kernel_defect(&KernelError("boom".into()));
    assert_eq!(d.code, multidim::Code::KERNEL_DEFECT);
    assert!(d.render_line().starts_with("MD008 error"));
}

#[test]
fn explicit_mapping_split_reduce_warns_md005() {
    let mut b = ProgramBuilder::new("sum");
    let n = b.sym("N");
    let x = b.input("x", ScalarKind::F32, &[Size::sym(n)]);
    let root = b.reduce(Size::sym(n), ReduceOp::Add, |b, i| b.read(x, &[i.into()]));
    let p = b.finish_reduce(root, "s", ScalarKind::F32).unwrap();
    let mut bind = Bindings::new();
    bind.bind(n, 4096);

    let m = MappingDecision::new(vec![multidim_mapping::LevelMapping {
        dim: Dim::X,
        block_size: 256,
        span: Span::Split(4),
    }]);
    let exe = Compiler::new().compile_with_mapping(&p, &bind, m).unwrap();
    let split_warns: Vec<_> = exe
        .diagnostics
        .diagnostics
        .iter()
        .filter(|d| d.code == multidim::Code::SPLIT_NONDET)
        .collect();
    assert_eq!(split_warns.len(), 1);
    assert_eq!(split_warns[0].severity, Severity::Warn);

    // The split mapping still runs and still sums correctly.
    let inputs: HashMap<_, _> = [(x, vec![1.0; 4096])].into_iter().collect();
    let run = exe.run(&inputs).unwrap();
    let out = &run.outputs[&p.output.unwrap()];
    assert!((out[0] - 4096.0).abs() < 1e-6);
}
