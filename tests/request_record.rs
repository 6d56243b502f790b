//! The per-request record: every request the engine finishes leaves one
//! tail-sampled trace. Its root span names the program, the outcome and,
//! for every outcome but completed, the reason; its compile span names
//! the content address and the mapping that ran, and holds the compile
//! pipeline's own spans. This binary installs one process-wide trace
//! store and serialises its tests on a file-level lock, so each test
//! finds its trace by the root span's workload and outcome.

use multidim::Compiler;
use multidim_engine::{Engine, EngineConfig, Request};
use multidim_ir::{Bindings, Effect, Expr, Program, ProgramBuilder, ScalarKind, Size};
use multidim_trace::json::Json;
use multidim_trace::{
    install_store, SpanRecord, StoreGuard, StoredTrace, TailSamplerConfig, TraceOutcome, TraceStore,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Take the file-level lock and return the binary's one store, installed
/// on first use and never uninstalled. It keeps every completion as well
/// as every failure.
fn locked_store() -> (MutexGuard<'static, ()>, Arc<TraceStore>) {
    static LOCK: Mutex<()> = Mutex::new(());
    static STORE: OnceLock<(Arc<TraceStore>, StoreGuard)> = OnceLock::new();
    let lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (store, _guard) = STORE.get_or_init(|| {
        let store = Arc::new(TraceStore::new(TailSamplerConfig::keep_all()));
        let guard = install_store(store.clone());
        (store, guard)
    });
    (lock, store.clone())
}

fn small_config() -> EngineConfig {
    EngineConfig {
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 64,
        ..EngineConfig::default()
    }
}

/// A foreach in which every instance stores to `y[0]` — a proven race,
/// aborted by static analysis with `MD001`.
fn racy_workload() -> (Program, Bindings, HashMap<multidim_ir::ArrayId, Vec<f64>>) {
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
    let mut inputs = HashMap::new();
    inputs.insert(x, vec![1.0; 64]);
    (p, bind, inputs)
}

/// A map over `x[0..N / D]` with `D` bound to zero. The analysis
/// evaluates the extent, and `Size` division asserts a positive divisor,
/// so compiling it panics under every build profile.
fn zero_divisor_workload() -> (Program, Bindings, HashMap<multidim_ir::ArrayId, Vec<f64>>) {
    let mut b = ProgramBuilder::new("zero-divisor");
    let n = b.sym("N");
    let d = b.sym("D");
    let x = b.input("x", ScalarKind::F32, &[Size::sym(n)]);
    let root = b.map(Size::sym(n) / Size::sym(d), |b, i| {
        b.read(x, &[i.into()]) * Expr::lit(2.0)
    });
    let p = b.finish_map(root, "y", ScalarKind::F32).expect("validates");
    let mut bind = Bindings::new();
    bind.bind(n, 64);
    bind.bind(d, 0);
    let mut inputs = HashMap::new();
    inputs.insert(x, vec![1.0; 64]);
    (p, bind, inputs)
}

/// A span argument in its display form.
fn arg(span: &SpanRecord, key: &str) -> Option<String> {
    span.args
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.to_string())
}

/// The compile pipeline's stage spans, each a child of `core/compile` in
/// a cold compile's trace.
const COMPILE_STAGES: [(&str, &str); 7] = [
    ("codegen", "fuse"),
    ("search", "analyze"),
    ("analyze", "static_analysis"),
    ("dynpar", "choose"),
    ("codegen", "lower"),
    ("codegen", "validate"),
    ("analyze", "locality"),
];

/// The trace's one root span.
fn root(trace: &StoredTrace) -> &SpanRecord {
    let roots: Vec<_> = trace.spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "exactly one root span: {:?}", trace.spans);
    roots[0]
}

/// The trace's span `cat/name`; names alone are ambiguous, since the
/// engine's `compile` and `run` wrap the pipeline's own.
fn span<'a>(trace: &'a StoredTrace, cat: &str, name: &str) -> Option<&'a SpanRecord> {
    trace.spans.iter().find(|s| (s.cat, s.name) == (cat, name))
}

/// The span `cat/name` and its parent, which must be in the same trace.
fn with_parent<'a>(
    trace: &'a StoredTrace,
    cat: &str,
    name: &str,
) -> (&'a SpanRecord, &'a SpanRecord) {
    let child = span(trace, cat, name).unwrap_or_else(|| panic!("no {cat}/{name} span"));
    let parent = trace
        .spans
        .iter()
        .find(|s| Some(s.span_id) == child.parent)
        .unwrap_or_else(|| panic!("{cat}/{name} has no parent in its trace"));
    (child, parent)
}

/// The one kept trace whose root span ran `workload` and ended with
/// `outcome`; the root's `outcome` argument must agree with the trace's.
fn kept_trace(store: &TraceStore, workload: &str, outcome: TraceOutcome) -> StoredTrace {
    let mut found: Vec<StoredTrace> = store
        .kept_traces()
        .into_iter()
        .filter(|t| t.outcome == outcome && arg(root(t), "workload").as_deref() == Some(workload))
        .collect();
    assert_eq!(found.len(), 1, "one {outcome:?} trace of {workload}");
    let trace = found.remove(0);
    assert_eq!(
        arg(root(&trace), "outcome").as_deref(),
        Some(outcome.as_str())
    );
    trace
}

#[test]
fn worker_panic_keeps_a_failed_trace_with_its_fingerprint() {
    let (_lock, store) = locked_store();
    let engine = Engine::new(Compiler::new(), small_config());

    // A hostile binding (a zero divisor) deterministically panics inside
    // the mapping analysis — after the fingerprint phase, during compile.
    let (program, bindings, inputs) = zero_divisor_workload();
    let expected_fp = Compiler::new().fingerprint(&program, &bindings);
    engine
        .submit(Request::new(program, bindings, inputs))
        .expect("accepted")
        .wait()
        .expect_err("hostile request must fail");

    let trace = kept_trace(&store, "zero-divisor", TraceOutcome::Failed);
    let reason = arg(root(&trace), "reason").expect("a failed root carries its reason");
    assert!(
        reason.contains("panicked"),
        "reason names the panic: {reason}"
    );
    // The compile span was open when the panic struck: its guard still
    // recorded it, with the fingerprint set as the span opened.
    let compile = span(&trace, "engine", "compile").expect("the panicking compile span");
    assert_eq!(arg(compile, "fingerprint"), Some(expected_fp.to_string()));
    assert!(span(&trace, "engine", "run").is_none(), "run never started");

    // Metrics agree: one panicked, one failed, none completed — and the
    // engine's stats read the same counters.
    let stats = engine.stats();
    assert_eq!((stats.panicked, stats.failed, stats.completed), (1, 1, 0));
    let text = engine.render_metrics();
    assert!(text.contains("engine_panicked_total 1"), "{text}");
    assert!(text.contains("engine_failed_total 1"), "{text}");
}

#[test]
fn deadline_miss_keeps_an_expired_trace() {
    let (_lock, store) = locked_store();
    let engine = Engine::new(Compiler::new(), small_config());
    let (program, bindings, inputs) = multidim_engine::doctest_workload();
    let mut request = Request::new(program, bindings, inputs);
    // A zero deadline has always expired by the time a worker dequeues.
    request.deadline = Some(Duration::ZERO);
    engine
        .submit(request)
        .expect("accepted")
        .wait()
        .expect_err("zero deadline must expire");

    let trace = kept_trace(&store, "doctest-saxpy", TraceOutcome::Expired);
    let reason = arg(root(&trace), "reason").expect("an expired root carries its reason");
    assert!(reason.contains("deadline exceeded"), "reason: {reason}");
    // The request waited in the queue and never reached `serve`.
    assert!(
        span(&trace, "engine", "queue").is_some(),
        "{:?}",
        trace.spans
    );
    assert!(
        span(&trace, "engine", "compile").is_none(),
        "compile never started"
    );
    assert!(span(&trace, "engine", "run").is_none());
    assert!(engine.render_metrics().contains("engine_expired_total 1"));
}

#[test]
fn failed_compile_keeps_a_failed_trace_naming_the_diagnostic() {
    let (_lock, store) = locked_store();
    let engine = Engine::new(Compiler::new(), small_config());
    let (program, bindings, inputs) = racy_workload();
    let expected_fp = Compiler::new().fingerprint(&program, &bindings);
    engine
        .submit(Request::new(program, bindings, inputs))
        .expect("accepted")
        .wait()
        .expect_err("proven race must abort compilation");

    let trace = kept_trace(&store, "racy", TraceOutcome::Failed);
    let reason = arg(root(&trace), "reason").expect("a failed root carries its reason");
    assert!(
        reason.contains("MD001"),
        "compile failure names the diagnostic: {reason}"
    );
    let compile = span(&trace, "engine", "compile").expect("failed inside compile");
    assert_eq!(arg(compile, "fingerprint"), Some(expected_fp.to_string()));
    assert!(span(&trace, "engine", "run").is_none(), "run never started");
}

#[test]
fn kept_completion_records_phases_and_mapping() {
    let (_lock, store) = locked_store();
    let engine = Engine::new(Compiler::new(), small_config());
    let (program, bindings, inputs) = multidim_engine::doctest_workload();
    let resp = engine
        .submit(Request::new(program, bindings, inputs))
        .expect("accepted")
        .wait()
        .expect("served");

    let trace = kept_trace(&store, "doctest-saxpy", TraceOutcome::Completed);
    assert_eq!(Some(trace.trace_id), resp.trace.map(|t| t.trace_id));
    let root = root(&trace);
    assert_eq!(
        arg(root, "reason"),
        None,
        "a completed root carries no reason"
    );
    let compile = span(&trace, "engine", "compile").expect("compile span");
    let run = span(&trace, "engine", "run").expect("run span");
    assert_eq!(compile.parent, Some(root.span_id));
    assert_eq!(run.parent, Some(root.span_id));
    // The cold compile carries the pipeline's own spans: `core/compile`
    // under the engine's compile span; fusion, the mapping search, static
    // analysis, the dynpar choice, lowering, kernel validation and
    // locality under `core/compile`; and `core/run` under the engine's
    // run span, split into the simulator's specialization and execution.
    let (core_compile, parent) = with_parent(&trace, "core", "compile");
    assert_eq!(parent.span_id, compile.span_id);
    assert_eq!(arg(core_compile, "fused").as_deref(), Some("0"));
    for (cat, name) in COMPILE_STAGES {
        let (stage, parent) = with_parent(&trace, cat, name);
        assert_eq!(
            parent.span_id, core_compile.span_id,
            "{cat}/{name} nests under core/compile"
        );
        assert!(stage.dur_us <= core_compile.dur_us);
    }
    let (core_run, parent) = with_parent(&trace, "core", "run");
    assert_eq!(parent.span_id, run.span_id);
    for name in ["specialize", "execute"] {
        let (stage, parent) = with_parent(&trace, "sim", name);
        assert_eq!(
            parent.span_id, core_run.span_id,
            "sim/{name} nests under core/run"
        );
        assert!(stage.dur_us <= core_run.dur_us);
    }
    assert_eq!(arg(compile, "cache_hit").as_deref(), Some("false"));
    assert_eq!(
        arg(compile, "fingerprint"),
        Some(resp.fingerprint.to_string())
    );
    let mapping = arg(compile, "mapping").expect("the compile span names the mapping");
    assert!(!mapping.is_empty());
    // Phases nest: compile + run happen inside the root.
    assert!(compile.dur_us > 0.0 && run.dur_us > 0.0);
    assert!(
        compile.dur_us + run.dur_us <= root.dur_us,
        "compile {} + run {} > root {}",
        compile.dur_us,
        run.dur_us,
        root.dur_us
    );
    Json::parse(&trace.to_json().render()).expect("the trace renders valid JSON");

    // The simulator's per-kernel metrics come from the response itself.
    let metrics = resp.executable.metrics(&resp.run).to_json();
    assert!(
        metrics
            .get("kernels")
            .and_then(Json::as_arr)
            .is_some_and(|k| !k.is_empty()),
        "per-kernel simulator metrics"
    );
}

#[test]
fn kept_cold_traces_explain_every_catalog_decision() {
    let (_lock, store) = locked_store();
    let engine = Engine::new(Compiler::new(), small_config());
    let entries = multidim_workloads::catalog::catalog();
    assert_eq!(entries.len(), 27, "the full catalog");
    let mut sites = 0;
    for e in &entries {
        let name = e.name();
        let resp = engine
            .submit(Request::new(
                e.program.clone(),
                e.bindings.clone(),
                e.inputs.clone(),
            ))
            .expect("accepted")
            .wait()
            .unwrap_or_else(|err| panic!("{name}: {err}"));
        assert!(!resp.cache_hit, "{name} is served cold");
        let exe = &resp.executable;
        let trace = resp
            .trace
            .and_then(|t| store.lookup(t.trace_id))
            .unwrap_or_else(|| panic!("{name}: the completion is kept"));
        let stage = |cat, stage| {
            span(&trace, cat, stage).unwrap_or_else(|| panic!("{name}: no {cat}/{stage} span"))
        };
        let text = |span, key| {
            arg(span, key).unwrap_or_else(|| panic!("{name}: {} carries no {key}", span.name))
        };
        let number = |span, key| -> f64 { text(span, key).parse().expect("a number") };

        // Why this mapping: the selection with its score and DOP, the
        // prune count per hard constraint, and the runner-up.
        let analysis = exe.analysis.as_ref().expect("the analysis ran");
        let search = stage("search", "analyze");
        assert_eq!(text(search, "selected"), exe.mapping.to_string(), "{name}");
        assert_eq!(number(search, "score"), analysis.score, "{name}");
        assert_eq!(number(search, "dop"), analysis.dop as f64, "{name}");
        let pruned = number(search, "pruned") as usize;
        assert_eq!(pruned, analysis.pruned, "{name}");
        let pruned_by: usize = text(search, "pruned_by")
            .split("; ")
            .filter(|pair| !pair.is_empty())
            .map(|pair| {
                let (_, n) = pair.rsplit_once(": ").expect("constraint: count");
                n.parse::<usize>().expect("a count")
            })
            .sum();
        assert_eq!(pruned_by, pruned, "{name}: pruned_by sums to pruned");
        if number(search, "candidates") >= 2.0 {
            assert!(!text(search, "runner_up").is_empty(), "{name}");
            assert!(
                number(search, "runner_up_score") <= analysis.score,
                "{name}"
            );
        }

        // Why this dynpar strategy.
        if let Some(site) = &exe.dynpar.site {
            sites += 1;
            let choose = stage("dynpar", "choose");
            assert_eq!(text(choose, "strategy"), site.strategy.name(), "{name}");
            assert_eq!(text(choose, "reason"), site.reason, "{name}");
        }

        // Every MD code, from the stage that found it.
        let program_codes = text(stage("analyze", "static_analysis"), "codes");
        let locality_codes = text(stage("analyze", "locality"), "codes");
        let codes: Vec<&str> = program_codes
            .split(',')
            .chain(locality_codes.split(','))
            .filter(|c| !c.is_empty())
            .collect();
        assert_eq!(codes.join(","), exe.diagnostics.codes(), "{name}");

        // Which kernel was bound by what.
        let metrics = exe.metrics(&resp.run);
        let kernels: Vec<String> = metrics
            .kernels
            .iter()
            .map(|k| format!("{}: {}", k.run.name, k.bound_by))
            .collect();
        assert_eq!(
            text(stage("sim", "execute"), "kernels"),
            kernels.join("; "),
            "{name}"
        );
    }
    assert!(sites > 0, "the catalog has data-dependent launch sites");
}
