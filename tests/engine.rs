//! Stress and integration tests for the concurrent engine: correctness
//! under contention (bit-identical to serial compiles), single-flight
//! compilation, shared executables, panic isolation, deadline handling,
//! parallel-vs-serial autotune equivalence (with and without a
//! measurement cap), a capped tune stopping at its cap inside the
//! caller's trace, a one-worker tune stopping candidates on their floor
//! before their first block, the analytic baseline of a tuning record,
//! and tuning-store persistence plus corruption fallback.

use multidim::Compiler;
use multidim_engine::{Engine, EngineConfig, EngineError, Request};
use multidim_ir::ArrayId;
use multidim_workloads::catalog::catalog;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const CLIENTS: usize = 8;

/// Tests that install the process-wide trace store serialize on this lock,
/// so none sees another's store installed.
static STORE_LOCK: Mutex<()> = Mutex::new(());

fn small_config() -> EngineConfig {
    EngineConfig {
        workers: 4,
        queue_capacity: 16,
        cache_capacity: 64,
        ..EngineConfig::default()
    }
}

/// Submit with retry-on-backpressure: a rejected request is resubmitted
/// after a short pause (the bounded queue sheds load; clients decide the
/// retry policy).
fn submit_until_accepted(
    engine: &Engine,
    request: Request,
) -> Result<multidim_engine::Ticket, EngineError> {
    loop {
        match engine.submit(request.clone()) {
            Ok(t) => return Ok(t),
            Err(EngineError::Rejected { .. }) => {
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => return Err(e),
        }
    }
}

#[test]
fn stress_all_workloads_from_eight_threads_matches_serial() {
    let entries = catalog();
    assert!(entries.len() >= 20, "expect the full catalog");

    // Cold serial baseline: one fresh compile+run per workload.
    let compiler = Compiler::new();
    let baseline: Vec<HashMap<ArrayId, Vec<f64>>> = entries
        .iter()
        .map(|e| {
            let exe = compiler.compile(&e.program, &e.bindings).expect("compiles");
            exe.run(&e.inputs).expect("runs").outputs
        })
        .collect();

    let engine = Arc::new(Engine::new(Compiler::new(), small_config()));
    let responses: Vec<Vec<multidim_engine::Response>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let engine = engine.clone();
                let entries = &entries;
                s.spawn(move || {
                    entries
                        .iter()
                        .map(|e| {
                            let req = Request::new(
                                e.program.clone(),
                                e.bindings.clone(),
                                e.inputs.clone(),
                            );
                            submit_until_accepted(&engine, req)
                                .expect("accepted")
                                .wait()
                                .expect("served")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every response is bit-identical to the cold serial compile.
    for client in &responses {
        for (resp, expected) in client.iter().zip(&baseline) {
            assert_eq!(resp.run.outputs.len(), expected.len());
            for (id, want) in expected {
                let got = &resp.run.outputs[id];
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "outputs must be bit-identical");
                }
            }
        }
    }

    // Single-flight: 8 clients x N workloads, but each distinct program
    // compiled exactly once. (The cache holds all entries, so every miss
    // is a real compile.)
    let stats = engine.cache_stats();
    assert_eq!(
        stats.misses as usize,
        entries.len(),
        "one compile per workload"
    );
    assert_eq!(
        stats.hits as usize,
        (CLIENTS - 1) * entries.len(),
        "all other requests are cache hits"
    );
    assert_eq!(stats.failures, 0);
    assert_eq!(stats.evictions, 0, "capacity 64 must hold the catalog");

    // Shared artifacts: for each workload, all 8 clients hold the same
    // allocation.
    for i in 0..entries.len() {
        let first = &responses[0][i].executable;
        for client in &responses[1..] {
            assert!(
                Arc::ptr_eq(first, &client[i].executable),
                "cache hits must be pointer-equal"
            );
        }
        assert!(
            responses.iter().filter(|c| c[i].cache_hit).count() == CLIENTS - 1,
            "exactly one client compiled workload {i}"
        );
    }

    let estats = engine.stats();
    assert_eq!(estats.completed as usize, CLIENTS * entries.len());
    assert_eq!(estats.failed, 0);
}

/// A map over `x[0..N / D]` with `D` bound to zero. The analysis
/// evaluates the extent, and `Size` division asserts a positive divisor,
/// so compiling it panics under every build profile.
fn zero_divisor_workload() -> (
    multidim_ir::Program,
    multidim_ir::Bindings,
    HashMap<ArrayId, Vec<f64>>,
) {
    use multidim_ir::{Expr, ProgramBuilder, ScalarKind, Size};
    let mut b = ProgramBuilder::new("zero-divisor");
    let n = b.sym("N");
    let d = b.sym("D");
    let x = b.input("x", ScalarKind::F32, &[Size::sym(n)]);
    let root = b.map(Size::sym(n) / Size::sym(d), |b, i| {
        b.read(x, &[i.into()]) * Expr::lit(2.0)
    });
    let program = b.finish_map(root, "y", ScalarKind::F32).expect("validates");
    let mut bindings = multidim_ir::Bindings::new();
    bindings.bind(n, 64);
    bindings.bind(d, 0);
    let inputs = [(x, vec![1.0; 64])].into_iter().collect();
    (program, bindings, inputs)
}

#[test]
fn panicking_request_is_isolated_and_pool_survives() {
    let engine = Engine::new(Compiler::new(), small_config());

    // A hostile binding (a zero divisor) deterministically panics inside
    // the mapping analysis. The engine must contain it.
    let (program, bindings, inputs) = zero_divisor_workload();
    let err = engine
        .submit(Request::new(program, bindings, inputs))
        .expect("accepted")
        .wait()
        .expect_err("hostile request must fail");
    assert!(
        matches!(err, EngineError::WorkerPanic(_)),
        "expected WorkerPanic, got {err:?}"
    );

    // The pool is still alive and serves well-formed requests.
    let (program, bindings, inputs) = multidim_engine::doctest_workload();
    let out = program.output.expect("map output");
    let resp = engine
        .submit(Request::new(program, bindings, inputs))
        .expect("accepted")
        .wait()
        .expect("healthy request still served");
    assert_eq!(resp.run.outputs[&out][3], 2.0 * 3.0 + 1.0);
    let stats = engine.stats();
    assert_eq!(stats.panicked, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn unbound_size_symbol_fails_the_request_without_a_panic() {
    use multidim_workloads::sums::{sum_program, SumKind};
    let engine = Engine::new(Compiler::new(), small_config());
    // sumRows with only `R` bound compiles (the analysis substitutes the
    // default for `C`) but cannot run: a typed run error, not a panic.
    let (program, r, _c, m) = sum_program(SumKind::Rows);
    let mut bindings = multidim_ir::Bindings::new();
    bindings.bind(r, 12);
    let inputs = [(m, vec![1.0; 12 * 20])].into_iter().collect();
    let err = engine
        .submit(Request::new(program, bindings, inputs))
        .expect("accepted")
        .wait()
        .expect_err("C is unbound");
    assert!(
        matches!(&err, EngineError::Run(e) if e.to_string().contains("unbound size symbol in")),
        "expected a run error, got {err:?}"
    );
    let stats = engine.stats();
    assert_eq!((stats.failed, stats.panicked), (1, 0));
}

#[test]
fn expired_deadline_is_reported() {
    let engine = Engine::new(
        Compiler::new(),
        EngineConfig {
            default_deadline: Some(Duration::ZERO),
            ..small_config()
        },
    );
    let (program, bindings, inputs) = multidim_engine::doctest_workload();
    let err = engine
        .submit(Request::new(program, bindings, inputs))
        .expect("accepted")
        .wait()
        .expect_err("zero deadline must expire");
    assert!(matches!(err, EngineError::DeadlineExceeded { .. }));
    assert_eq!(engine.stats().expired, 1);
}

#[test]
fn run_batch_preserves_order_under_backpressure() {
    let entries = catalog();
    let engine = Engine::new(
        Compiler::new(),
        EngineConfig {
            workers: 2,
            queue_capacity: 2, // force flow control
            ..small_config()
        },
    );
    let requests: Vec<Request> = entries
        .iter()
        .map(|e| Request::new(e.program.clone(), e.bindings.clone(), e.inputs.clone()))
        .collect();
    let results = engine.run_batch(requests);
    assert_eq!(results.len(), entries.len());
    for (e, r) in entries.iter().zip(&results) {
        let resp = r
            .as_ref()
            .unwrap_or_else(|err| panic!("{}: {err}", e.name()));
        // Order is preserved: response i is for request i, which we can
        // verify through the fingerprint.
        let expect = Compiler::new().fingerprint(&e.program, &e.bindings);
        assert_eq!(resp.fingerprint, expect);
    }
    assert_eq!(engine.stats().failed, 0);
}

/// A zero measurement cap is refused before any candidate is measured.
/// spmv_zipf is the catalog's costliest program to measure.
#[test]
fn zero_measurement_cap_is_refused_before_any_pool_job() {
    let e = catalog()
        .into_iter()
        .find(|e| e.name() == "spmv_zipf")
        .expect("spmv_zipf is in the catalog");
    let engine = Engine::new(Compiler::new(), small_config());
    let zero = multidim_mapping::TuneOptions {
        max_measurements: 0,
        ..Default::default()
    };
    match engine.autotune(&e.program, &e.bindings, &e.inputs, &zero) {
        Err(EngineError::Compile(err)) => {
            assert!(err.to_string().contains("max_measurements is 0"), "{err}");
        }
        Err(other) => panic!("expected a compile error naming the cap, got {other}"),
        Ok(_) => panic!("a zero cap tunes nothing"),
    }
}

#[test]
fn parallel_autotune_matches_serial_selection() {
    let entries = catalog();
    let engine = Engine::new(Compiler::new(), small_config());
    let capped = multidim_mapping::TuneOptions {
        max_measurements: 5,
        ..Default::default()
    };
    for options in [multidim_mapping::TuneOptions::default(), capped] {
        for e in entries.iter().take(3) {
            let (_serial_exe, serial) = Compiler::new()
                .autotune(&e.program, &e.bindings, &e.inputs, &options)
                .expect("serial tune");
            let (_exe, record) = engine
                .autotune(&e.program, &e.bindings, &e.inputs, &options)
                .expect("parallel tune");
            assert_eq!(
                record.mapping,
                serial.best,
                "{}: parallel tuning must select the same mapping as serial",
                e.name()
            );
            assert_eq!(record.tuned_cost, serial.best_cost);
            let expected = if options.max_measurements == 5 {
                5
            } else {
                // Unpruned and uncapped, the engine measures every
                // candidate of the plan.
                Compiler::new()
                    .prepare_tune(&e.program, &e.bindings, &options)
                    .expect("plan")
                    .plan
                    .candidates
                    .len()
            };
            assert_eq!(
                record.measured,
                expected as u64,
                "{}: measured candidates",
                e.name()
            );
        }
    }
}

/// A 1-worker engine, and an installed store that keeps every trace and
/// every span of it. Callers hold `STORE_LOCK`.
fn one_worker_keeping_every_span() -> (Engine, multidim_trace::StoreGuard) {
    use multidim_trace as trace;
    let store = trace::TraceStore::new(trace::TailSamplerConfig::keep_all());
    let installed = trace::install_store(Arc::new(store));
    let engine = Engine::new(
        Compiler::new(),
        EngineConfig {
            workers: 1,
            ..small_config()
        },
    );
    (engine, installed)
}

/// Tune `e` on `engine` inside a fresh trace kept with every span, and
/// return the tuning record with the trace's spans.
fn traced_autotune(
    engine: &Engine,
    e: &multidim_workloads::catalog::CatalogEntry,
    options: &multidim_mapping::TuneOptions,
) -> (multidim_engine::TuneRecord, Vec<multidim_trace::SpanRecord>) {
    let ((_exe, record), kept) = multidim_trace::collect("test", e.name(), || {
        engine
            .autotune(&e.program, &e.bindings, &e.inputs, options)
            .expect("tune")
    });
    (record, kept.expect("kept").spans)
}

/// A capped engine tune stops claiming candidates at the cap, and its
/// simulations run inside the caller's trace: on one worker, exactly the
/// five measured candidates of spmv_zipf (132 in its plan) record a
/// `sim/execute` span, each under a parent in the kept trace.
#[test]
fn capped_autotune_stops_at_the_cap_inside_the_callers_trace() {
    let _lock = STORE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let e = catalog()
        .into_iter()
        .find(|e| e.name() == "spmv_zipf")
        .expect("spmv_zipf is in the catalog");
    let (engine, installed) = one_worker_keeping_every_span();
    let capped = multidim_mapping::TuneOptions {
        max_measurements: 5,
        ..Default::default()
    };
    let (record, spans) = traced_autotune(&engine, &e, &capped);
    drop(installed);

    assert_eq!(record.measured, 5, "the cap bounds measurements");
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    let executes: Vec<_> = spans
        .iter()
        .filter(|s| (s.cat, s.name) == ("sim", "execute"))
        .collect();
    assert_eq!(
        executes.len(),
        5,
        "one simulation per measured candidate, each in the caller's trace"
    );
    for s in executes {
        let parent = s.parent.expect("sim/execute has a parent");
        assert!(
            ids.contains(&parent),
            "a sim/execute span's parent is not in the trace"
        );
    }
}

/// On one worker every ceiling is the best exact cost of the candidates
/// before it in plan order, so the `sim/execute` spans cut before their
/// first block are exactly the candidates other than the analytic one
/// whose floor, their kernels' floor times added in launch order, exceeds
/// that best. The capped run's floor reads the inputs
/// (`seconds_floor_with_inputs`); sumCols and msm_assign have no loop
/// bounded by an input, so theirs is `seconds_floor`, while bfs_step's
/// CSR loop stops more of its candidates than `seconds_floor` alone would.
#[test]
fn one_worker_tune_stops_candidates_on_their_floor_before_the_first_block() {
    use multidim_device::GpuSpec;
    use multidim_trace as trace;

    let _lock = STORE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (engine, installed) = one_worker_keeping_every_span();
    let compiler = Compiler::new();
    let gpu = GpuSpec::tesla_k20c();
    let options = multidim_mapping::TuneOptions::default();
    let entries: Vec<_> = catalog()
        .into_iter()
        .filter(|e| matches!(e.name(), "sumCols" | "bfs_step" | "msm_assign"))
        .collect();
    assert_eq!(entries.len(), 3);
    for e in &entries {
        let (program, bindings, inputs) = (&e.program, &e.bindings, &e.inputs);
        let prepared = compiler
            .prepare_tune(program, bindings, &options)
            .expect("plan");
        let analytic = compiler.analytic_mapping(&prepared, bindings);
        let (mut expected, mut on_static, mut best) = (0usize, 0usize, f64::INFINITY);
        let summed = |floors: Vec<multidim_sim::KernelFloor>| {
            floors.iter().fold(0.0, |sum, f| sum + f.time.total)
        };
        for cand in &prepared.plan.candidates {
            let kernels = compiler
                .lower_candidate(&prepared, &cand.mapping)
                .expect("every candidate lowers and fits");
            let floor = summed(
                multidim_sim::seconds_floor(&kernels, &gpu, bindings).expect("every size is bound"),
            );
            let read = summed(
                multidim_sim::seconds_floor_with_inputs(&kernels, &gpu, bindings, inputs)
                    .expect("the inputs are there"),
            );
            if e.name() != "bfs_step" {
                assert_eq!(
                    read.to_bits(),
                    floor.to_bits(),
                    "{}: {}",
                    e.name(),
                    cand.mapping
                );
            }
            let tuned = cand.mapping != analytic;
            expected += usize::from(tuned && read > best);
            on_static += usize::from(tuned && floor > best);
            let cost = compiler
                .measure_candidate(&prepared, bindings, inputs, &cand.mapping)
                .expect("every candidate runs");
            best = best.min(cost);
        }

        let (record, spans) = traced_autotune(&engine, e, &options);
        assert_eq!(record.measured as usize, prepared.plan.candidates.len());
        let before_first_block = spans
            .iter()
            .filter(|s| (s.cat, s.name) == ("sim", "execute"))
            .filter(|s| s.args.iter().any(|(k, _)| *k == "cut_bound"))
            .filter(|s| {
                s.args
                    .iter()
                    .any(|(k, v)| *k == "blocks" && *v == trace::Value::UInt(0))
            })
            .count();
        assert!(
            expected > 0,
            "{}: no candidate's floor exceeds its ceiling",
            e.name()
        );
        if e.name() == "bfs_step" {
            assert!(
                expected > on_static,
                "bfs_step: reading the row pointers stops {expected} candidates, the static \
                 floor {on_static}"
            );
        }
        assert_eq!(
            before_first_block,
            expected,
            "{}: simulations cut before their first block",
            e.name()
        );
    }
    drop(installed);
}

#[test]
fn analytic_cost_is_the_compiled_mappings_measured_cost() {
    use multidim_mapping::Span;
    use multidim_workloads::{data, sums};
    let entries = catalog();
    let engine = Engine::new(Compiler::new(), small_config());
    let compiler = Compiler::new();
    let options = multidim_mapping::TuneOptions::default();
    // Tune one program; also report its compiled mapping, where that
    // mapping sits in the plan, and that candidate's measured cost.
    let tune = |program, bindings, inputs| {
        let compiled = compiler.compile(program, bindings).expect("compile");
        let prepared = compiler
            .prepare_tune(program, bindings, &options)
            .expect("plan");
        let candidates = &prepared.plan.candidates;
        let index = candidates
            .iter()
            .position(|c| c.mapping == compiled.mapping);
        let cost = index.and_then(|_| {
            compiler.measure_candidate(&prepared, bindings, inputs, &compiled.mapping)
        });
        let (_exe, record) = engine
            .autotune(program, bindings, inputs, &options)
            .expect("tune");
        (compiled.mapping, index, cost, record)
    };

    // hotspot compiles to the plan's third candidate: its measured cost
    // is the analytic baseline.
    let e = entries
        .iter()
        .find(|e| e.name() == "hotspot")
        .expect("hotspot");
    let (_, index, cost, record) = tune(&e.program, &e.bindings, &e.inputs);
    assert_eq!(index, Some(2));
    assert!(cost.is_some());
    assert_eq!(record.analytic_cost, cost);
    assert_eq!(record.analytic_delta(), cost.map(|a| a / record.tuned_cost));

    // sumCols over four long columns has too little parallelism, so DOP
    // control splits its reduce: the compiled mapping is outside the
    // plan, and no candidate's cost stands in for it.
    let (rows, cols) = (1024, 4);
    let (program, rs, cs, m) = sums::sum_program(sums::SumKind::Cols);
    let mut bindings = multidim_ir::Bindings::new();
    bindings.bind(rs, rows as i64);
    bindings.bind(cs, cols as i64);
    let inputs = [(m, data::matrix(rows, cols, 42))].into_iter().collect();
    let (mapping, index, _, record) = tune(&program, &bindings, &inputs);
    assert!(
        mapping
            .levels()
            .iter()
            .any(|l| matches!(l.span, Span::Split(k) if k > 1)),
        "{mapping}"
    );
    assert_eq!(index, None);
    assert_eq!(record.analytic_cost, None);
    assert_eq!(record.analytic_delta(), None);
}

#[test]
fn tuned_mapping_survives_restart_and_is_preferred() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("multidim-engine-test-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (program, bindings, inputs) = multidim_engine::doctest_workload();
    let options = multidim_mapping::TuneOptions::default();

    let tuned_mapping = {
        let engine = Engine::new(
            Compiler::new(),
            EngineConfig {
                store_path: Some(path.clone()),
                ..small_config()
            },
        );
        let (_exe, record) = engine
            .autotune(&program, &bindings, &inputs, &options)
            .expect("tune");
        engine.shutdown(); // persists the store
        record.mapping
    };

    // A fresh engine (new process restart, conceptually) loads the store
    // and serves the tuned mapping without re-tuning.
    let engine = Engine::new(
        Compiler::new(),
        EngineConfig {
            store_path: Some(path.clone()),
            ..small_config()
        },
    );
    assert_eq!(engine.store_load().loaded, 1);
    assert!(engine.store_load().quarantined.is_none());
    let resp = engine
        .submit(Request::new(program, bindings, inputs))
        .expect("accepted")
        .wait()
        .expect("served");
    assert!(resp.tuned, "request must be served from the tuning store");
    assert_eq!(resp.executable.mapping, tuned_mapping);
    assert_eq!(engine.stats().tuned_served, 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_store_falls_back_to_analytic_mapping() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "multidim-engine-corrupt-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let (program, bindings, inputs) = multidim_engine::doctest_workload();
    let options = multidim_mapping::TuneOptions::default();

    {
        let engine = Engine::new(
            Compiler::new(),
            EngineConfig {
                store_path: Some(path.clone()),
                ..small_config()
            },
        );
        engine
            .autotune(&program, &bindings, &inputs, &options)
            .expect("tune");
        engine.shutdown();
    }

    // Truncate the store mid-entry: the loader must quarantine it, not
    // crash, and the engine must fall back to the analytic mapping.
    let body = std::fs::read_to_string(&path).expect("store exists");
    std::fs::write(&path, &body[..body.len() / 2]).unwrap();

    let engine = Engine::new(
        Compiler::new(),
        EngineConfig {
            store_path: Some(path.clone()),
            ..small_config()
        },
    );
    let quarantined = engine
        .store_load()
        .quarantined
        .clone()
        .expect("corrupt store must be quarantined");
    assert_eq!(engine.store_load().loaded, 0);
    let resp = engine
        .submit(Request::new(program.clone(), bindings.clone(), inputs))
        .expect("accepted")
        .wait()
        .expect("served despite corrupt store");
    assert!(!resp.tuned, "no tuned record: analytic mapping serves");
    let analytic = Compiler::new()
        .compile(&program, &bindings)
        .expect("analytic compile");
    assert_eq!(resp.executable.mapping, analytic.mapping);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&quarantined);
}

#[test]
fn trace_stitches_spans_and_backdated_admission_charges_full_wait() {
    use multidim_trace::{install_store, TailSamplerConfig, TraceOutcome, TraceStore};
    use std::time::Instant;

    let _lock = STORE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The store keeps every trace, so this one is kept deterministically.
    // Other tests in this binary may stream traces into the same
    // process-wide store while the guard is held; every assertion below is
    // scoped to our own trace id.
    let store = Arc::new(TraceStore::new(TailSamplerConfig::keep_all()));
    let _guard = install_store(store.clone());

    let entries = catalog();
    let entry = &entries[0];
    let engine = Engine::new(Compiler::new(), small_config());
    let mut request = Request::new(
        entry.program.clone(),
        entry.bindings.clone(),
        entry.inputs.clone(),
    );
    // A spilled resubmission carries its original admission instant; the
    // engine must charge the full wait, not just the retry's slice.
    request.admitted_at = Some(Instant::now() - Duration::from_millis(50));
    let resp = engine
        .submit(request)
        .expect("accepted")
        .wait()
        .expect("served");
    engine.shutdown();

    assert!(
        resp.queue_wait >= Duration::from_millis(50),
        "backdated admission undercounted: {:?}",
        resp.queue_wait
    );
    let ctx = resp
        .trace
        .expect("engine mints a trace when a store is installed");
    let stored = store
        .lookup(ctx.trace_id)
        .expect("completion kept at latency_threshold 0");
    assert_eq!(stored.outcome, TraceOutcome::Completed);

    // One stitched tree: a single root, with the queue wait and both
    // service phases hanging off it even though admission happened on
    // this thread and the work ran on a pool worker. (The compile
    // pipeline's own `core/compile` and `core/run` nest one level down.)
    let roots: Vec<_> = stored.spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "exactly one root span: {:?}", stored.spans);
    let root = roots[0];
    assert_eq!((root.cat, root.name), ("engine", "request"));
    for name in ["queue", "compile", "run"] {
        let span = stored
            .spans
            .iter()
            .find(|s| (s.cat, s.name) == ("engine", name))
            .unwrap_or_else(|| panic!("missing `{name}` span in {:?}", stored.spans));
        assert_eq!(
            span.parent,
            Some(root.span_id),
            "`{name}` stitches under the root"
        );
    }
    let queue = stored.spans.iter().find(|s| s.name == "queue").unwrap();
    assert!(
        queue.dur_us >= 50_000.0,
        "queue span must cover the backdated wait: {} us",
        queue.dur_us
    );
}
