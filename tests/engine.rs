//! Stress and integration tests for the concurrent engine: correctness
//! under contention (bit-identical to serial compiles), single-flight
//! compilation, shared executables, panic isolation, deadline handling,
//! parallel-vs-serial autotune equivalence (with and without a
//! measurement cap), the analytic baseline of a tuning record, and
//! tuning-store persistence plus corruption fallback.

use multidim::Compiler;
use multidim_engine::{Engine, EngineConfig, EngineError, Request};
use multidim_ir::{ArrayId, SymId};
use multidim_workloads::catalog::catalog;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 8;

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

#[test]
fn panicking_request_is_isolated_and_pool_survives() {
    let engine = Engine::new(Compiler::new(), small_config());

    // A hostile binding (N = i64::MAX) deterministically panics inside
    // the mapping parameter search. The engine must contain it.
    let (program, mut bindings, inputs) = multidim_engine::doctest_workload();
    bindings.bind(SymId(0), i64::MAX);
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
            if options.max_measurements == 5 {
                assert_eq!(
                    record.measured,
                    5,
                    "{}: the cap bounds measurements",
                    e.name()
                );
            }
        }
    }
}

#[test]
fn analytic_cost_is_the_compiled_mappings_measured_cost() {
    let entries = catalog();
    let engine = Engine::new(Compiler::new(), small_config());
    let compiler = Compiler::new();
    let options = multidim_mapping::TuneOptions::default();
    // Tune one catalog entry; also report where its compiled mapping sits
    // in the plan and that candidate's measured cost.
    let tune = |name: &str| {
        let e = entries.iter().find(|e| e.name() == name).expect(name);
        let compiled = compiler.compile(&e.program, &e.bindings).expect("compile");
        let prepared = compiler
            .prepare_tune(&e.program, &e.bindings, &options)
            .expect("plan");
        let candidates = &prepared.plan.candidates;
        let index = candidates
            .iter()
            .position(|c| c.mapping == compiled.mapping);
        let cost = index.and_then(|_| {
            compiler.measure_candidate(&prepared, &e.bindings, &e.inputs, &compiled.mapping)
        });
        let (_exe, record) = engine
            .autotune(&e.program, &e.bindings, &e.inputs, &options)
            .expect("tune");
        (index, cost, record)
    };

    // hotspot compiles to the plan's third candidate: its measured cost
    // is the analytic baseline.
    let (index, cost, record) = tune("hotspot");
    assert_eq!(index, Some(2));
    assert!(cost.is_some());
    assert_eq!(record.analytic_cost, cost);
    assert_eq!(record.analytic_delta(), cost.map(|a| a / record.tuned_cost));

    // sumRows compiles to a split(1) mapping outside the plan: no
    // candidate's cost stands in for it.
    let (index, _, record) = tune("sumRows");
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

    // `latency_threshold: 0.0` marks every completion slow, so the tail
    // sampler keeps this trace deterministically. Other tests in this
    // binary may stream traces into the same process-wide store while the
    // guard is held; every assertion below is scoped to our own trace id.
    let store = Arc::new(TraceStore::new(TailSamplerConfig {
        latency_threshold: 0.0,
        ..TailSamplerConfig::default()
    }));
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
    // this thread and the work ran on a pool worker.
    let roots: Vec<_> = stored.spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "exactly one root span: {:?}", stored.spans);
    let root = roots[0];
    assert_eq!((root.cat, root.name), ("engine", "request"));
    for name in ["queue", "compile", "run"] {
        let span = stored
            .spans
            .iter()
            .find(|s| s.name == name)
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
