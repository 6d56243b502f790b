//! Capstone demo of the service layer: replay the whole workload catalog
//! through the concurrent engine and report throughput, cache hit rate,
//! queue depth, and latency quantiles from the engine's own metrics
//! registry.
//!
//! ```text
//! cargo run --release --example serve
//! ```
//!
//! The first round is cold (every program compiles); the following rounds
//! hit the content-addressed cache and share the compiled executables.
//! One workload is auto-tuned in between, so the final rounds also show
//! the persistent tuning store being preferred over the analytic mapping.
//! A trace store keeps every request's trace with all its spans
//! ([`TailSamplerConfig::keep_all`]): the run checks that a cold request's
//! trace nests each compile stage's span under `core/compile` and the
//! pipeline's spans under the engine's, that the tune's own trace holds one
//! `engine/autotune` span whose counts match the tuning record and the
//! simulations it cut, and ends with the last response's kept trace and
//! the registry's Prometheus-style text exposition.

use multidim::Compiler;
use multidim_engine::{Engine, EngineConfig, Request};
use multidim_obs::Histogram;
use multidim_trace::{collect, install_store, SpanRecord, TailSamplerConfig, TraceStore, Value};
use multidim_workloads::catalog::catalog;
use std::error::Error;
use std::sync::Arc;
use std::time::Instant;

const ROUNDS: usize = 4;

fn fmt_ms(seconds: f64) -> String {
    format!("{:.2} ms", seconds * 1e3)
}

/// The count `key` among `span`'s arguments.
fn count(span: &SpanRecord, key: &str) -> Option<u64> {
    span.args.iter().find_map(|(k, v)| match v {
        Value::UInt(n) if *k == key => Some(*n),
        _ => None,
    })
}

/// The kept trace of a tune holds exactly one `engine/autotune` span: its
/// `measured` is the tuning record's, and its `cut` counts the trace's
/// `sim/execute` spans that record a `cut_bound`.
fn check_tune_trace(spans: &[SpanRecord], measured: u64) {
    let tunes: Vec<_> = spans
        .iter()
        .filter(|s| (s.cat, s.name) == ("engine", "autotune"))
        .collect();
    assert_eq!(tunes.len(), 1, "one engine/autotune span per tune");
    let arg = |key: &str| {
        count(tunes[0], key).unwrap_or_else(|| panic!("engine/autotune has no `{key}` count"))
    };
    let cut_blocks: Vec<u64> = spans
        .iter()
        .filter(|s| (s.cat, s.name) == ("sim", "execute"))
        .filter(|s| s.args.iter().any(|(k, _)| *k == "cut_bound"))
        .map(|s| count(s, "blocks").expect("a cut sim/execute span counts its blocks"))
        .collect();
    assert_eq!(arg("measured"), measured, "engine/autotune `measured`");
    assert_eq!(
        arg("cut"),
        cut_blocks.len() as u64,
        "engine/autotune `cut` against the cut sim/execute spans"
    );
    println!(
        "tune trace: one engine/autotune span, {measured} measured, {} of {} simulations cut \
         ({} before their first block)",
        cut_blocks.len(),
        arg("simulations"),
        cut_blocks.iter().filter(|&&b| b == 0).count()
    );
}

fn main() -> Result<(), Box<dyn Error>> {
    // The sampler keeps every trace, and every span of it: the tune's
    // trace holds one simulation per candidate.
    let traces = Arc::new(TraceStore::new(TailSamplerConfig::keep_all()));
    let _traces_guard = install_store(traces.clone());
    let store_path = std::env::temp_dir().join("multidim-serve-tuning.json");
    let config = EngineConfig {
        queue_capacity: 32,
        store_path: Some(store_path.clone()),
        ..EngineConfig::default()
    };
    let workers = config.workers;
    let engine = Engine::new(Compiler::new(), config);
    if let Some(q) = &engine.store_load().quarantined {
        println!("tuning store was corrupt; quarantined to {}", q.display());
    }

    let entries = catalog();
    println!(
        "serving {} catalog workloads x {ROUNDS} rounds on {workers} workers (queue 32)",
        entries.len()
    );

    // Client-side latency view: the same log-bucketed histogram the engine
    // uses internally, so the quantiles here and in the exposition agree
    // on bucketing error.
    let latency = Histogram::new();
    let mut last_response = None;
    let mut cold_trace = None;
    let mut round_times: Vec<(f64, u64)> = Vec::new();
    let mut max_depth = 0usize;
    let started = Instant::now();
    for round in 0..ROUNDS {
        let hits_before = engine.cache_stats().hits;
        let round_start = Instant::now();
        let requests: Vec<Request> = entries
            .iter()
            .map(|e| Request::new(e.program.clone(), e.bindings.clone(), e.inputs.clone()))
            .collect();
        // run_batch applies flow control: when the bounded queue fills it
        // waits for the oldest in-flight request instead of dropping work.
        max_depth = max_depth.max(engine.queue_depth());
        let results = engine.run_batch(requests);
        max_depth = max_depth.max(engine.queue_depth());
        for (entry, result) in entries.iter().zip(&results) {
            match result {
                Ok(resp) => {
                    latency.record((resp.queue_wait + resp.service_time).as_secs_f64());
                }
                Err(e) => println!("  {}: FAILED: {e}", entry.name()),
            }
        }
        if round == 0 {
            // A program tuned by an earlier run is compiled from the
            // tuning store, without the mapping search.
            cold_trace = results
                .iter()
                .filter_map(|r| r.as_ref().ok())
                .find(|r| !r.tuned)
                .and_then(|r| r.trace);
        }
        if round == ROUNDS - 1 {
            last_response = results.into_iter().next().and_then(Result::ok);
        }
        let elapsed = round_start.elapsed().as_secs_f64();
        let hits = engine.cache_stats().hits - hits_before;
        round_times.push((elapsed, hits));
        println!(
            "round {round}: {:>8.1} req/s  ({hits} cache hits)",
            entries.len() as f64 / elapsed
        );

        if round == 0 {
            // Tune one workload on as many threads as the engine has
            // workers, inside a trace of its own; later rounds will be
            // served with the stored empirically-best mapping.
            let e = &entries[0];
            let options = multidim_mapping::TuneOptions::default();
            let (tuned, kept) = collect("example", e.name(), || {
                engine.autotune(&e.program, &e.bindings, &e.inputs, &options)
            });
            let (_exe, record) = tuned?;
            check_tune_trace(&kept.expect("every trace is kept").spans, record.measured);
            match record.analytic_delta() {
                Some(delta) => println!(
                    "tuned {}: cost {:.3e}, {delta:.2}x vs analytic mapping ({} candidates measured)",
                    e.name(),
                    record.tuned_cost,
                    record.measured
                ),
                None => println!(
                    "tuned {}: cost {:.3e} ({} candidates measured)",
                    e.name(),
                    record.tuned_cost,
                    record.measured
                ),
            }
        }
    }
    let wall = started.elapsed().as_secs_f64();

    let stats = engine.stats();
    let cache = engine.cache_stats();
    let snap = latency.snapshot();
    let q = |p: f64| snap.quantile(p).unwrap_or(f64::NAN);
    let total = (ROUNDS * entries.len()) as f64;
    println!();
    println!("=== engine summary ===");
    println!("  throughput     {:>10.1} req/s (overall)", total / wall);
    println!(
        "  cold round     {:>10.1} req/s, warm rounds {:>8.1} req/s",
        entries.len() as f64 / round_times[0].0,
        (total - entries.len() as f64) / round_times[1..].iter().map(|(t, _)| t).sum::<f64>()
    );
    println!(
        "  cache          {} hits / {} misses ({:.1}% hit rate), {} coalesced, {} evicted",
        cache.hits,
        cache.misses,
        100.0 * cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        cache.coalesced,
        cache.evictions
    );
    println!(
        "  requests       {} completed, {} failed, {} rejected, {} tuned-served",
        stats.completed, stats.failed, stats.rejected, stats.tuned_served
    );
    println!("  max queue depth observed: {max_depth}");
    // Overload view: run_batch flow-controls instead of dropping, so both
    // rates are 0 here — the prints exist so the capstone shows the same
    // dashboard an overloaded fleet would (see the `load` bench).
    println!(
        "  shed rate      {:>9.2}%  deadline-miss rate {:>6.2}%",
        100.0 * stats.rejected as f64 / stats.submitted.max(1) as f64,
        100.0 * stats.expired as f64 / stats.submitted.max(1) as f64,
    );
    println!(
        "  latency        p50 {}  p99 {}  max {}",
        fmt_ms(q(0.50)),
        fmt_ms(q(0.99)),
        fmt_ms(q(1.0))
    );
    println!(
        "  tuning store   {} records at {}",
        engine.store_len(),
        store_path.display()
    );

    // Per-workload tail latency from the engine's own labelled histogram
    // family — the slowest programs under load, by the engine's account.
    let by_workload = engine
        .registry()
        .histogram_family(
            "engine_request_seconds_by_workload",
            "end-to-end request latency per workload",
            "workload",
        )
        .snapshot();
    let mut rows: Vec<(String, f64, u64)> = by_workload
        .into_iter()
        .filter_map(|(name, snap)| snap.quantile(0.99).map(|p99| (name, p99, snap.count())))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!();
    println!("=== per-workload p99 (engine view, slowest first) ===");
    for (name, p99, count) in rows.iter().take(8) {
        println!("  {name:<22} p99 {:>10}  ({count} requests)", fmt_ms(*p99));
    }
    assert_eq!(
        rows.len(),
        entries.len(),
        "every workload has a labelled latency histogram"
    );

    // A cold request's trace carries the compile pipeline's own spans,
    // each under the engine phase that ran it, every compile stage under
    // `core/compile`, and the simulator's two stages under `core/run`.
    let cold = cold_trace
        .and_then(|ctx| traces.lookup(ctx.trace_id))
        .expect("round 0 kept a cold trace");
    let parent_of = |cat: &str, name: &str| {
        let child = cold
            .spans
            .iter()
            .find(|s| (s.cat, s.name) == (cat, name))
            .unwrap_or_else(|| panic!("cold trace has no {cat}/{name} span"));
        let parent = cold
            .spans
            .iter()
            .find(|s| Some(s.span_id) == child.parent)
            .unwrap_or_else(|| panic!("{cat}/{name} has no parent in its trace"));
        (parent.cat, parent.name)
    };
    assert_eq!(parent_of("core", "compile"), ("engine", "compile"));
    for (cat, name) in [
        ("codegen", "fuse"),
        ("search", "analyze"),
        ("analyze", "static_analysis"),
        ("dynpar", "choose"),
        ("codegen", "lower"),
        ("codegen", "validate"),
        ("analyze", "locality"),
    ] {
        assert_eq!(parent_of(cat, name), ("core", "compile"), "{cat}/{name}");
    }
    assert_eq!(parent_of("core", "run"), ("engine", "run"));
    assert_eq!(parent_of("sim", "specialize"), ("core", "run"));
    assert_eq!(parent_of("sim", "execute"), ("core", "run"));
    println!();
    println!(
        "cold request trace: {} spans, core/compile under engine/compile with fuse, \
         search, static analysis, dynpar choice, lower, validate and locality under it, \
         core/run under engine/run, sim/specialize and sim/execute under core/run",
        cold.spans.len()
    );

    // The per-request record: the last response's kept trace, with its
    // queue, compile and run spans and the mapping that ran.
    let trace_id = last_response
        .and_then(|resp| resp.trace)
        .expect("a store is installed, so the engine mints a trace")
        .trace_id;
    let kept = traces.lookup(trace_id).expect("every trace is kept");
    println!();
    println!("=== request trace ({}) ===", entries[0].name());
    println!("{}", kept.to_json().render());

    // The registry's Prometheus-style exposition (gauges synced first).
    println!();
    println!("=== metrics exposition ===");
    print!("{}", engine.render_metrics());

    // Smoke-test guarantees for CI: every request succeeded, the cache
    // deduplicated all repeat rounds, tuned serving kicked in, and the
    // engine's own histogram saw every request.
    assert_eq!(stats.failed, 0, "no request may fail");
    assert_eq!(
        cache.misses as usize,
        entries.len(),
        "each distinct workload compiles exactly once"
    );
    assert!(
        stats.tuned_served > 0,
        "tuned mapping must serve later rounds"
    );
    assert_eq!(snap.count(), (ROUNDS * entries.len()) as u64);
    let exposition = engine.render_metrics();
    assert!(exposition.contains("# TYPE engine_request_seconds summary"));
    assert!(exposition.contains("engine_completed_total"));
    assert_eq!(traces.stats().finished_bad, 0, "no failures, no bad traces");
    engine.shutdown();
    println!("ok");
    Ok(())
}
