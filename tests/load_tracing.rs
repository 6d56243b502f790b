//! Load-generator acceptance for the closed tracing/alerting loop: an
//! overloaded run keeps a trace for every shed/expired/failed request,
//! tail-samples the boring completions with exact drop accounting,
//! publishes only resolvable exemplars, and logs the burn-rate alert
//! transitions. Lives in its own test binary so the process-global
//! trace store sees no traffic from unrelated tests and the sampler
//! counters can be asserted exactly.

use multidim::Compiler;
use multidim_bench::loadgen::{run_load, LoadConfig, LoadMode};
use multidim_engine::{Engine, EngineConfig};
use multidim_obs::Slo;
use multidim_trace::{install_store, trace_id_hex, StoredTrace, TailSamplerConfig, TraceStore};
use multidim_workloads::catalog::catalog;
use std::sync::Arc;
use std::time::Duration;

/// Every kept trace is one request record: exactly one root span, which
/// names the program (`workload`), carries an `outcome` equal to the
/// trace's, and carries the failure `reason` unless the request completed.
fn assert_one_record_per_request(traces: &[StoredTrace]) {
    for trace in traces {
        let roots: Vec<_> = trace.spans.iter().filter(|s| s.parent.is_none()).collect();
        assert_eq!(roots.len(), 1, "one root span per trace: {trace:?}");
        let arg = |key: &str| {
            roots[0]
                .args
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
        };
        assert!(
            arg("workload").is_some(),
            "root names no workload: {trace:?}"
        );
        assert_eq!(
            arg("outcome").as_deref(),
            Some(trace.outcome.as_str()),
            "{trace:?}"
        );
        assert_eq!(
            arg("reason").is_some(),
            trace.outcome.is_bad(),
            "a root carries a reason exactly when the request did not complete: {trace:?}"
        );
    }
}

#[test]
fn overloaded_run_keeps_every_bad_trace_and_samples_the_boring_ones() {
    let store = Arc::new(TraceStore::new(TailSamplerConfig {
        capacity: 32_768,
        ..TailSamplerConfig::default()
    }));
    let _guard = install_store(store.clone());

    // Queue of 1 with an open-loop fire rate far above a 2-worker debug
    // engine's capacity: most requests shed, some complete.
    let entries: Vec<_> = catalog().into_iter().take(5).collect();
    let engine = Engine::new(
        Compiler::new(),
        EngineConfig {
            workers: 2,
            queue_capacity: 1,
            cache_capacity: 64,
            store_path: None,
            ..EngineConfig::default()
        },
    );
    let cfg = LoadConfig {
        clients: 4,
        tenants: 1,
        skew: 1.0,
        seed: 42,
        mode: LoadMode::Open {
            target_rps: 2000.0,
            duration: Duration::from_millis(600),
        },
        slo: Slo::new("load", 0.99, 0.050),
        window: Duration::from_millis(50),
        windows: 32,
        alert_rules: LoadConfig::default_alert_rules(),
    };
    let report = run_load(&engine, &entries, &cfg);
    engine.shutdown();

    assert!(
        report.shed > 0,
        "open loop at 2000 rps must overflow queue 1"
    );

    // Terminal accounting: the engine finished exactly one trace per
    // attempted request, and every shed/expired/failed one was kept —
    // the tail sampler never drops an interesting trace.
    let stats = store.stats();
    assert_eq!(stats.finished, report.attempted as u64, "{stats:?}");
    assert_eq!(
        stats.finished_bad,
        (report.shed + report.expired + report.failed) as u64,
        "{stats:?}"
    );
    let bad_kept = store
        .kept_traces()
        .iter()
        .filter(|t| t.outcome.is_bad())
        .count();
    assert_eq!(
        bad_kept as u64, stats.finished_bad,
        "a bad trace was sampled away"
    );
    // Sheds included: a request the engine turned away at submission
    // still leaves a root span saying why.
    assert_one_record_per_request(&store.kept_traces());

    // Tail sampling: boring (fast, successful) traces are mostly
    // dropped, and every drop is accounted. The keep decision hashes
    // the trace id against the ~5% keep fraction; bound it loosely so
    // the binomial wobble of a short run stays inside the assertion.
    assert_eq!(stats.kept + stats.dropped_sampled, stats.finished);
    if stats.finished_boring >= 40 {
        assert!(
            stats.dropped_sampled > 0,
            "sampler kept every boring trace: {stats:?}"
        );
        assert!(
            (stats.kept_boring as f64) <= 0.20 * stats.finished_boring as f64,
            "sampler kept too many boring traces: {stats:?}"
        );
    }

    // Exemplars: every trace id the report publishes resolves to a
    // stored trace (dropped traces never publish their ids).
    for (bucket, ex) in &report.exemplars {
        let stored = store.lookup(ex.trace_id).unwrap_or_else(|| {
            panic!(
                "exemplar {} in bucket {bucket} does not resolve",
                trace_id_hex(ex.trace_id)
            )
        });
        assert_eq!(stored.trace_id, ex.trace_id);
    }

    // The standing burn-rate rules saw the overload: shedding most of
    // the traffic against a 99% availability SLO burns budget at tens
    // of times the sustainable rate, far past the 6x threshold, so the
    // ticket-severity rule must have logged a firing transition.
    assert!(
        report.alerts.iter().any(|a| a.firing),
        "no alert transition in an overloaded run: {:?}",
        report.alerts
    );
}
