//! Concurrency stress for the process-wide trace store and the metrics
//! registry: eight engine shards hammered by eight client threads, every
//! span funneling into one shared store. This suite lives in its own
//! test binary so the process-global store sees no traffic from
//! unrelated tests and the sampler accounting can be asserted exactly.

use multidim::Compiler;
use multidim_engine::{EngineConfig, Request};
use multidim_serve::{FrontDoor, FrontDoorConfig};
use multidim_trace::{install_store, TailSamplerConfig, TraceOutcome, TraceStore};
use multidim_workloads::catalog::catalog;
use std::collections::HashSet;
use std::sync::Arc;

const SHARDS: usize = 8;
const CLIENTS: usize = 8;
const PER_CLIENT: usize = 12;
const TOTAL: usize = CLIENTS * PER_CLIENT;

#[test]
fn eight_clients_on_eight_shards_lose_and_duplicate_no_spans() {
    // The tail sampler keeps every trace, so any missing trace below is a
    // lost span, not a sampling decision. The default span cap stays, so
    // `spans_dropped` still counts spans past it.
    let store = Arc::new(TraceStore::new(TailSamplerConfig {
        capacity: 16_384,
        max_spans_per_trace: TailSamplerConfig::default().max_spans_per_trace,
        ..TailSamplerConfig::keep_all()
    }));
    let _guard = install_store(store.clone());

    let entries = catalog();
    let door = FrontDoor::new(
        Compiler::new(),
        FrontDoorConfig {
            shards: SHARDS,
            shard: EngineConfig {
                workers: 1,
                queue_capacity: 64,
                ..EngineConfig::default()
            },
            ..FrontDoorConfig::default()
        },
    );

    // Closed-loop clients, each under its own tenant, round-robining the
    // catalog from a per-client offset so shards see interleaved traffic.
    let ids: Vec<u128> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let door = &door;
                let entries = &entries;
                s.spawn(move || {
                    let tenant = format!("tenant-{client}");
                    (0..PER_CLIENT)
                        .map(|i| {
                            let e = &entries[(client + i) % entries.len()];
                            let served = door
                                .submit(
                                    &tenant,
                                    Request::new(
                                        e.program.clone(),
                                        e.bindings.clone(),
                                        e.inputs.clone(),
                                    ),
                                )
                                .expect("admitted")
                                .wait()
                                .expect("served");
                            served.response.trace.expect("door mints a trace").trace_id
                        })
                        .collect::<Vec<u128>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client panicked"))
            .collect()
    });

    assert_eq!(ids.len(), TOTAL);
    let distinct: HashSet<u128> = ids.iter().copied().collect();
    assert_eq!(
        distinct.len(),
        TOTAL,
        "duplicated trace ids under contention"
    );

    // Exact sampler accounting: this binary is the store's only traffic.
    let stats = store.stats();
    assert_eq!(stats.started, TOTAL as u64, "{stats:?}");
    assert_eq!(stats.finished, TOTAL as u64, "{stats:?}");
    assert_eq!(
        stats.kept, TOTAL as u64,
        "lost traces under contention: {stats:?}"
    );
    assert_eq!(stats.kept + stats.dropped_sampled, stats.finished);
    assert_eq!(stats.spans_dropped, 0, "span records lost under contention");

    // Every kept trace is a complete, well-formed tree: exactly one
    // root, unique span ids, every engine and serve span stitched to that
    // root, every compile-pipeline span under a span of the same trace,
    // and the shard's queue span present — no span leaked into the wrong
    // trace even though eight workers recorded into the store
    // concurrently.
    for id in &distinct {
        let stored = store.lookup(*id).expect("kept trace resolves");
        assert_eq!(stored.outcome, TraceOutcome::Completed);
        let mut span_ids = HashSet::new();
        for span in &stored.spans {
            assert!(
                span_ids.insert(span.span_id),
                "duplicate span id in {stored:?}"
            );
        }
        let roots: Vec<_> = stored.spans.iter().filter(|s| s.parent.is_none()).collect();
        assert_eq!(roots.len(), 1, "one root per trace: {:?}", stored.spans);
        let root = roots[0];
        assert_eq!((root.cat, root.name), ("serve", "request"));
        // The root is the request record: program, outcome, and no
        // failure reason for a completion.
        let arg = |key: &str| {
            root.args
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
        };
        assert!(
            arg("workload").is_some(),
            "root names no workload: {root:?}"
        );
        assert_eq!(arg("outcome").as_deref(), Some(stored.outcome.as_str()));
        assert_eq!(arg("reason"), None, "a completed root carries no reason");
        for span in &stored.spans {
            if span.span_id == root.span_id {
                continue;
            }
            if matches!(span.cat, "engine" | "serve") {
                assert_eq!(span.parent, Some(root.span_id), "{span:?}");
            } else {
                assert!(
                    span.parent.is_some_and(|p| span_ids.contains(&p)),
                    "span {}/{} parented outside its trace: {:?}",
                    span.cat,
                    span.name,
                    stored.spans
                );
            }
        }
        assert!(
            stored.spans.iter().any(|s| s.name == "queue"),
            "missing shard queue span in {:?}",
            stored.spans
        );
    }

    // The exposition is merge-order independent: rendering is a pure
    // function of recorded state, so two renders agree with each other
    // and the per-tenant counters agree with what each client submitted,
    // regardless of which shard won which race.
    let first = door.render_metrics();
    let second = door.render_metrics();
    assert_eq!(first, second, "exposition depends on iteration order");
    assert!(
        first.contains(&format!("serve_completed_total {TOTAL}")),
        "{first}"
    );
    for client in 0..CLIENTS {
        assert!(
            first.contains(&format!(
                "serve_tenant_requests{{tenant=\"tenant-{client}\"}} {PER_CLIENT}"
            )),
            "tenant-{client} lost requests in:\n{first}"
        );
    }
    door.shutdown();
}
