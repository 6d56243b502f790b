//! Integration tests for the sharded serving tier: routing determinism
//! across front-door restarts, rendezvous reshuffle on fleet growth,
//! quota accounting against hand-computed token-bucket fixtures,
//! fleet-wide single-flight during cold compiles, spill on home-shard
//! backpressure, the shared tuning store as a warm tier, and the
//! per-shard/per-tenant observability surface.

use multidim::Compiler;
use multidim_engine::{EngineConfig, Request};
use multidim_serve::{FrontDoor, FrontDoorConfig, QuotaPolicy, Router, ServeError, TenantQuota};
use multidim_workloads::catalog::catalog;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn request_for(entry: &multidim_workloads::catalog::CatalogEntry) -> Request {
    Request::new(
        entry.program.clone(),
        entry.bindings.clone(),
        entry.inputs.clone(),
    )
}

fn door_with(shards: usize, shard: EngineConfig, quota: QuotaPolicy) -> FrontDoor {
    FrontDoor::new(
        Compiler::new(),
        FrontDoorConfig {
            shards,
            shard,
            quota,
        },
    )
}

#[test]
fn routing_is_deterministic_across_restarts() {
    let entries = catalog();
    let first = door_with(4, EngineConfig::default(), QuotaPolicy::default());
    let homes: Vec<usize> = entries
        .iter()
        .map(|e| first.home_shard(first.fingerprint_of(&e.program, &e.bindings)))
        .collect();
    drop(first);

    // A brand-new front door (a "restarted" process) routes every
    // program to the same shard: routing is a pure function of the
    // fingerprint, with no retained state.
    let second = door_with(4, EngineConfig::default(), QuotaPolicy::default());
    for (e, &home) in entries.iter().zip(&homes) {
        assert_eq!(
            second.home_shard(second.fingerprint_of(&e.program, &e.bindings)),
            home,
            "{} moved shards across restart",
            e.name()
        );
    }
    // And the catalog spreads across shards rather than piling up on one.
    let distinct: std::collections::BTreeSet<usize> = homes.iter().copied().collect();
    assert!(distinct.len() > 1, "all programs routed to one shard");
}

#[test]
fn fleet_growth_reshuffles_only_onto_the_new_shard() {
    let entries = catalog();
    let compiler = Compiler::new();
    let before = Router::new(4);
    let after = Router::new(5);
    for e in &entries {
        let fp = compiler.fingerprint(&e.program, &e.bindings);
        let (old, new) = (before.route(fp), after.route(fp));
        if old != new {
            assert_eq!(new, 4, "{} reshuffled between surviving shards", e.name());
        }
    }
}

#[test]
fn quota_accounting_matches_token_bucket_fixture() {
    // Hand-computed fixture: burst 3, zero refill — each tenant gets
    // exactly 3 admissions ever, no spare capacity.
    let entries = catalog();
    let door = door_with(
        2,
        EngineConfig::default(),
        QuotaPolicy::per_tenant(0.0, 3.0),
    );
    for tenant in ["alpha", "beta"] {
        let mut admitted = 0usize;
        let mut rejected = 0usize;
        for _ in 0..5 {
            match door.submit(tenant, request_for(&entries[0])) {
                Ok(ticket) => {
                    admitted += 1;
                    ticket.wait().expect("served");
                }
                Err(ServeError::QuotaExceeded {
                    tenant: t,
                    retry_after,
                }) => {
                    assert_eq!(t, tenant);
                    // Zero refill rate: the hint is the clamp, not 0.
                    assert!(retry_after > Duration::ZERO);
                    rejected += 1;
                }
                Err(e) => panic!("unexpected rejection: {e}"),
            }
        }
        assert_eq!((admitted, rejected), (3, 2), "tenant {tenant}");
    }
    let stats = door.stats();
    assert_eq!(stats.quota_rejected, 4);
    assert_eq!(stats.completed, 6);

    // Per-tenant accounting reached the SLO trackers too: 5 decisions
    // each, 3 successes.
    for tenant in ["alpha", "beta"] {
        let status = door.slo_status(tenant).expect("tenant tracked");
        assert_eq!(status.samples, 5, "tenant {tenant}");
        assert_eq!(status.errors, 2, "tenant {tenant}");
    }
    door.shutdown();
}

#[test]
fn spare_bucket_is_shared_after_guarantees_exhaust() {
    // Guarantee 1 per tenant, spare burst 2: four submissions from two
    // tenants all admit; the fifth (either tenant) rejects.
    let entries = catalog();
    let door = door_with(
        2,
        EngineConfig::default(),
        QuotaPolicy::per_tenant(0.0, 1.0).with_spare(TenantQuota::new(0.0, 2.0)),
    );
    let mut admitted = 0usize;
    for tenant in ["a", "b", "a", "b"] {
        let ticket = door
            .submit(tenant, request_for(&entries[0]))
            .expect("admitted from own or spare budget");
        ticket.wait().expect("served");
        admitted += 1;
    }
    assert_eq!(admitted, 4);
    assert!(matches!(
        door.submit("a", request_for(&entries[0])),
        Err(ServeError::QuotaExceeded { .. })
    ));
    door.shutdown();
}

#[test]
fn cold_compile_is_single_flight_across_the_fleet() {
    // K concurrent clients submit the identical cold program. Rendezvous
    // routing sends every submission to its home shard, whose cache
    // single-flights them onto one compile: exactly one cache miss
    // fleet-wide.
    const K: usize = 8;
    let entries = catalog();
    let door = door_with(
        4,
        EngineConfig {
            workers: 4,
            queue_capacity: 64,
            ..EngineConfig::default()
        },
        QuotaPolicy::default(),
    );
    let entry = &entries[3];
    let home = door.home_shard(door.fingerprint_of(&entry.program, &entry.bindings));
    let served_at_home = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for client in 0..K {
            let door = &door;
            let served_at_home = &served_at_home;
            s.spawn(move || {
                let ticket = door
                    .submit(&format!("tenant-{client}"), request_for(entry))
                    .expect("admitted");
                let served = ticket.wait().expect("served");
                if served.shard == home && !served.spilled {
                    served_at_home.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let fleet_misses: u64 = (0..door.shards())
        .map(|i| door.shard(i).cache_stats().misses)
        .sum();
    assert_eq!(fleet_misses, 1, "cold compile ran more than once");
    assert_eq!(
        served_at_home.load(Ordering::Relaxed),
        K,
        "every ticket is served by the home shard"
    );
    let shard_coalesced: u64 = (0..door.shards())
        .map(|i| door.shard(i).cache_stats().coalesced)
        .sum();
    assert_eq!(door.stats().coalesced, shard_coalesced);
    door.shutdown();
}

#[test]
fn home_rejection_spills_to_least_loaded_shard() {
    // Saturate the home shard's queue with slow cold compiles, then
    // watch an overflow request land on another shard.
    let entries = catalog();
    let door = door_with(
        2,
        EngineConfig {
            workers: 1,
            queue_capacity: 1,
            ..EngineConfig::default()
        },
        QuotaPolicy::default(),
    );
    // Pick several distinct programs that share a home shard, so they
    // all queue on it.
    let home0 = door.home_shard(door.fingerprint_of(&entries[0].program, &entries[0].bindings));
    let same_home: Vec<&multidim_workloads::catalog::CatalogEntry> = entries
        .iter()
        .filter(|e| door.home_shard(door.fingerprint_of(&e.program, &e.bindings)) == home0)
        .take(6)
        .collect();
    assert!(same_home.len() >= 4, "catalog too small for the fixture");

    let mut tickets = Vec::new();
    let mut spilled = 0usize;
    for e in &same_home {
        match door.submit("t", request_for(e)) {
            Ok(t) => {
                if t.spilled {
                    assert_ne!(t.shard, home0);
                    spilled += 1;
                }
                tickets.push(t);
            }
            // With both queues at capacity 1 the fixture may overflow
            // entirely; Overloaded must carry both shard ids.
            Err(ServeError::Overloaded {
                home_shard,
                spill_shard,
                ..
            }) => {
                assert_eq!(home_shard, home0);
                assert_eq!(spill_shard, Some(1 - home0));
            }
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    for t in tickets {
        t.wait().expect("served");
    }
    assert_eq!(door.stats().spilled, spilled as u64);
    assert!(spilled > 0, "queue of one never overflowed into a spill");
    door.shutdown();
}

#[test]
fn shared_store_is_a_warm_tier_across_restarts() {
    let dir = std::env::temp_dir().join(format!("serve-warm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let store = dir.join("fleet-store.json");
    let entries = catalog();

    // First fleet: preload warms the hot tier, autotune writes the
    // shared store (the warm tier's contents are *tuned* mappings).
    let door = door_with(
        2,
        EngineConfig {
            store_path: Some(store.clone()),
            ..EngineConfig::default()
        },
        QuotaPolicy::default(),
    );
    let report = door.preload(entries.iter().take(6).map(request_for).collect());
    assert_eq!(report.warmed, 6);
    assert_eq!(report.failed, 0);
    assert_eq!(report.tuned, 0, "nothing tuned yet");
    door.autotune(
        &entries[0].program,
        &entries[0].bindings,
        &entries[0].inputs,
        &multidim_mapping::TuneOptions::default(),
    )
    .expect("autotune succeeds");
    door.shutdown();
    assert!(store.exists(), "shutdown should persist the shared store");

    // Second fleet, fresh hot caches: preload finds the tuned mapping
    // in the warm tier instead of re-running the search.
    let door = door_with(
        2,
        EngineConfig {
            store_path: Some(store.clone()),
            ..EngineConfig::default()
        },
        QuotaPolicy::default(),
    );
    let report = door.preload(entries.iter().take(6).map(request_for).collect());
    assert_eq!(report.warmed, 6);
    assert_eq!(
        report.tuned, 1,
        "restarted fleet should reuse the stored tuning"
    );
    // And the hot tier is now primed: a tenant request is a cache hit
    // served with the tuned mapping.
    let served = door
        .submit("t", request_for(&entries[0]))
        .expect("admitted")
        .wait()
        .expect("served");
    assert!(served.response.cache_hit, "preload left the hot tier cold");
    assert!(served.response.tuned, "tuned mapping not reused on a hit");
    door.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_expose_per_shard_gauges_and_per_tenant_counters() {
    let entries = catalog();
    let door = door_with(3, EngineConfig::default(), QuotaPolicy::default());
    for (i, tenant) in ["acme", "globex"].iter().enumerate() {
        door.submit(tenant, request_for(&entries[i]))
            .expect("admitted")
            .wait()
            .expect("served");
    }
    let text = door.render_metrics();
    assert!(
        text.contains("# TYPE serve_shard_queue_depth gauge"),
        "{text}"
    );
    for shard in 0..3 {
        assert!(
            text.contains(&format!("serve_shard_queue_depth{{shard=\"{shard}\"}}")),
            "missing shard {shard} gauge in:\n{text}"
        );
    }
    assert!(
        text.contains("serve_tenant_requests{tenant=\"acme\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("serve_tenant_requests{tenant=\"globex\"} 1"),
        "{text}"
    );
    assert!(text.contains("serve_completed_total 2"), "{text}");

    // The served response names the program the owning shard ran.
    let served = door
        .submit("acme", request_for(&entries[0]))
        .expect("admitted")
        .wait()
        .expect("served");
    assert_eq!(served.response.executable.program.name, entries[0].name());
    door.shutdown();
}

#[test]
fn spilled_request_trace_is_one_stitched_tree_with_a_spill_span() {
    use multidim_trace::{install_store, TailSamplerConfig, TraceStore};
    use std::sync::Arc;

    // Keep every finished trace deterministically; the store is
    // process-wide within this test binary, so every assertion below is
    // scoped to trace ids returned by our own tickets.
    let store = Arc::new(TraceStore::new(TailSamplerConfig::keep_all()));
    let _guard = install_store(store.clone());

    // Same saturation fixture as the spill test above: distinct programs
    // sharing a home shard, queues of one, so overflow must spill.
    let entries = catalog();
    let door = door_with(
        2,
        EngineConfig {
            workers: 1,
            queue_capacity: 1,
            ..EngineConfig::default()
        },
        QuotaPolicy::default(),
    );
    let home0 = door.home_shard(door.fingerprint_of(&entries[0].program, &entries[0].bindings));
    let same_home: Vec<&multidim_workloads::catalog::CatalogEntry> = entries
        .iter()
        .filter(|e| door.home_shard(door.fingerprint_of(&e.program, &e.bindings)) == home0)
        .take(6)
        .collect();
    assert!(same_home.len() >= 4, "catalog too small for the fixture");

    let mut tickets = Vec::new();
    for e in &same_home {
        match door.submit("t", request_for(e)) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded { .. }) => {}
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    let mut spilled_traces = 0usize;
    for t in tickets {
        let served = t.wait().expect("served");
        let ctx = served
            .response
            .trace
            .expect("door mints a trace when a store is installed");
        let stored = store
            .lookup(ctx.trace_id)
            .expect("completion kept at latency_threshold 0");

        // One tree per request: the door owns the single root span, and
        // every shard-side span (queue/compile/run) plus any routing
        // span (spill) hangs directly off it — even for a spilled
        // request, whose retry clone crossed into a second engine. The
        // compile pipeline's spans nest under spans of the same trace.
        let roots: Vec<_> = stored.spans.iter().filter(|s| s.parent.is_none()).collect();
        assert_eq!(roots.len(), 1, "one root per trace: {:?}", stored.spans);
        let root = roots[0];
        assert_eq!((root.cat, root.name), ("serve", "request"));
        for span in &stored.spans {
            if span.span_id == root.span_id {
                continue;
            }
            if matches!(span.cat, "engine" | "serve") {
                assert_eq!(
                    span.parent,
                    Some(root.span_id),
                    "span `{}` not stitched under the door root",
                    span.name
                );
            } else {
                assert!(
                    span.parent
                        .is_some_and(|p| stored.spans.iter().any(|s| s.span_id == p)),
                    "span `{}/{}` parented outside its trace",
                    span.cat,
                    span.name
                );
            }
        }
        let queue = stored
            .spans
            .iter()
            .find(|s| s.name == "queue")
            .expect("queue span");
        if served.spilled {
            spilled_traces += 1;
            let spill = stored
                .spans
                .iter()
                .find(|s| s.name == "spill")
                .expect("spilled request records a spill span");
            assert_eq!(spill.cat, "serve");
            // Full-wait attribution: the resubmission carried the
            // original admission instant, so the shard's queue span
            // starts at (or before) the spill hop, not after it.
            assert!(
                queue.start_us <= spill.start_us + 1.0,
                "spilled queue span must start at original admission \
                 (queue {} vs spill {})",
                queue.start_us,
                spill.start_us
            );
        }
    }
    assert!(
        spilled_traces > 0,
        "queue of one never overflowed into a spill"
    );
    door.shutdown();
}
