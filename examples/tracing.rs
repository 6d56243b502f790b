//! Demo of the closed observability loop: end-to-end request traces with
//! tail sampling, exemplar-linked latency histograms, and burn-rate
//! alerts — all on a live 2-shard front door.
//!
//! ```text
//! cargo run --release --example tracing
//! ```
//!
//! The run installs a process-wide tail-sampling trace store, drives a
//! few bursts of traffic through deliberately tight shard queues (so
//! some requests shed and some spill off their home shard), and then
//! walks the loop end to end: sampler accounting, the p99 exemplar
//! resolved from the latency histogram back to its stored trace (printed
//! as the stitched span tree), and the alert engine's transition log.

use multidim::Compiler;
use multidim_engine::{EngineConfig, Request};
use multidim_obs::{
    AlertEngine, AlertRule, AlertSeverity, BurnObjective, BurnRateRule, Registry, Slo, SloTracker,
};
use multidim_serve::{FrontDoor, FrontDoorConfig, ServeError};
use multidim_trace::{install_store, trace_id_hex, SpanRecord, TailSamplerConfig, TraceStore};
use multidim_workloads::catalog::{catalog, CatalogEntry};
use std::error::Error;
use std::sync::Arc;

fn request(e: &CatalogEntry) -> Request {
    Request::new(e.program.clone(), e.bindings.clone(), e.inputs.clone())
}

/// Print a stored trace as an indented tree, children under parents in
/// start order.
fn print_tree(spans: &[SpanRecord], parent: Option<u64>, depth: usize) {
    let mut children: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent == parent).collect();
    children.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    for span in children {
        println!(
            "  {:indent$}{}/{} {:.2} ms",
            "",
            span.cat,
            span.name,
            span.dur_us / 1e3,
            indent = depth * 2
        );
        print_tree(spans, Some(span.span_id), depth + 1);
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    // Tail sampler: keep every bad or slow (≥ 5 ms) trace, a quarter of
    // the boring ones. The guard uninstalls the store on drop.
    let store = Arc::new(TraceStore::new(TailSamplerConfig {
        latency_threshold: 0.005,
        keep_fraction: 0.25,
        ..TailSamplerConfig::default()
    }));
    let _guard = install_store(store.clone());

    // Tight queues on purpose: burst submissions overflow them, so the
    // demo produces sheds (kept traces) and spills (spill spans).
    let door = FrontDoor::new(
        Compiler::new(),
        FrontDoorConfig {
            shards: 2,
            shard: EngineConfig {
                workers: 1,
                queue_capacity: 2,
                ..EngineConfig::default()
            },
            ..FrontDoorConfig::default()
        },
    );

    let registry = Registry::new();
    let latency = registry.histogram(
        "demo_request_seconds",
        "end-to-end latency of served requests (client view)",
    );
    let tracker = SloTracker::new(Slo::new("demo", 0.99, 0.050), 16);
    let mut alerts = AlertEngine::new(vec![AlertRule::Burn(BurnRateRule {
        name: "demo-availability-burn".to_string(),
        severity: AlertSeverity::Ticket,
        slo: "demo".to_string(),
        objective: BurnObjective::Availability,
        fast_windows: 2,
        slow_windows: 8,
        threshold: 6.0,
    })]);

    let entries = catalog();
    let (mut attempted, mut shed, mut spilled) = (0usize, 0usize, 0usize);
    for round in 0..3 {
        // Submit the whole burst before waiting: the queues of two must
        // overflow, and overflow on the home shard spills once.
        let mut tickets = Vec::new();
        for e in entries.iter().take(12) {
            attempted += 1;
            match door.submit("demo", request(e)) {
                Ok(t) => tickets.push(t),
                Err(ServeError::Overloaded { .. }) => {
                    shed += 1;
                    tracker.record(0.0, false);
                }
                Err(e) => return Err(format!("unexpected rejection: {e}").into()),
            }
        }
        for t in tickets {
            let served = t.wait()?;
            spilled += usize::from(served.spilled);
            let secs = (served.response.queue_wait + served.response.service_time).as_secs_f64();
            tracker.record(secs, true);
            // Publish an exemplar only when the trace was kept, so every
            // id the histogram links to actually resolves.
            match served.response.trace.filter(|c| store.contains(c.trace_id)) {
                Some(ctx) => latency.record_with_exemplar(secs, ctx.trace_id),
                None => latency.record(secs),
            }
        }
        alerts.evaluate(Some(&registry), &[("demo", &tracker)]);
        tracker.rotate();
        println!("round {round}: {attempted} attempted, {shed} shed, {spilled} spilled so far");
    }
    door.shutdown();

    let stats = store.stats();
    println!(
        "\nsampler: kept {} of {} finished ({} bad kept outright, {} boring dropped)",
        stats.kept, stats.finished, stats.finished_bad, stats.dropped_sampled
    );

    // The closed loop: tail exemplar -> trace id -> stored span tree.
    let tail = registry.tail_exemplars("demo_request_seconds", 1);
    let exemplar = tail.first().ok_or("no exemplar recorded")?;
    let stored = store
        .lookup(exemplar.trace_id)
        .ok_or("published exemplar must resolve")?;
    println!(
        "\nslowest exemplar {} ({:.2} ms) resolves to outcome `{}`:",
        trace_id_hex(exemplar.trace_id),
        exemplar.value * 1e3,
        stored.outcome.as_str()
    );
    print_tree(&stored.spans, None, 0);

    println!("\nalert log:");
    if alerts.log().is_empty() {
        println!("  (no transitions)");
    }
    for event in alerts.log() {
        println!("  {}", event.render_line());
    }
    Ok(())
}
