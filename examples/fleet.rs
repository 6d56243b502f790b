//! Capstone demo of the serving tier: a 4-shard front door serving the
//! workload catalog on behalf of several tenants, with quotas,
//! rendezvous routing, fleet-wide single-flight, and overload shedding
//! all visible in the final dashboard.
//!
//! ```text
//! cargo run --release --example fleet
//! ```
//!
//! The run preloads the catalog (cold compiles, routed to each
//! program's home shard), then serves three rounds of tenant traffic:
//! a well-behaved tenant under its quota, a greedy tenant that blows
//! through its bucket into the shared spare capacity, and a burst of
//! identical submissions that routing sends to one home shard, whose
//! cache folds them onto one executable. It ends with per-tenant SLO status and the front door's
//! metric exposition.

use multidim::Compiler;
use multidim_engine::{EngineConfig, Request};
use multidim_serve::{FrontDoor, FrontDoorConfig, QuotaPolicy, ServeError, TenantQuota};
use multidim_workloads::catalog::catalog;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let entries = catalog();
    let door = FrontDoor::new(
        Compiler::new(),
        FrontDoorConfig {
            shards: 4,
            shard: EngineConfig {
                workers: 2,
                queue_capacity: 16,
                ..EngineConfig::default()
            },
            // 40-request bursts per tenant, no refill over this short
            // demo; 20 more requests of shared spare capacity.
            quota: QuotaPolicy::per_tenant(0.0, 40.0).with_spare(TenantQuota::new(0.0, 20.0)),
        },
    );

    // Warm the fleet: every catalog entry compiles once, on its home
    // shard.
    let report = door.preload(entries.iter().map(request).collect());
    println!(
        "preload: warmed {} programs ({} from the tuning store), {} failed",
        report.warmed, report.tuned, report.failed
    );
    for shard in 0..door.shards() {
        let stats = door.shard(shard).cache_stats();
        println!(
            "  shard {shard}: {} resident executables ({} compiles)",
            door.shard(shard).cache_stats().misses - stats.failures,
            stats.misses
        );
    }

    // Tenant traffic: "steady" stays inside its bucket, "greedy"
    // exhausts its own and then the spare.
    let mut tickets = Vec::new();
    for round in 0..3usize {
        for (t, tenant) in ["steady", "greedy"].iter().enumerate() {
            let budget = if t == 0 { 10 } else { 25 };
            for i in 0..budget {
                let entry = &entries[(round + i) % entries.len()];
                match door.submit(tenant, request(entry)) {
                    Ok(ticket) => tickets.push(ticket),
                    Err(ServeError::QuotaExceeded { retry_after, .. }) => {
                        println!(
                            "  {tenant}: quota exhausted (retry in ~{:.0} s)",
                            retry_after.as_secs_f64()
                        );
                        break;
                    }
                    Err(e) => println!("  {tenant}: {e}"),
                }
            }
        }
    }
    // A burst of one identical cold-ish program: every submission
    // routes to the same home shard, whose cache single-flights them.
    for _ in 0..8 {
        if let Ok(t) = door.submit("bursty", request(&entries[0])) {
            tickets.push(t);
        }
    }
    let mut served = 0usize;
    for ticket in tickets {
        if ticket.wait().is_ok() {
            served += 1;
        }
    }

    let stats = door.stats();
    println!("\nserved {served} of {} submissions", stats.submitted);
    println!(
        "  quota-rejected {}  shed (deadline) {}  shed (overload) {}  spilled {}  coalesced {}",
        stats.quota_rejected,
        stats.shed_deadline,
        stats.shed_overload,
        stats.spilled,
        stats.coalesced
    );
    println!("\nper-tenant SLO status:");
    for (tenant, status) in door.slo_statuses() {
        println!(
            "  {tenant}: {} samples, {} errors, availability {}",
            status.samples,
            status.errors,
            status
                .availability
                .map(|a| format!("{:.1}%", a * 100.0))
                .unwrap_or_else(|| "-".to_string())
        );
    }
    println!("\n{}", door.render_metrics());
    door.shutdown();
    Ok(())
}

fn request(entry: &multidim_workloads::catalog::CatalogEntry) -> Request {
    Request::new(
        entry.program.clone(),
        entry.bindings.clone(),
        entry.inputs.clone(),
    )
}
