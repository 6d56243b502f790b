//! `load` — zipf load generator over the 25-workload catalog.
//!
//! Drives `Engine::submit` (or, with `--shards N`, the sharded
//! `FrontDoor`) from N concurrent clients with a seeded,
//! zipf-distributed request schedule, and prints the load dashboard
//! (availability, shed rate, deadline-miss rate, SLO burn rates,
//! overload sparklines, per-workload and per-tenant tail latency). With
//! `--report PATH` it also writes the JSON report the `check_alerts`
//! gate compares against `BENCH_load_baseline.json`.
//!
//! ```text
//! cargo run --release -p multidim-bench --bin load -- \
//!     --clients 8 --skew 1.0 --seed 42 --duration 5s --report load.report.json
//! cargo run --release -p multidim-bench --bin load -- \
//!     --shards 4 --tenants 8 --duration 5s --report fleet.report.json
//! ```
//!
//! Modes (`--mode`):
//! * `overdrive` (default) — calibrate closed-loop capacity with a short
//!   burst, then run open-loop at `--overdrive-factor` times it. The
//!   machine-independent overload mode: shed rate is set by the factor,
//!   not by host speed.
//! * `closed` — each client waits for its response; `--requests N` bounds
//!   per-client count, else `--duration` bounds wall clock.
//! * `open` — fixed aggregate `--target-rps`, nobody waits.
//!
//! Sharding (`--shards N`, N > 1): requests route through the front
//! door's rendezvous router onto N engine shards (each with
//! `workers / N` workers, so total parallelism matches the single-engine
//! run). `--tenants M` spreads the clients over M tenants
//! deterministically from the seed; quotas default to unlimited so the
//! gate metrics stay comparable.
//!
//! Tracing and alerting:
//! * `--traces PATH` installs a process-wide tail-sampling trace store
//!   for the run and writes the kept traces (plus sampler stats) as
//!   JSON; completions whose trace was kept land in the latency
//!   histogram with exemplar trace ids, so the report's p99 links to a
//!   stored trace.
//! * `--alerts PATH` writes the run's alert transition log (the
//!   `check_alerts` gate scans it for page-severity firings).
//! * `--alert-baseline PATH` derives page-severity threshold rules from
//!   a committed baseline and evaluates them live, alongside the
//!   standing ticket-severity burn-rate rules.

use multidim::Compiler;
use multidim_bench::alerts_gate::rules_from_baseline;
use multidim_bench::loadgen::{run_load, run_load_fleet, LoadConfig, LoadMode};
use multidim_bench::regression::DEFAULT_TOLERANCE;
use multidim_engine::{Engine, EngineConfig};
use multidim_obs::Slo;
use multidim_serve::{FrontDoor, FrontDoorConfig};
use multidim_trace::json::Json;
use multidim_trace::{install_store, TailSamplerConfig, TraceStore};
use multidim_workloads::catalog::catalog;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: load [--clients N] [--shards N] [--tenants M] [--skew S] [--seed N]
            [--mode closed|open|overdrive]
            [--duration 5s] [--requests N] [--target-rps R] [--overdrive-factor F]
            [--workers N] [--queue N] [--deadline-ms N] [--window-ms N]
            [--availability-slo F] [--p99-slo-ms F] [--report PATH]
            [--traces PATH] [--alerts PATH] [--alert-baseline PATH]"
    );
    std::process::exit(2);
}

fn parse_duration(s: &str) -> Option<Duration> {
    let s = s.trim();
    if let Some(ms) = s.strip_suffix("ms") {
        return Some(Duration::from_secs_f64(
            ms.trim().parse::<f64>().ok()? / 1e3,
        ));
    }
    if let Some(secs) = s.strip_suffix('s') {
        return Some(Duration::from_secs_f64(secs.trim().parse().ok()?));
    }
    Some(Duration::from_secs_f64(s.parse().ok()?))
}

fn main() {
    let mut clients = 8usize;
    let mut shards = 1usize;
    let mut tenants = 1usize;
    let mut skew = 1.0f64;
    let mut seed = 42u64;
    let mut mode = "overdrive".to_string();
    let mut duration = Duration::from_secs(5);
    let mut requests: Option<usize> = None;
    let mut target_rps: Option<f64> = None;
    let mut factor = 3.0f64;
    let mut workers: Option<usize> = None;
    let mut queue = 16usize;
    let mut deadline_ms = 250u64;
    let mut window_ms = 250u64;
    let mut availability_slo = 0.99f64;
    let mut p99_slo_ms = 50.0f64;
    let mut report: Option<String> = None;
    let mut traces: Option<String> = None;
    let mut alerts: Option<String> = None;
    let mut alert_baseline: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i).cloned().unwrap_or_else(|| usage())
        };
        match flag {
            "--clients" => clients = value().parse().unwrap_or_else(|_| usage()),
            "--shards" => shards = value().parse().unwrap_or_else(|_| usage()),
            "--tenants" => tenants = value().parse().unwrap_or_else(|_| usage()),
            "--skew" => skew = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--mode" => mode = value(),
            "--duration" => duration = parse_duration(&value()).unwrap_or_else(|| usage()),
            "--requests" => requests = Some(value().parse().unwrap_or_else(|_| usage())),
            "--target-rps" => target_rps = Some(value().parse().unwrap_or_else(|_| usage())),
            "--overdrive-factor" => factor = value().parse().unwrap_or_else(|_| usage()),
            "--workers" => workers = Some(value().parse().unwrap_or_else(|_| usage())),
            "--queue" => queue = value().parse().unwrap_or_else(|_| usage()),
            "--deadline-ms" => deadline_ms = value().parse().unwrap_or_else(|_| usage()),
            "--window-ms" => window_ms = value().parse().unwrap_or_else(|_| usage()),
            "--availability-slo" => availability_slo = value().parse().unwrap_or_else(|_| usage()),
            "--p99-slo-ms" => p99_slo_ms = value().parse().unwrap_or_else(|_| usage()),
            "--report" => report = Some(value()),
            "--traces" => traces = Some(value()),
            "--alerts" => alerts = Some(value()),
            "--alert-baseline" => alert_baseline = Some(value()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }

    let mode = match mode.as_str() {
        "closed" => match requests {
            Some(requests_per_client) => LoadMode::ClosedCount {
                requests_per_client,
            },
            None => LoadMode::ClosedDuration { duration },
        },
        "open" => LoadMode::Open {
            target_rps: target_rps.unwrap_or_else(|| {
                eprintln!("--mode open requires --target-rps");
                std::process::exit(2);
            }),
            duration,
        },
        "overdrive" => LoadMode::Overdrive { factor, duration },
        _ => usage(),
    };

    let mut config = EngineConfig {
        queue_capacity: queue,
        cache_capacity: 64,
        store_path: None,
        default_deadline: Some(Duration::from_millis(deadline_ms)),
        ..EngineConfig::default()
    };
    if let Some(w) = workers {
        config.workers = w;
    }
    let entries = catalog();

    // Page rules derived from the committed baseline join the standing
    // ticket-severity burn rules for live evaluation.
    let mut alert_rules = LoadConfig::default_alert_rules();
    if let Some(path) = &alert_baseline {
        let baseline = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read alert baseline `{path}`: {e}"))
            .and_then(|text| {
                Json::parse(&text)
                    .map_err(|e| format!("alert baseline `{path}` is not valid JSON: {e}"))
            })
            .and_then(|json| rules_from_baseline(&json, DEFAULT_TOLERANCE))
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            });
        alert_rules.extend(baseline);
    }

    // Keep every interesting trace of a CI smoke without eviction: the
    // store is bounded, but 32k kept traces is far beyond what a 5 s
    // overdrive run keeps (errors + sheds + slow + ~5% of the rest).
    let store = traces.as_ref().map(|_| {
        Arc::new(TraceStore::new(TailSamplerConfig {
            capacity: 32_768,
            ..TailSamplerConfig::default()
        }))
    });
    let _store_guard = store.clone().map(install_store);

    let cfg = LoadConfig {
        clients,
        tenants,
        skew,
        seed,
        mode,
        slo: Slo::new("load", availability_slo, p99_slo_ms / 1e3),
        window: Duration::from_millis(window_ms),
        windows: 64,
        alert_rules,
    };
    let rep = if shards > 1 {
        // Split the worker budget across shards so total parallelism
        // matches the single-engine run the baseline was recorded on.
        // Per-shard queues get *half* an even split: unlike the single
        // engine's shared queue, a backlog parked behind one busy shard
        // cannot be drained by another shard's idle workers, so the
        // fleet needs shallower buffers to hold the same tail-latency
        // profile under overdrive (spill re-routes the overflow).
        config.workers = (config.workers / shards).max(1);
        config.queue_capacity = (config.queue_capacity / (2 * shards)).max(1);
        let door = FrontDoor::new(
            Compiler::new(),
            FrontDoorConfig {
                shards,
                shard: config,
                ..FrontDoorConfig::default()
            },
        );
        let rep = run_load_fleet(&door, &entries, &cfg);
        door.shutdown();
        rep
    } else {
        let engine = Engine::new(Compiler::new(), config);
        let rep = run_load(&engine, &entries, &cfg);
        engine.shutdown();
        rep
    };
    println!("{}", rep.render_text());
    if let Some(store) = &store {
        let stats = store.stats();
        println!(
            "  traces: kept {} of {} finished (dropped {} boring, evicted {})",
            stats.kept, stats.finished, stats.dropped_sampled, stats.evicted
        );
    }

    let write = |path: &str, body: String, what: &str| match std::fs::write(path, body) {
        Ok(()) => eprintln!("wrote {path} ({what})"),
        Err(err) => {
            eprintln!("failed to write {path}: {err}");
            std::process::exit(1);
        }
    };
    if let Some(path) = report {
        write(&path, rep.to_json().render(), "load report");
    }
    if let Some(path) = traces {
        let store = store.as_ref().expect("store installed with --traces");
        write(&path, store.to_json().render(), "kept traces");
    }
    if let Some(path) = alerts {
        let log = Json::Arr(rep.alerts.iter().map(|e| e.to_json()).collect());
        write(&path, log.render(), "alert transition log");
    }
}
