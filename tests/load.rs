//! Load-generator integration: the zipf schedule is deterministic under a
//! fixed seed, closed-loop runs account for every request, the dashboard
//! figures match independently computed values, and the load gate
//! accepts the committed load baseline while rejecting doctored ones.

use multidim::Compiler;
use multidim_bench::alerts_gate::check_alerts;
use multidim_bench::loadgen::{
    client_schedule, run_load, run_load_fleet, schedule_digest, tenant_of, LoadConfig, LoadMode,
    ZipfSampler,
};
use multidim_bench::regression::DEFAULT_TOLERANCE;
use multidim_engine::{Engine, EngineConfig};
use multidim_obs::Slo;
use multidim_serve::{FrontDoor, FrontDoorConfig, QuotaPolicy};
use multidim_trace::json::Json;
use multidim_workloads::catalog::{catalog, CatalogEntry};
use multidim_workloads::data::Rng;
use std::time::Duration;

fn test_engine(queue: usize) -> Engine {
    Engine::new(
        Compiler::new(),
        EngineConfig {
            workers: 2,
            queue_capacity: queue,
            cache_capacity: 64,
            store_path: None,
            ..EngineConfig::default()
        },
    )
}

fn small_catalog() -> Vec<CatalogEntry> {
    catalog().into_iter().take(5).collect()
}

fn closed_cfg(requests_per_client: usize) -> LoadConfig {
    LoadConfig {
        clients: 2,
        tenants: 1,
        skew: 1.0,
        seed: 42,
        mode: LoadMode::ClosedCount {
            requests_per_client,
        },
        slo: Slo::new("test", 0.99, 0.050),
        window: Duration::from_millis(50),
        windows: 16,
        alert_rules: LoadConfig::default_alert_rules(),
    }
}

#[test]
fn zipf_mass_is_monotone_and_skew_sharpens_it() {
    let z = ZipfSampler::new(10, 1.0);
    let masses: Vec<f64> = (0..10).map(|r| z.mass(r)).collect();
    for pair in masses.windows(2) {
        assert!(
            pair[0] > pair[1],
            "mass must decrease with rank: {masses:?}"
        );
    }
    let total: f64 = masses.iter().sum();
    assert!((total - 1.0).abs() < 1e-12, "masses sum to 1, got {total}");

    let flat = ZipfSampler::new(10, 0.5);
    let sharp = ZipfSampler::new(10, 2.0);
    assert!(sharp.mass(0) > z.mass(0) && z.mass(0) > flat.mass(0));

    // Empirical frequencies track the analytic mass.
    let mut rng = Rng::new(7);
    let mut counts = [0usize; 10];
    let draws = 20_000;
    for _ in 0..draws {
        counts[z.sample(&mut rng)] += 1;
    }
    for (r, &c) in counts.iter().enumerate() {
        let freq = c as f64 / draws as f64;
        assert!(
            (freq - z.mass(r)).abs() < 0.02,
            "rank {r}: empirical {freq:.4} vs analytic {:.4}",
            z.mass(r)
        );
    }
}

#[test]
fn schedules_are_deterministic_per_seed_and_distinct_per_client() {
    let a = client_schedule(25, 1.0, 42, 0, 500);
    let b = client_schedule(25, 1.0, 42, 0, 500);
    assert_eq!(a, b, "same seed + client must replay the same schedule");

    let other_client = client_schedule(25, 1.0, 42, 1, 500);
    assert_ne!(a, other_client, "clients draw from independent streams");
    let other_seed = client_schedule(25, 1.0, 7, 0, 500);
    assert_ne!(a, other_seed, "the seed changes every stream");

    assert_eq!(
        schedule_digest(25, 1.0, 42, 8),
        schedule_digest(25, 1.0, 42, 8)
    );
    assert_ne!(
        schedule_digest(25, 1.0, 42, 8),
        schedule_digest(25, 1.0, 43, 8)
    );
    assert_ne!(
        schedule_digest(25, 1.0, 42, 8),
        schedule_digest(25, 1.2, 42, 8)
    );
}

#[test]
fn closed_loop_accounts_for_every_request_and_is_reproducible() {
    let entries = small_catalog();
    let cfg = closed_cfg(10);

    let engine = test_engine(16);
    let report = run_load(&engine, &entries, &cfg);
    engine.shutdown();

    // Every request the schedule issued is in exactly one outcome bucket.
    assert_eq!(report.attempted, 20, "2 clients x 10 requests");
    assert_eq!(
        report.completed + report.shed + report.expired + report.failed,
        report.attempted
    );
    let rows_attempted: u64 = report.per_workload.iter().map(|w| w.attempted).sum();
    let rows_completed: u64 = report.per_workload.iter().map(|w| w.completed).sum();
    assert_eq!(rows_attempted, report.attempted);
    assert_eq!(rows_completed, report.completed);
    // Closed loop with an ample queue: nothing sheds, nothing expires.
    assert_eq!(report.shed, 0);
    assert_eq!(report.expired, 0);
    assert_eq!(report.failed, 0);

    // Dashboard figures match independent arithmetic.
    assert!((report.availability() - 1.0).abs() < 1e-12);
    assert!((report.shed_rate() - 0.0).abs() < 1e-12);
    let text = report.render_text();
    assert!(text.contains("availability 100.000%"), "{text}");

    // A second run with the same seed replays the same schedule: the
    // per-workload attempted distribution is identical.
    let engine2 = test_engine(16);
    let report2 = run_load(&engine2, &entries, &cfg);
    engine2.shutdown();
    assert_eq!(report.schedule_digest, report2.schedule_digest);
    let dist = |r: &multidim_bench::loadgen::LoadReport| {
        r.per_workload
            .iter()
            .map(|w| (w.name.clone(), w.attempted))
            .collect::<Vec<_>>()
    };
    assert_eq!(dist(&report), dist(&report2));
}

#[test]
fn report_json_carries_the_gate_schema_and_self_gates() {
    let entries = small_catalog();
    let engine = test_engine(16);
    let report = run_load(&engine, &entries, &closed_cfg(8));
    engine.shutdown();

    let j = report.to_json();
    let parsed = Json::parse(&j.render()).expect("report renders valid JSON");
    for key in [
        "p99_under_load_us",
        "shed_rate",
        "availability",
        "samples",
        "requests",
        "schedule_digest",
        "per_workload",
        "slo",
        "series",
    ] {
        assert!(parsed.get(key).is_some(), "report JSON must carry `{key}`");
    }
    assert!(parsed.get("warm_rps").is_none(), "not a warm report");
    assert_eq!(
        parsed.get("samples").and_then(Json::as_u64),
        Some(report.completed)
    );

    // Consistency between the struct and its JSON.
    let f = |k: &str| parsed.get(k).and_then(Json::as_f64).unwrap();
    assert!((f("shed_rate") - report.shed_rate()).abs() < 1e-6);
    assert!((f("availability") - report.availability()).abs() < 1e-6);

    // A report gates cleanly against itself...
    let gate = check_alerts(&parsed, &parsed, None, DEFAULT_TOLERANCE).unwrap();
    assert!(gate.passed(), "{}", gate.render());
    // ...and fails against a 2x-doctored copy of its tail latency.
    let doctored = doctor(&parsed, "p99_under_load_us", 2.0);
    let gate = check_alerts(&parsed, &doctored, None, DEFAULT_TOLERANCE).unwrap();
    assert!(!gate.passed(), "{}", gate.render());
}

#[test]
fn shed_rate_and_slo_figures_match_hand_computation_under_overload() {
    // Queue of 1 with open-loop fire rate far above a 2-worker debug
    // engine's capacity: most requests must shed, and the dashboard's
    // shed-rate and SLO availability must equal the hand-computed ratios.
    let entries = small_catalog();
    let engine = test_engine(1);
    let cfg = LoadConfig {
        clients: 4,
        tenants: 1,
        skew: 1.0,
        seed: 42,
        mode: LoadMode::Open {
            target_rps: 2000.0,
            duration: Duration::from_millis(600),
        },
        slo: Slo::new("test", 0.99, 0.050),
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
    let expected_shed = report.shed as f64 / report.attempted as f64;
    assert!((report.shed_rate() - expected_shed).abs() < 1e-12);
    let expected_avail = report.completed as f64 / report.attempted as f64;
    assert!((report.availability() - expected_avail).abs() < 1e-12);

    // The SLO tracker saw every outcome: its totals are the client-side
    // totals, and its availability SLI is the same ratio.
    assert_eq!(report.slo.samples, report.attempted);
    assert_eq!(
        report.slo.errors,
        report.shed + report.expired + report.failed
    );
    let slo_avail = report.slo.availability.expect("non-empty run");
    assert!(
        (slo_avail - expected_avail).abs() < 1e-12,
        "SLO availability {slo_avail} vs hand-computed {expected_avail}"
    );

    // Overload telemetry was sampled.
    assert!(report.series.iter().any(|s| !s.series.is_empty()));
}

#[test]
fn committed_load_baseline_passes_its_own_gate_and_rejects_doctored_runs() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_load_baseline.json"
    );
    let text = std::fs::read_to_string(path).expect("committed BENCH_load_baseline.json");
    let baseline = Json::parse(&text).expect("baseline is valid JSON");
    assert!(baseline.get("samples").and_then(Json::as_u64).unwrap() >= 100);

    let gate = |current: &Json| check_alerts(&baseline, current, None, DEFAULT_TOLERANCE).unwrap();
    let honest = gate(&baseline);
    assert!(honest.passed(), "{}", honest.render());
    // The thresholds the committed baseline derives.
    let thresholds: Vec<f64> = honest.checks.iter().map(|c| c.threshold).collect();
    assert_eq!(thresholds[0].round(), 166_143.0, "{}", honest.render());
    assert_eq!(thresholds[1], 0.995, "{}", honest.render());
    assert!((thresholds[2] - 0.179).abs() < 5e-4, "{}", honest.render());

    let slow = gate(&doctor(&baseline, "p99_under_load_us", 2.0));
    assert!(!slow.passed(), "2x p99 must fail: {}", slow.render());

    let shedding = gate(&set(&baseline, "shed_rate", 0.999));
    assert!(
        !shedding.passed(),
        "shed 0.999 must fail: {}",
        shedding.render()
    );

    let unavailable = gate(&set(&baseline, "availability", 0.1));
    assert!(
        !unavailable.passed(),
        "availability 0.1 must fail: {}",
        unavailable.render()
    );
}

fn test_fleet(shards: usize, queue: usize, quota: QuotaPolicy) -> FrontDoor {
    FrontDoor::new(
        Compiler::new(),
        FrontDoorConfig {
            shards,
            shard: EngineConfig {
                workers: 2,
                queue_capacity: queue,
                cache_capacity: 64,
                store_path: None,
                ..EngineConfig::default()
            },
            quota,
        },
    )
}

#[test]
fn fleet_closed_loop_accounts_per_tenant_and_matches_the_assignment() {
    let entries = small_catalog();
    let cfg = LoadConfig {
        tenants: 3,
        clients: 4,
        ..closed_cfg(6)
    };
    let door = test_fleet(3, 32, QuotaPolicy::default());
    let report = run_load_fleet(&door, &entries, &cfg);
    door.shutdown();

    assert_eq!(report.shards, Some(3));
    assert_eq!(report.tenants, 3);
    assert_eq!(report.attempted, 24, "4 clients x 6 requests");
    assert_eq!(report.completed, 24, "ample queue: everything serves");
    assert_eq!(report.quota_rejected, 0);

    // Per-tenant rows partition the traffic, and each tenant's request
    // count is exactly its deterministically assigned clients' share.
    let rows_requests: u64 = report.per_tenant.iter().map(|t| t.requests).sum();
    let rows_completed: u64 = report.per_tenant.iter().map(|t| t.completed).sum();
    assert_eq!(rows_requests, report.attempted);
    assert_eq!(rows_completed, report.completed);
    for (i, row) in report.per_tenant.iter().enumerate() {
        let clients_here = (0..cfg.clients)
            .filter(|&c| tenant_of(cfg.seed, c, cfg.tenants) == i)
            .count() as u64;
        assert_eq!(
            row.requests,
            clients_here * 6,
            "tenant {i} rows disagree with the seeded assignment"
        );
    }
}

/// The sharded path emits the gate's schema, and the gate's verdicts on a
/// fleet report follow its baseline: a baseline built from the report
/// itself passes it, and one with a quarter of its p99 pages on the p99
/// alone. Both baselines come from the report, so no wall-clock race
/// decides the verdict; CI's sharded load gate compares a live fleet run
/// with the committed single-engine baseline.
#[test]
fn fleet_report_json_gates_against_a_single_engine_baseline() {
    let entries = small_catalog();
    let door = test_fleet(4, 32, QuotaPolicy::default());
    let fleet = run_load_fleet(
        &door,
        &entries,
        &LoadConfig {
            tenants: 4,
            ..closed_cfg(8)
        },
    );
    door.shutdown();

    let fleet_json = Json::parse(&fleet.to_json().render()).unwrap();
    for key in [
        "p99_under_load_us",
        "shed_rate",
        "availability",
        "tenants",
        "shards",
        "quota_rejected",
        "per_tenant",
    ] {
        assert!(
            fleet_json.get(key).is_some(),
            "fleet JSON must carry `{key}`"
        );
    }
    assert_eq!(fleet_json.get("shards").and_then(Json::as_f64), Some(4.0));
    let p99 = fleet_json.get("p99_under_load_us").and_then(Json::as_f64);
    assert!(p99.is_some_and(|p| p > 0.0), "fleet p99 {p99:?}");
    let gate =
        |baseline: &Json| check_alerts(baseline, &fleet_json, None, DEFAULT_TOLERANCE).unwrap();
    let own = gate(&fleet_json);
    assert!(
        own.passed(),
        "a fleet run must pass its own baseline: {}",
        own.render()
    );
    let strict = gate(&doctor(&fleet_json, "p99_under_load_us", 0.25));
    let firing: Vec<&str> = strict
        .checks
        .iter()
        .filter(|c| c.firing)
        .map(|c| c.metric.as_str())
        .collect();
    assert_eq!(
        firing,
        ["p99_under_load_us"],
        "a quarter of the fleet's p99 must page on p99 alone: {}",
        strict.render()
    );

    // Per-tenant quota enforcement shows up in the report: burst 2 and
    // zero refill caps every tenant at 2 completions.
    let door = test_fleet(2, 32, QuotaPolicy::per_tenant(0.0, 2.0));
    let quota_run = run_load_fleet(
        &door,
        &entries,
        &LoadConfig {
            tenants: 2,
            clients: 2,
            ..closed_cfg(5)
        },
    );
    door.shutdown();
    assert_eq!(quota_run.attempted, 10);
    for row in &quota_run.per_tenant {
        // Every client maps to some tenant; rows with traffic obey the cap.
        assert!(row.completed <= 2, "tenant {} exceeded its burst", row.name);
        assert_eq!(row.quota_rejected, row.requests - row.completed);
    }
    assert_eq!(
        quota_run.quota_rejected,
        quota_run.attempted - quota_run.completed
    );
}

/// A copy of `report` with `key` multiplied by `factor`.
fn doctor(report: &Json, key: &str, factor: f64) -> Json {
    let value = report
        .get(key)
        .and_then(Json::as_f64)
        .expect("doctored key is numeric");
    set(report, key, value * factor)
}

/// A copy of `report` with `key` set to `value`.
fn set(report: &Json, key: &str, value: f64) -> Json {
    match report {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .map(|(k, v)| {
                    let v = if k == key {
                        Json::Num(value)
                    } else {
                        v.clone()
                    };
                    (k.clone(), v)
                })
                .collect(),
        ),
        _ => panic!("report must be an object"),
    }
}
