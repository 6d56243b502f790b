//! Fleet-observability integration: the engine's metrics registry fills as
//! requests are served, and the histogram snapshots behind it merge
//! exactly. The per-request record — the kept trace, including the
//! pipeline spans engine workers open — is tested in
//! `tests/request_record.rs`.

use multidim::prelude::{DynParPolicy, LaunchStrategy};
use multidim::Compiler;
use multidim_engine::{Engine, EngineConfig, Request, Response};
use multidim_trace::json::Json;
use multidim_workloads::catalog::catalog;
use std::collections::BTreeMap;

fn small_config() -> EngineConfig {
    EngineConfig {
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 64,
        ..EngineConfig::default()
    }
}

/// Each simulator cost counter of a served run, summed over its kernels,
/// as the run's exported metrics record it.
fn run_costs(resp: &Response) -> BTreeMap<String, u64> {
    let metrics = resp.executable.metrics(&resp.run).to_json();
    let mut sums = BTreeMap::new();
    for kernel in metrics
        .get("kernels")
        .and_then(Json::as_arr)
        .expect("kernels")
    {
        let Some(Json::Obj(cost)) = kernel.get("cost") else {
            panic!("kernel without a cost record: {kernel:?}");
        };
        for (field, v) in cost {
            *sums.entry(field.clone()).or_insert(0) += v.as_u64().expect("integer counter");
        }
    }
    sums
}

#[test]
fn registry_fills_as_requests_are_served() {
    let engine = Engine::new(Compiler::new(), small_config());
    let (program, bindings, inputs) = multidim_engine::doctest_workload();
    let served: Vec<Response> = (0..3)
        .map(|_| {
            engine
                .submit(Request::new(
                    program.clone(),
                    bindings.clone(),
                    inputs.clone(),
                ))
                .expect("accepted")
                .wait()
                .expect("served")
        })
        .collect();

    let text = engine.render_metrics();
    assert!(text.contains("engine_requests_total 3"), "{text}");
    assert!(text.contains("engine_completed_total 3"), "{text}");
    assert!(text.contains("engine_request_seconds_count 3"), "{text}");
    // Compile time is recorded only for the cache miss; hits skip it.
    assert!(text.contains("engine_compile_seconds_count 1"), "{text}");
    // Gauges synced from the cache and store.
    assert!(text.contains("engine_cache_hits 2"), "{text}");
    assert!(text.contains("engine_cache_misses 1"), "{text}");
    // The cache-miss compile ran the mapping search and the simulator fed
    // its counters through.
    assert!(text.contains("mapping_candidates_total"), "{text}");
    assert!(text.contains("sim_kernels_total 3"), "{text}");
    assert!(text.contains("sim_run_seconds_count 3"), "{text}");

    // JSON export parses and agrees on a counter.
    let json = Json::parse(&engine.registry().to_json().render()).expect("valid JSON");
    assert_eq!(
        json.get("engine_completed_total").and_then(Json::as_u64),
        Some(3)
    );

    // Each `sim_<field>_total` is that cost counter summed over the three
    // served runs.
    let mut totals = BTreeMap::new();
    for resp in &served {
        for (field, v) in run_costs(resp) {
            *totals.entry(field).or_insert(0) += v;
        }
    }
    assert!(totals.contains_key("warp_instr"), "{totals:?}");
    for (field, total) in &totals {
        let name = format!("sim_{field}_total");
        assert_eq!(
            json.get(&name).and_then(Json::as_u64),
            Some(*total),
            "{name}"
        );
    }
}

#[test]
fn child_launch_families_follow_the_served_run() {
    // spmv_zipf under forced aggregation launches one consolidated child
    // grid; the per-workload families count its launches and blocks.
    let entry = catalog()
        .into_iter()
        .find(|e| e.name() == "spmv_zipf")
        .expect("spmv_zipf in the catalog");
    let compiler = Compiler::new().dynpar(DynParPolicy::Force(LaunchStrategy::Aggregate));
    let engine = Engine::new(compiler, small_config());
    let resp = engine
        .submit(Request::new(entry.program, entry.bindings, entry.inputs))
        .expect("accepted")
        .wait()
        .expect("served");
    let costs = run_costs(&resp);
    assert!(costs["child_launches"] > 0, "{costs:?}");

    let json = Json::parse(&engine.registry().to_json().render()).expect("valid JSON");
    for (family, field) in [
        ("engine_child_launches_by_workload", "child_launches"),
        ("engine_child_blocks_by_workload", "child_blocks"),
    ] {
        assert_eq!(
            json.get(family)
                .and_then(|f| f.get("spmv_zipf"))
                .and_then(Json::as_u64),
            Some(costs[field]),
            "{family}"
        );
    }
}

#[test]
fn snapshot_merge_is_associative_and_commutative() {
    use multidim_obs::{Histogram, HistogramSnapshot};
    use multidim_workloads::data::Rng;

    // Property: for randomly generated sample sets A, B, C the merge
    // (A+B)+C equals A+(B+C) equals C+(B+A), bucket for bucket — merges
    // are exact, so window aggregation order can never change a quantile.
    let mut rng = Rng::new(0x5eed);
    for trial in 0..50 {
        let sets: Vec<HistogramSnapshot> = (0..3)
            .map(|_| {
                let h = Histogram::new();
                // Spread samples over ~9 orders of magnitude, including
                // the underflow bucket (non-positive samples).
                for _ in 0..rng.below(200) {
                    h.record(rng.range_f64(-1e-6, 1e3));
                }
                h.snapshot()
            })
            .collect();
        let (a, b, c) = (&sets[0], &sets[1], &sets[2]);

        let mut left = a.clone();
        left.merge(b);
        left.merge(c);

        let mut bc = b.clone();
        bc.merge(c);
        let mut right = a.clone();
        right.merge(&bc);

        let mut rev = c.clone();
        rev.merge(b);
        rev.merge(a);

        // Bucket counts, count, min, and max merge exactly; only `sum`
        // is floating-point, so it is associative up to rounding.
        let exact_eq = |x: &HistogramSnapshot, y: &HistogramSnapshot, law: &str| {
            assert_eq!(x.bucket_counts(), y.bucket_counts(), "{law}, trial {trial}");
            assert_eq!(x.count(), y.count(), "{law}, trial {trial}");
            assert_eq!(x.min(), y.min(), "{law}, trial {trial}");
            assert_eq!(x.max(), y.max(), "{law}, trial {trial}");
            let scale = x.sum().abs().max(1.0);
            assert!(
                (x.sum() - y.sum()).abs() <= 1e-9 * scale,
                "{law}: sums diverged beyond rounding, trial {trial}"
            );
        };
        exact_eq(&left, &right, "associativity");
        exact_eq(&left, &rev, "commutativity");
        assert_eq!(left.count(), a.count() + b.count() + c.count());
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(
                left.quantile(q),
                rev.quantile(q),
                "quantiles must not depend on merge order (trial {trial})"
            );
        }
    }
}
