//! End-to-end checks for the tracing/metrics layer: traced counters must
//! agree with the simulator's own result, the metrics JSON must round-trip
//! losslessly, and the exported trace must be valid Chrome trace-event JSON.
//!
//! A traced run is one request whose trace a fresh store keeps; its
//! events are the kept spans (the pipeline lane) and the run's metrics
//! (the simulated-GPU lane), as `examples/profile.rs` renders them. Tests
//! that install the store serialize on one lock.

use multidim::prelude::*;
use multidim_trace as trace;
use multidim_trace::json::Json;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

fn sum_rows(r: i64, c: i64) -> (Program, Bindings, multidim_ir::ArrayId) {
    let mut b = ProgramBuilder::new("sumRows");
    let rs = b.sym("R");
    let cs = b.sym("C");
    let m = b.input("m", ScalarKind::F32, &[Size::sym(rs), Size::sym(cs)]);
    let root = b.map(Size::sym(rs), |b, row| {
        b.reduce(Size::sym(cs), ReduceOp::Add, |b, col| {
            b.read(m, &[row.into(), col.into()])
        })
    });
    let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
    let mut bind = Bindings::new();
    bind.bind(rs, r);
    bind.bind(cs, c);
    (p, bind, m)
}

/// Serializes the tests that install the process-wide store.
static STORE_LOCK: Mutex<()> = Mutex::new(());

fn traced_run(r: i64, c: i64) -> (multidim::Executable, multidim::RunReport, Vec<trace::Event>) {
    let (p, bind, m) = sum_rows(r, c);
    let inputs: HashMap<_, _> = [(m, (0..r * c).map(|x| (x % 5) as f64).collect::<Vec<_>>())]
        .into_iter()
        .collect();
    let _lock = STORE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let store = Arc::new(trace::TraceStore::new(trace::TailSamplerConfig::keep_all()));
    let installed = trace::install_store(store);
    let ((exe, run), kept) = trace::collect("test", "sumRows", || {
        let exe = Compiler::new().compile(&p, &bind).unwrap();
        let run = exe.run(&inputs).unwrap();
        (exe, run)
    });
    drop(installed);
    let spans = kept.expect("kept").spans;
    let mut events: Vec<trace::Event> = spans.iter().map(trace::chrome::span_event).collect();
    events.extend(exe.metrics(&run).trace_events());
    (exe, run, events)
}

/// Per-kernel counters in the trace must sum to the simulator's totals —
/// checked across several shapes (single- and multi-kernel splits).
#[test]
fn traced_counters_sum_to_sim_totals() {
    for (r, c) in [(64, 128), (512, 256), (16, 4096), (1024, 32)] {
        let (_exe, run, events) = traced_run(r, c);
        let slices: Vec<&trace::Event> = events
            .iter()
            // Kernel slices sit on the simulated-GPU lane; the simulator's
            // wall-clock spans (`sim/specialize`, `sim/execute`) share the
            // category on the pipeline lane.
            .filter(|e| {
                e.cat == "sim" && e.phase == trace::Phase::Complete && e.pid == trace::PID_SIM
            })
            .collect();
        assert_eq!(
            slices.len(),
            run.kernels.len(),
            "[{r},{c}] one slice per kernel"
        );

        for key in [
            "warp_instr",
            "mem_requests",
            "transactions",
            "dram_bytes",
            "smem_accesses",
            "smem_conflicts",
            "syncs",
            "mallocs",
            "atomic_serial",
        ] {
            let traced: u64 = slices.iter().map(|e| e.get_u64(key).unwrap()).sum();
            let live: u64 = match key {
                "warp_instr" => run.kernels.iter().map(|k| k.cost.warp_instr).sum(),
                "mem_requests" => run.kernels.iter().map(|k| k.cost.mem_requests).sum(),
                "transactions" => run.kernels.iter().map(|k| k.cost.transactions).sum(),
                "dram_bytes" => run.kernels.iter().map(|k| k.cost.dram_bytes).sum(),
                "smem_accesses" => run.kernels.iter().map(|k| k.cost.smem_accesses).sum(),
                "smem_conflicts" => run.kernels.iter().map(|k| k.cost.smem_conflicts).sum(),
                "syncs" => run.kernels.iter().map(|k| k.cost.syncs).sum(),
                "mallocs" => run.kernels.iter().map(|k| k.cost.mallocs).sum(),
                "atomic_serial" => run.kernels.iter().map(|k| k.cost.atomic_serial).sum(),
                _ => unreachable!(),
            };
            assert_eq!(traced, live, "[{r},{c}] counter {key}");
        }

        // Slice durations cover the whole simulated run.
        let dur_total: f64 = slices.iter().map(|e| e.dur_us).sum();
        assert!(
            (dur_total - run.gpu_seconds * 1e6).abs() <= 1e-9 * run.gpu_seconds.max(1.0) * 1e6,
            "[{r},{c}] slice durations {dur_total} vs total {}",
            run.gpu_seconds * 1e6
        );
    }
}

/// The metrics JSON must round-trip losslessly and match the live run.
#[test]
fn metrics_round_trip_matches_live_run() {
    let (exe, run, _events) = traced_run(256, 512);
    let metrics = exe.metrics(&run);

    // Values mirror the live RunReport exactly.
    assert_eq!(metrics.total_seconds, run.gpu_seconds);
    assert_eq!(metrics.kernels.len(), run.kernels.len());
    for (k, live) in metrics.kernels.iter().zip(&run.kernels) {
        assert_eq!(&k.run, live);
    }

    // JSON round-trip is lossless, including every f64.
    let back = multidim_sim::RunMetrics::parse(&metrics.render()).unwrap();
    assert_eq!(back, metrics);
}

/// The exported trace must be valid Chrome trace-event JSON: an object with
/// a `traceEvents` array whose entries carry name/ph/ts/pid/tid, with `dur`
/// on complete events.
#[test]
fn exported_trace_is_valid_chrome_json() {
    let (_exe, _run, events) = traced_run(128, 256);
    assert!(!events.is_empty());

    let mut out = Vec::new();
    trace::chrome::write_trace(&events, &mut out).unwrap();
    let doc = Json::parse(std::str::from_utf8(&out).unwrap()).unwrap();

    let list = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    // Both clock lanes are labeled, and every event is well-formed.
    let mut phases = Vec::new();
    for e in list {
        assert!(
            e.get("name").and_then(Json::as_str).is_some(),
            "{}",
            e.render()
        );
        let ph = e.get("ph").and_then(Json::as_str).expect("ph").to_string();
        assert!(e.get("ts").and_then(Json::as_f64).is_some() || ph == "M");
        assert!(e.get("pid").and_then(Json::as_u64).is_some());
        assert!(e.get("tid").and_then(Json::as_u64).is_some());
        if ph == "X" {
            assert!(e.get("dur").and_then(Json::as_f64).is_some(), "X needs dur");
        }
        phases.push(ph);
    }
    for needed in ["M", "X", "i"] {
        assert!(phases.iter().any(|p| p == needed), "missing phase {needed}");
    }
    // The pipeline lane and the simulated lane are both populated.
    let pids: Vec<u64> = list
        .iter()
        .filter_map(|e| e.get("pid").and_then(Json::as_u64))
        .collect();
    assert!(pids.contains(&u64::from(trace::PID_PIPELINE)));
    assert!(pids.contains(&u64::from(trace::PID_SIM)));
}

/// Outside a traced request the pipeline records nothing and produces
/// identical results.
#[test]
fn untraced_run_matches_traced_run() {
    let (p, bind, m) = sum_rows(128, 64);
    let inputs: HashMap<_, _> = [(m, vec![1.0; 128 * 64])].into_iter().collect();

    assert!(trace::span("test", "untraced").is_none());
    let exe = Compiler::new().compile(&p, &bind).unwrap();
    let quiet = exe.run(&inputs).unwrap();

    let (_exe, traced, events) = traced_run(128, 64);
    assert!(!events.is_empty());
    assert_eq!(quiet.gpu_seconds, traced.gpu_seconds);
    assert_eq!(quiet.kernels, traced.kernels);
}

/// A traced `Compiler::autotune` records one `core/autotune` span whose
/// counts are the `TuneResult`'s, and every simulation of the pass, on the
/// caller's thread or a helper's, nests inside the kept trace; each one cut
/// short is counted and records where it stopped.
#[test]
fn autotune_span_counts_the_pass_and_nests_the_helpers() {
    let (p, bind, m) = sum_rows(64, 128);
    let inputs: HashMap<_, _> = [(m, vec![1.0; 64 * 128])].into_iter().collect();
    let _lock = STORE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let store = Arc::new(trace::TraceStore::new(trace::TailSamplerConfig::keep_all()));
    let installed = trace::install_store(store);
    let ((_, result), kept) = trace::collect("test", "sumRows", || {
        let options = multidim_mapping::TuneOptions::default();
        Compiler::new()
            .autotune(&p, &bind, &inputs, &options)
            .unwrap()
    });
    drop(installed);
    let spans = kept.expect("kept").spans;

    let tunes: Vec<_> = spans
        .iter()
        .filter(|s| (s.cat, s.name) == ("core", "autotune"))
        .collect();
    assert_eq!(tunes.len(), 1, "one core/autotune span per pass");
    let arg = |key: &str| {
        tunes[0]
            .args
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("core/autotune has no `{key}`"))
    };
    let count = |n: usize| trace::Value::UInt(n as u64);
    let candidates = result.measured.len() + result.pruned + result.skipped;
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    assert_eq!(arg("program"), trace::Value::Str("sumRows".into()));
    assert_eq!(arg("candidates"), count(candidates));
    assert_eq!(arg("measured"), count(result.measured.len()));
    assert_eq!(arg("pruned"), count(result.pruned));
    assert_eq!(arg("skipped"), count(result.skipped));
    assert_eq!(arg("threads"), count(threads.min(candidates)));

    // Each simulation of the pass that got past specialization records
    // one `sim/execute` span, whatever thread ran it.
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    let executes: Vec<_> = spans
        .iter()
        .filter(|s| (s.cat, s.name) == ("sim", "execute"))
        .collect();
    let trace::Value::UInt(simulations) = arg("simulations") else {
        panic!("`simulations` is a count");
    };
    assert!(result.measured.len() <= executes.len());
    assert!(executes.len() as u64 <= simulations);
    for e in &executes {
        let parent = e.parent.expect("sim/execute has a parent");
        assert!(
            ids.contains(&parent),
            "a sim/execute span's parent is not in the trace"
        );
    }

    // Every simulation stopped early is counted, and its span records the
    // bound it stopped at and the blocks it ran: none when the ceiling fell
    // below its floor between the claim and the run's start.
    let trace::Value::UInt(cut) = arg("cut") else {
        panic!("`cut` is a count");
    };
    assert!(cut <= simulations, "{cut} of {simulations} simulations cut");
    let cut_spans: Vec<_> = executes
        .iter()
        .filter(|e| e.args.iter().any(|(k, _)| *k == "cut_bound"))
        .collect();
    assert_eq!(cut_spans.len() as u64, cut);
    for e in cut_spans {
        let blocks = e.args.iter().find(|(k, _)| *k == "blocks");
        assert!(
            matches!(blocks, Some((_, trace::Value::UInt(_)))),
            "a cut sim/execute span has no block count: {:?}",
            e.args
        );
    }
    let cut_measured = result.measured.iter().filter(|m| m.cut).count() as u64;
    assert!(cut_measured <= cut);
    assert!(result
        .measured
        .iter()
        .all(|m| !m.cut || m.cost > result.best_cost));
}
