//! Locality-analysis validation: the static coalescing / bank-conflict /
//! transaction proofs must agree with what the simulator actually measures,
//! and the proof-driven search pruning must never change the selected
//! mapping.

use multidim::prelude::*;
use multidim::{
    locality_cross_check, locality_of, seconds_lower_bound, AccessClass, LocalityFacts,
};
use multidim_codegen::CodegenOptions;
use multidim_ir::ArrayId;
use multidim_mapping::{
    select, tune_pruned, Dim, LevelMapping, MappingDecision, Span, TuneOptions, TuneResult,
};
use multidim_workloads::catalog::catalog;
use std::cell::Cell;
use std::collections::HashMap;

/// Property over the whole catalog: every Proven coalescing verdict and
/// every proven bank-conflict bound must be consistent with the simulator's
/// measured memory counters — zero disagreements allowed.
#[test]
fn catalog_locality_agrees_with_simulator() {
    for e in catalog() {
        let exe = Compiler::new()
            .compile(&e.program, &e.bindings)
            .unwrap_or_else(|err| panic!("{}: compile failed: {err}", e.name()));
        let summary = exe
            .locality
            .as_ref()
            .unwrap_or_else(|| panic!("{}: no locality summary", e.name()));
        let sim = multidim_sim::run_program(&exe.kernels, exe.device(), &e.bindings, &e.inputs)
            .unwrap_or_else(|err| panic!("{}: simulation failed: {err:?}", e.name()));
        let disagreements = locality_cross_check(summary, &sim);
        assert!(
            disagreements.is_empty(),
            "{}: static locality proofs disagree with the simulator:\n  {}",
            e.name(),
            disagreements.join("\n  ")
        );
    }
}

/// `Compiler::autotune`'s result against the serial loop's: the same
/// best, best cost, counts and measured candidates; exact costs bit-equal;
/// and each cut cost at or below the candidate's simulated time and above
/// the best cost.
fn assert_serial_decisions(at: &str, fast: &TuneResult, serial: &TuneResult) {
    assert_eq!(fast.best, serial.best, "{at}: best");
    assert_eq!(
        fast.best_cost.to_bits(),
        serial.best_cost.to_bits(),
        "{at}: best cost"
    );
    assert_eq!(
        (fast.pruned, fast.skipped),
        (serial.pruned, serial.skipped),
        "{at}: pruned and skipped"
    );
    let simulated: HashMap<usize, f64> =
        serial.measured.iter().map(|m| (m.index, m.cost)).collect();
    assert_eq!(fast.measured.len(), simulated.len(), "{at}: measured");
    for m in &fast.measured {
        let cost = *simulated
            .get(&m.index)
            .unwrap_or_else(|| panic!("{at}: candidate {} is not measured serially", m.index));
        if m.cut {
            assert!(
                m.cost <= cost && m.cost > fast.best_cost,
                "{at}: candidate {} cut at {:e}, simulated {cost:e}, best {:e}",
                m.index,
                m.cost,
                fast.best_cost
            );
        } else {
            assert_eq!(
                m.cost.to_bits(),
                cost.to_bits(),
                "{at}: candidate {}",
                m.index
            );
        }
    }
}

/// The pruned search must select a bit-identical mapping (and cost) to the
/// exhaustive one on every catalog workload, while actually pruning a
/// meaningful share of the candidates. `Compiler::autotune`, which tunes
/// on several threads and cuts simulations that have lost, must reach the
/// serial loop's decisions when it is rebuilt from public calls, as the
/// benchmark's traced replica rebuilds it: uncapped, and capped at 5. The
/// exhaustive reference takes the serial loop's simulated times, which
/// include the candidates `Compiler::autotune` cut, and simulates only
/// what the floor pruned, so every candidate's exact time is known: none
/// may fall below its seconds floor, and the tuner's floor-only bound must
/// equal the full locality summary's bit for bit.
#[test]
fn pruned_search_is_bit_identical_and_prunes() {
    let compiler = Compiler::new().checks(false);
    let opts = TuneOptions::default();
    let gpu = GpuSpec::tesla_k20c();
    // The prefetch setting `Compiler::autotune` bounds its candidates with.
    let prefetch = CodegenOptions::default().smem_prefetch;
    let mut workloads_with_pruning = 0usize;
    let (mut candidates, mut pruned) = (0usize, 0usize);
    for e in catalog() {
        let (_, fast) = compiler
            .autotune(&e.program, &e.bindings, &e.inputs, &opts)
            .unwrap_or_else(|err| panic!("{}: pruned autotune failed: {err}", e.name()));
        let prepared = compiler
            .prepare_tune(&e.program, &e.bindings, &opts)
            .unwrap_or_else(|err| panic!("{}: prepare failed: {err}", e.name()));
        let facts = LocalityFacts::of(&prepared.program, &e.bindings);
        // The serial loop with the benchmark's closures: lower, validate
        // and floor each candidate, and simulate the kernels it lowered.
        let serial = |cap: usize| {
            let lowered = Cell::new(None);
            tune_pruned(
                &prepared.plan,
                cap,
                |cand| {
                    let kernels = compiler.lower_candidate(&prepared, &cand.mapping);
                    let b = &e.bindings;
                    let bound = kernels
                        .as_ref()
                        .map(|k| seconds_lower_bound(&facts, &cand.mapping, k, b, &gpu, prefetch));
                    lowered.set(kernels);
                    bound
                },
                |_| {
                    let kernels = lowered.take()?;
                    let sim = multidim_sim::run_program(&kernels, &gpu, &e.bindings, &e.inputs);
                    Some(sim.ok()?.total_seconds)
                },
            )
        };
        let exact = serial(usize::MAX)
            .unwrap_or_else(|| panic!("{}: the serial loop measured nothing", e.name()));
        assert_serial_decisions(e.name(), &fast, &exact);
        let capped = TuneOptions {
            max_measurements: 5,
            ..opts
        };
        let (_, fast_capped) = compiler
            .autotune(&e.program, &e.bindings, &e.inputs, &capped)
            .unwrap_or_else(|err| panic!("{}: capped autotune failed: {err}", e.name()));
        let serial_capped = serial(5)
            .unwrap_or_else(|| panic!("{}: the capped serial loop measured nothing", e.name()));
        assert_serial_decisions(
            &format!("{} capped at 5", e.name()),
            &fast_capped,
            &serial_capped,
        );
        let measured: HashMap<usize, f64> =
            exact.measured.iter().map(|m| (m.index, m.cost)).collect();
        let costs: Vec<Option<f64>> = prepared
            .plan
            .candidates
            .iter()
            .enumerate()
            .map(|(i, cand)| match measured.get(&i) {
                Some(&cost) => Some(cost),
                None => {
                    compiler.measure_candidate(&prepared, &e.bindings, &e.inputs, &cand.mapping)
                }
            })
            .collect();
        let full = select(&prepared.plan, &costs)
            .unwrap_or_else(|| panic!("{}: exhaustive selection failed", e.name()));
        assert_eq!(
            fast.best,
            full.best,
            "{}: pruning changed the selected mapping",
            e.name()
        );
        assert!(
            fast.best_cost == full.best_cost,
            "{}: pruning changed the winning cost: {} vs {}",
            e.name(),
            fast.best_cost,
            full.best_cost
        );
        assert!(
            fast.measured.len() + fast.pruned + fast.skipped == full.measured.len() + full.skipped,
            "{}: pruning changed the evaluated-candidate count",
            e.name()
        );
        assert_eq!(
            full.pruned,
            0,
            "{}: unpruned search reported pruning",
            e.name()
        );
        if fast.pruned > 0 {
            workloads_with_pruning += 1;
        }
        candidates += prepared.plan.candidates.len();
        pruned += fast.pruned;

        for (cand, cost) in prepared.plan.candidates.iter().zip(&costs) {
            let Some(kernels) = compiler.lower_candidate(&prepared, &cand.mapping) else {
                continue;
            };
            let b = &e.bindings;
            let summary = locality_of(&facts, &cand.mapping, &kernels, b, &gpu, prefetch);
            let floor = seconds_lower_bound(&facts, &cand.mapping, &kernels, b, &gpu, prefetch);
            assert_eq!(
                floor.to_bits(),
                summary.seconds_lower_bound.to_bits(),
                "{}: {}: the tuner's floor {floor:e} is not the summary's {:e}",
                e.name(),
                cand.mapping,
                summary.seconds_lower_bound
            );
            if let Some(cost) = *cost {
                assert!(
                    cost >= floor * (1.0 - 1e-9),
                    "{}: {}: simulated {cost:e} s is below the proven floor {floor:e} s",
                    e.name(),
                    cand.mapping
                );
            }
        }
    }
    assert!(
        workloads_with_pruning >= 5,
        "pruning fired on only {workloads_with_pruning} workload(s); expected >= 5"
    );
    assert!(
        pruned as f64 >= 0.3 * candidates as f64,
        "the floor pruned {pruned} of {candidates} candidates; expected a share >= 0.3"
    );
}

/// A one-level map over `n` elements reading `a[stride * i]`, every level
/// mapped to `x` with `block`-wide blocks.
fn strided_fixture(
    stride: i64,
    n: i64,
    block: u32,
) -> (
    Program,
    Bindings,
    MappingDecision,
    HashMap<ArrayId, Vec<f64>>,
) {
    let mut b = ProgramBuilder::new("strided");
    let ns = b.sym("N");
    let a = b.input("a", ScalarKind::F32, &[Size::sym(ns) * Size::from(stride)]);
    let root = b.map(Size::sym(ns), |b, i| {
        b.read(a, &[Expr::var(i) * Expr::int(stride)])
    });
    let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
    let mut bind = Bindings::new();
    bind.bind(ns, n);
    let mapping = MappingDecision::new(vec![LevelMapping {
        dim: Dim::X,
        block_size: block,
        span: Span::ONE,
    }]);
    let inputs = HashMap::from([(a, vec![1.0; (n * stride) as usize])]);
    (p, bind, mapping, inputs)
}

/// Total measured global-memory transactions of one simulated run.
fn measured_tx(exe: &Executable, bind: &Bindings, inputs: &HashMap<ArrayId, Vec<f64>>) -> u64 {
    let sim = multidim_sim::run_program(&exe.kernels, exe.device(), bind, inputs).unwrap();
    sim.total_cost().transactions
}

/// `a[2i]` under an all-x mapping: provably strided(2), and the proven
/// transaction floor is *exact* — it equals what the simulator measures
/// (64 load transactions: each 32-lane warp spans two aligned 128-byte
/// segments; plus 32 coalesced store transactions).
#[test]
fn strided_2_fixture_exact() {
    let (p, bind, mapping, inputs) = strided_fixture(2, 1024, 128);
    let exe = Compiler::new()
        .compile_with_mapping(&p, &bind, mapping)
        .unwrap();
    let summary = exe.locality.as_ref().unwrap();
    let load = summary
        .accesses
        .iter()
        .find(|a| a.array == "a" && !a.is_write)
        .unwrap();
    assert_eq!(load.class, AccessClass::Strided(2));
    assert_eq!(load.verdict, multidim::Verdict::Proven);
    assert_eq!(load.transactions_lb, 64);
    assert_eq!(summary.tx_lower_bound, 64 + 32);
    assert_eq!(measured_tx(&exe, &bind, &inputs), 64 + 32);
}

/// `a[32i]` (f32: a 128-byte stride) under an all-x mapping: every lane
/// lands in its own segment, so the floor is one transaction per element.
#[test]
fn strided_32_fixture_exact() {
    let (p, bind, mapping, inputs) = strided_fixture(32, 1024, 128);
    let exe = Compiler::new()
        .compile_with_mapping(&p, &bind, mapping)
        .unwrap();
    let summary = exe.locality.as_ref().unwrap();
    let load = summary
        .accesses
        .iter()
        .find(|a| a.array == "a" && !a.is_write)
        .unwrap();
    assert_eq!(load.class, AccessClass::Strided(32));
    assert_eq!(load.transactions_lb, 1024);
    assert_eq!(summary.tx_lower_bound, 1024 + 32);
    assert_eq!(measured_tx(&exe, &bind, &inputs), 1024 + 32);
}

/// A two-level nest reading only the *outer* index while the inner level
/// owns `x`: provably broadcast — one transaction per warp.
#[test]
fn broadcast_fixture_exact() {
    let mut b = ProgramBuilder::new("broadcast");
    let ns = b.sym("N");
    let ms = b.sym("M");
    let a = b.input("a", ScalarKind::F32, &[Size::sym(ns)]);
    let root = b.map(Size::sym(ns), |b, i| {
        b.map(Size::sym(ms), |b2, _j| b2.read(a, &[Expr::var(i)]))
    });
    let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
    let mut bind = Bindings::new();
    bind.bind(ns, 32);
    bind.bind(ms, 64);
    let mapping = MappingDecision::new(vec![
        LevelMapping {
            dim: Dim::Y,
            block_size: 4,
            span: Span::ONE,
        },
        LevelMapping {
            dim: Dim::X,
            block_size: 64,
            span: Span::ONE,
        },
    ]);
    // Disable shared-memory prefetch so the broadcast load really goes to
    // global memory and the exact-count comparison below is meaningful.
    let exe = Compiler::new()
        .options(CodegenOptions {
            smem_prefetch: false,
            ..CodegenOptions::default()
        })
        .compile_with_mapping(&p, &bind, mapping)
        .unwrap();
    let summary = exe.locality.as_ref().unwrap();
    let load = summary
        .accesses
        .iter()
        .find(|acc| acc.array == "a" && !acc.is_write)
        .unwrap();
    assert_eq!(load.class, AccessClass::Broadcast);
    assert_eq!(load.verdict, multidim::Verdict::Proven);
    // 2048 threads / 32 lanes = 64 warps; one transaction each for the
    // broadcast load and one for the coalesced store.
    assert_eq!(load.transactions_lb, 64);
    assert_eq!(summary.tx_lower_bound, 64 + 64);
    let inputs = HashMap::from([(a, vec![1.0; 32])]);
    assert_eq!(measured_tx(&exe, &bind, &inputs), 64 + 64);
}

/// `a[idx[i]]`: the address is data-dependent, so coalescing is provably
/// unprovable (scattered) and the analysis falls back to the universal
/// one-transaction-per-warp floor, which the simulator must still respect.
#[test]
fn scattered_fixture_sound() {
    let mut b = ProgramBuilder::new("scattered");
    let ns = b.sym("N");
    let idx = b.input("idx", ScalarKind::F32, &[Size::sym(ns)]);
    let a = b.input("a", ScalarKind::F32, &[Size::sym(ns)]);
    let root = b.map(Size::sym(ns), |b, i| {
        let w = b.read(idx, &[Expr::var(i)]);
        b.read(a, std::slice::from_ref(&w))
    });
    let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
    let mut bind = Bindings::new();
    bind.bind(ns, 1024);
    let mapping = MappingDecision::new(vec![LevelMapping {
        dim: Dim::X,
        block_size: 128,
        span: Span::ONE,
    }]);
    let exe = Compiler::new()
        .compile_with_mapping(&p, &bind, mapping)
        .unwrap();
    let summary = exe.locality.as_ref().unwrap();
    let load = summary
        .accesses
        .iter()
        .find(|acc| acc.array == "a" && !acc.is_write)
        .unwrap();
    assert_eq!(load.class, AccessClass::Scattered);
    assert_eq!(load.verdict, multidim::Verdict::Proven);
    // Universal floor: ceil(1024 / 32) for the scattered load.
    assert_eq!(load.transactions_lb, 32);
    // Identity permutation: the measured counters must sit at or above the
    // floor and the cross-check must find no disagreement.
    let inputs = HashMap::from([
        (idx, (0..1024).map(f64::from).collect::<Vec<_>>()),
        (a, vec![1.0; 1024]),
    ]);
    let sim = multidim_sim::run_program(&exe.kernels, exe.device(), &bind, &inputs).unwrap();
    let measured = sim.total_cost().transactions;
    assert!(measured >= summary.tx_lower_bound);
    assert!(locality_cross_check(summary, &sim).is_empty());
}

/// Every tuning candidate of mandelbrot, sumRows (whose plan holds
/// lockstep kernels) and every catalog program with a loop bounded by an
/// input (spmv, spmv_zipf, pagerank_step, bfs_step and ragged_filter, whose
/// capped runs read their row pointers), lowered as `Compiler::autotune`
/// lowers it, and the two-kernel Split mapping DOP control picks for
/// sumCols over four long columns, run against a ceiling. Below its
/// simulated time, a run either stops with a bound in (ceiling, simulated
/// time] or finishes; at that time, which no bound exceeds, the run
/// finishes with `run_program`'s result bit for bit.
#[test]
fn capped_runs_stop_above_the_ceiling_or_finish_as_run_program() {
    use multidim_sim::{run_program_capped, Capped, SimResult};
    use multidim_workloads::{data, sums};
    use std::sync::atomic::AtomicU64;
    let compiler = Compiler::new();
    let gpu = GpuSpec::tesla_k20c();
    let mut entries: Vec<_> = catalog()
        .into_iter()
        .filter(|e| {
            let data_bounded = [
                "spmv",
                "spmv_zipf",
                "pagerank_step",
                "bfs_step",
                "ragged_filter",
            ];
            data_bounded.contains(&e.name()) || matches!(e.name(), "mandelbrot" | "sumRows")
        })
        .map(|e| (e.program, e.bindings, e.inputs, false))
        .collect();
    let (program, rows, cols, m) = sums::sum_program(sums::SumKind::Cols);
    let mut bindings = Bindings::new();
    bindings.bind(rows, 1024);
    bindings.bind(cols, 4);
    let inputs = [(m, data::matrix(1024, 4, 42))].into_iter().collect();
    entries.push((program, bindings, inputs, true));

    let same = |at: &str, run: &SimResult, exact: &SimResult| {
        assert_eq!(
            run.total_seconds.to_bits(),
            exact.total_seconds.to_bits(),
            "{at}: time"
        );
        assert_eq!(run.kernels, exact.kernels, "{at}: kernel records");
        for (array, data) in &exact.arrays {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(run.array(*array)), bits(data), "{at}: outputs");
        }
    };
    let (mut lockstep, mut split, mut cut, mut cut_late) = (0usize, 0usize, 0usize, 0usize);
    for (program, bindings, inputs, analytic) in &entries {
        let prepared = compiler
            .prepare_tune(program, bindings, &TuneOptions::default())
            .unwrap_or_else(|err| panic!("{}: prepare failed: {err}", program.name));
        let mappings: Vec<MappingDecision> = if *analytic {
            vec![compiler.analytic_mapping(&prepared, bindings)]
        } else {
            let plan = prepared.plan.candidates.iter();
            plan.map(|c| c.mapping.clone()).collect()
        };
        for (i, mapping) in mappings.iter().enumerate() {
            let Some(kernels) = compiler.lower_candidate(&prepared, mapping) else {
                continue;
            };
            lockstep += usize::from(kernels.kernels.iter().any(|k| k.has_sync()));
            split += usize::from(kernels.kernels.len() == 2);
            let at = format!("{}: {mapping}", program.name);
            let exact = multidim_sim::run_program(&kernels, &gpu, bindings, inputs)
                .unwrap_or_else(|err| panic!("{at}: {err}"));
            let time = exact.total_seconds;
            let capped = |ceiling: f64| {
                let ceiling = AtomicU64::new(ceiling.to_bits());
                run_program_capped(&kernels, &gpu, bindings, inputs, &ceiling)
                    .unwrap_or_else(|err| panic!("{at}: {err}"))
            };
            // Plan candidates take one ceiling each, by turns; the single
            // Split mapping takes them all, so some cut falls in its
            // second kernel.
            let shares = [0.0, 0.3, 0.6, 0.9, 0.999];
            let shares = if *analytic {
                &shares[..]
            } else {
                &shares[i % 5..=i % 5]
            };
            for &share in shares {
                let below = time * share;
                match capped(below) {
                    Capped::Cut(bound) => {
                        assert!(
                            bound > below && bound <= time,
                            "{at}: cut at {bound:e} under a ceiling of {below:e}, simulated {time:e}"
                        );
                        cut += 1;
                        // Past the first kernel's time, the bound rests
                        // on a later kernel: its blocks run, or its floor.
                        cut_late += usize::from(below >= exact.kernels[0].time.total);
                    }
                    Capped::Finished(run) => same(&at, &run, &exact),
                }
            }
            // A ceiling at the simulated time is never exceeded.
            match capped(time) {
                Capped::Finished(run) => same(&at, &run, &exact),
                Capped::Cut(bound) => panic!("{at}: cut at {bound:e} under its own time"),
            }
        }
    }
    assert!(
        lockstep > 0 && split > 0 && cut_late > 0,
        "{lockstep} lockstep candidates, {split} two-kernel ones, {cut_late} of {cut} cuts \
         past the first kernel"
    );
}

/// With spmv_zipf's tuned best as every ceiling, more of its tuning
/// candidates stop before their first block than the static floor alone
/// stops: the capped run's floor reads the row pointers and prices each
/// row loop at its slowest lane's trips. The stops are the `sim/execute`
/// spans with `blocks = 0`, traced with every span kept.
#[test]
fn spmv_zipf_candidates_stop_on_the_row_pointers_before_their_first_block() {
    use multidim_sim::{run_program_capped, seconds_floor};
    use multidim_trace as trace;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    let compiler = Compiler::new();
    let gpu = GpuSpec::tesla_k20c();
    let e = catalog()
        .into_iter()
        .find(|e| e.name() == "spmv_zipf")
        .expect("spmv_zipf is in the catalog");
    let options = TuneOptions::default();
    let (_, tuned) = compiler
        .autotune(&e.program, &e.bindings, &e.inputs, &options)
        .expect("spmv_zipf tunes");
    let prepared = compiler
        .prepare_tune(&e.program, &e.bindings, &options)
        .expect("spmv_zipf plans");
    let store = trace::TraceStore::new(trace::TailSamplerConfig::keep_all());
    let installed = trace::install_store(Arc::new(store));
    let (on_static, kept) = trace::collect("test", "spmv_zipf", || {
        let mut on_static = 0usize;
        for cand in &prepared.plan.candidates {
            let kernels = compiler
                .lower_candidate(&prepared, &cand.mapping)
                .expect("every candidate lowers and fits");
            let floor = seconds_floor(&kernels, &gpu, &e.bindings).expect("every size is bound");
            on_static +=
                usize::from(floor.iter().fold(0.0, |sum, f| sum + f.time.total) > tuned.best_cost);
            let ceiling = AtomicU64::new(tuned.best_cost.to_bits());
            run_program_capped(&kernels, &gpu, &e.bindings, &e.inputs, &ceiling)
                .unwrap_or_else(|err| panic!("{}: {err}", cand.mapping));
        }
        on_static
    });
    drop(installed);
    let spans = kept.expect("kept").spans;
    let stopped = spans
        .iter()
        .filter(|s| (s.cat, s.name) == ("sim", "execute"))
        .filter(|s| {
            s.args
                .iter()
                .any(|(k, v)| *k == "blocks" && *v == trace::Value::UInt(0))
        })
        .count();
    assert!(
        stopped > on_static,
        "{stopped} of {} spmv_zipf candidates stopped before their first block, {on_static} \
         on the static floor alone",
        prepared.plan.candidates.len()
    );
}
