//! Hand-computed consolidation fixtures run through the simulator.
//!
//! Each test forces one launch strategy on the same small SpMV-shaped
//! program, lowers it with [`lower_planned`], simulates it, and checks
//! (a) the output matches an exactly-representable CPU reference and
//! (b) the launch counters match hand-computed values (aggregation batch
//! count, naive per-row launches, coarsened grid shape).

use std::collections::HashMap;

use multidim_codegen::{lower_planned, CodegenOptions, LaunchStrategy};
use multidim_device::GpuSpec;
use multidim_dynpar::{choose, DynParPolicy};
use multidim_ir::{ArrayId, Bindings, Expr, Program, ProgramBuilder, ReduceOp, ScalarKind, Size};
use multidim_sim::run_program_sanitized;

const ROWS: i64 = 200;
const COLS: i64 = 32;

/// Degree of row `i`: 0..=6 repeating — zero-degree rows are part of the
/// fixture on purpose (they exercise the binary search's skip-over and
/// naive's launch-nothing path).
fn degree(i: i64) -> i64 {
    i % 7
}

/// CSR structure plus dyadic values so float accumulation in any order
/// reproduces the reference bit-for-bit.
struct Fixture {
    program: Program,
    bindings: Bindings,
    inputs: HashMap<ArrayId, Vec<f64>>,
    out: ArrayId,
    reference: Vec<f64>,
    edges: i64,
}

fn fixture() -> Fixture {
    let mut row_ptr = vec![0i64];
    for i in 0..ROWS {
        row_ptr.push(row_ptr[i as usize] + degree(i));
    }
    let edges = row_ptr[ROWS as usize];
    let col: Vec<i64> = (0..edges).map(|e| (e * 5 + 3) % COLS).collect();
    let vals: Vec<f64> = (0..edges).map(|e| 1.0 + (e % 3) as f64 * 0.5).collect();
    let x: Vec<f64> = (0..COLS).map(|c| (c % 7) as f64 * 0.25).collect();

    let mut reference = vec![0.0f64; ROWS as usize];
    for i in 0..ROWS as usize {
        for e in row_ptr[i]..row_ptr[i + 1] {
            reference[i] += vals[e as usize] * x[col[e as usize] as usize];
        }
    }

    let mut b = ProgramBuilder::new("fixture_spmv");
    let n = b.sym("N");
    let e = b.sym("E");
    let rp = b.input("row_ptr", ScalarKind::I32, &[Size::sym(n) + Size::from(1)]);
    let ci = b.input("col_idx", ScalarKind::I32, &[Size::sym(e)]);
    let va = b.input("vals", ScalarKind::F32, &[Size::sym(e)]);
    let xs = b.input("x", ScalarKind::F32, &[Size::from(COLS)]);
    let root = b.map(Size::sym(n), |b, row| {
        let start = b.read(rp, &[row.into()]);
        let end = b.read(rp, &[Expr::var(row) + Expr::lit(1.0)]);
        b.reduce_dyn(end - start.clone(), 3, ReduceOp::Add, |b, j| {
            let edge = start.clone() + Expr::var(j);
            let c = b.read(ci, std::slice::from_ref(&edge));
            b.read(va, &[edge]) * b.read(xs, &[c])
        })
    });
    let program = b.finish_map(root, "y", ScalarKind::F32).unwrap();
    let out = program.output.unwrap();

    let mut bindings = Bindings::new();
    bindings.bind(n, ROWS);
    bindings.bind(e, edges);

    let mut inputs = HashMap::new();
    inputs.insert(rp, row_ptr.iter().map(|&v| v as f64).collect());
    inputs.insert(ci, col.iter().map(|&v| v as f64).collect());
    inputs.insert(va, vals);
    inputs.insert(xs, x);

    Fixture {
        program,
        bindings,
        inputs,
        out,
        reference,
        edges,
    }
}

/// Lower the fixture under `policy`, simulate with the sanitizer on, and
/// return (output, total cost, kernel names).
fn run(
    policy: DynParPolicy,
) -> (
    Vec<f64>,
    multidim_sim::KernelCost,
    Vec<String>,
    multidim_sim::SanitizerReport,
) {
    let f = fixture();
    let gpu = GpuSpec::tesla_k20c();
    let analysis = multidim_mapping::analyze(&f.program, &f.bindings, &gpu);
    let plan = choose(&f.program, &f.bindings, &gpu, policy);
    let kp = lower_planned(
        &f.program,
        &analysis.decision,
        &CodegenOptions::default(),
        &plan,
    )
    .unwrap();
    let (sim, san) = run_program_sanitized(&kp, &gpu, &f.bindings, &f.inputs).unwrap();
    assert!(
        !san.has_conflicts(),
        "sanitizer conflicts under {policy:?}: {:?}",
        san.conflicts
    );
    (
        sim.array(f.out).to_vec(),
        sim.total_cost(),
        sim.kernels.iter().map(|k| k.name.clone()).collect(),
        san,
    )
}

#[test]
fn naive_launches_one_child_per_nonempty_row() {
    let (out, cost, names, _) = run(DynParPolicy::Force(LaunchStrategy::Naive));
    assert_eq!(out, fixture().reference);
    assert!(names.iter().any(|n| n.contains("launcher")));
    // Rows 0, 7, 14, ... have degree 0 and launch nothing: 200 rows in
    // blocks of 7 → 28 full cycles (6 nonempty each) + rows 196..=199
    // with degrees 0,1,2,3 (3 nonempty).
    let nonempty = (0..ROWS).filter(|&i| degree(i) > 0).count() as u64;
    assert_eq!(nonempty, 28 * 6 + 3);
    assert_eq!(cost.child_launches, nonempty);
    // Every degree is < 128, so each child grid is exactly one block.
    assert_eq!(cost.child_blocks, nonempty);
}

#[test]
fn aggregation_batches_all_work_into_one_child() {
    let (out, cost, names, _) = run(DynParPolicy::Force(LaunchStrategy::Aggregate));
    let f = fixture();
    assert_eq!(out, f.reference);
    assert!(names.iter().any(|n| n.contains("scan_blocks")));
    // One consolidated launch covering every edge: total work
    // T = 28*21 + (0+1+2+3) = 594 edges → ceil(594/128) = 5 blocks.
    assert_eq!(f.edges, 594);
    assert_eq!(cost.child_launches, 1);
    assert_eq!(cost.child_blocks, (594u64).div_ceil(128));
}

#[test]
fn coarsening_runs_without_child_launches() {
    let (out, cost, names, _) = run(DynParPolicy::Force(LaunchStrategy::Coarsen(4)));
    assert_eq!(out, fixture().reference);
    assert!(names.iter().any(|n| n.contains("coarsen")));
    assert_eq!(cost.child_launches, 0);
    assert_eq!(cost.child_blocks, 0);
}

#[test]
fn auto_policy_inlines_small_problems_via_baseline_lowering() {
    // 200 rows * mean 3 = 600 total work, far below the 50k floor: the
    // plan must fall back to the ordinary lowering (no launcher kernels).
    let (out, cost, names, _) = run(DynParPolicy::Auto);
    assert_eq!(out, fixture().reference);
    assert_eq!(cost.child_launches, 0);
    assert!(names.iter().all(|n| !n.contains("launcher")));
    assert!(names.iter().all(|n| !n.contains("worker")));
}

#[test]
fn forced_strategies_agree_bitwise() {
    let (naive, ..) = run(DynParPolicy::Force(LaunchStrategy::Naive));
    let (coarse, ..) = run(DynParPolicy::Force(LaunchStrategy::Coarsen(4)));
    let (agg, ..) = run(DynParPolicy::Force(LaunchStrategy::Aggregate));
    let (inline, ..) = run(DynParPolicy::Auto);
    assert_eq!(naive, coarse);
    assert_eq!(naive, agg);
    assert_eq!(naive, inline);
}
