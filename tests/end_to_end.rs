//! End-to-end pipeline tests: pattern program → analysis → codegen →
//! simulation, validated against the reference interpreter.

use multidim::prelude::*;
use multidim_ir::{interpret, ArrayId, Effect, ReduceOp};
use std::collections::HashMap;

fn check(program: &Program, bind: &Bindings, inputs: &HashMap<ArrayId, Vec<f64>>) {
    let exe = Compiler::new().compile(program, bind).expect("compile");
    let report = exe.run(inputs).expect("run");
    let want = interpret(program, bind, inputs).expect("interpret");
    for (id, got) in &report.outputs {
        let expect = &want.array(*id).data;
        assert_eq!(got.len(), expect.len(), "length of array {id:?}");
        for (i, (g, w)) in got.iter().zip(expect).enumerate() {
            assert!(
                (g - w).abs() <= 1e-6 * w.abs().max(1.0),
                "{} array {id:?}[{i}]: {g} vs {w} under {}",
                program.name,
                exe.mapping
            );
        }
    }
}

#[test]
fn two_level_map_reduce_odd_sizes() {
    for (r, c) in [(1, 1), (1, 100), (100, 1), (33, 65), (128, 31)] {
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
        let data: Vec<f64> = (0..r * c).map(|x| ((x * 13) % 17) as f64).collect();
        let inputs: HashMap<_, _> = [(m, data)].into_iter().collect();
        check(&p, &bind, &inputs);
    }
}

#[test]
fn reduce_ops_min_max_mul() {
    for op in [ReduceOp::Min, ReduceOp::Max, ReduceOp::Mul] {
        let mut b = ProgramBuilder::new("rops");
        let n = b.sym("N");
        let a = b.input("a", ScalarKind::F64, &[Size::sym(n)]);
        let root = b.map(Size::from(4), |b, _| {
            b.reduce(Size::sym(n), op, |b, i| b.read(a, &[i.into()]))
        });
        let p = b.finish_map(root, "out", ScalarKind::F64).unwrap();
        let mut bind = Bindings::new();
        bind.bind(n, 37);
        let data: Vec<f64> = (0..37).map(|x| 0.8 + ((x * 7) % 5) as f64 / 10.0).collect();
        let inputs: HashMap<_, _> = [(a, data)].into_iter().collect();
        check(&p, &bind, &inputs);
    }
}

#[test]
fn root_reduce_with_split_combiner() {
    // A root reduce is forced to Span(all) and ControlDOP splits it:
    // exercises the combiner-kernel path.
    let mut b = ProgramBuilder::new("dot");
    let n = b.sym("N");
    let x = b.input("x", ScalarKind::F32, &[Size::sym(n)]);
    let y = b.input("y", ScalarKind::F32, &[Size::sym(n)]);
    let root = b.reduce(Size::sym(n), ReduceOp::Add, |b, i| {
        b.read(x, &[i.into()]) * b.read(y, &[i.into()])
    });
    let p = b.finish_reduce(root, "dot", ScalarKind::F32).unwrap();
    let mut bind = Bindings::new();
    bind.bind(n, 100_000);
    let xs: Vec<f64> = (0..100_000).map(|i| ((i % 7) as f64) / 8.0).collect();
    let ys: Vec<f64> = (0..100_000).map(|i| ((i % 5) as f64) / 4.0).collect();
    let inputs: HashMap<_, _> = [(x, xs), (y, ys)].into_iter().collect();
    let exe = Compiler::new().compile(&p, &bind).unwrap();
    assert!(
        exe.kernels.kernels.len() >= 2,
        "expected a combiner kernel, got {:?}",
        exe.kernels
            .kernels
            .iter()
            .map(|k| &k.name)
            .collect::<Vec<_>>()
    );
    check(&p, &bind, &inputs);
}

#[test]
fn filter_compacts_as_multiset() {
    let mut b = ProgramBuilder::new("pos");
    let n = b.sym("N");
    let a = b.input("a", ScalarKind::F32, &[Size::sym(n)]);
    let root = b.filter(Size::sym(n), |b, i| {
        let e = b.read(a, &[i.into()]);
        (e.clone().gt(Expr::lit(0.5)), e)
    });
    let p = b.finish_filter(root, "kept", ScalarKind::F32).unwrap();
    let mut bind = Bindings::new();
    bind.bind(n, 1000);
    let data: Vec<f64> = (0..1000).map(|i| ((i * 37) % 100) as f64 / 100.0).collect();
    let inputs: HashMap<_, _> = [(a, data)].into_iter().collect();

    let exe = Compiler::new().compile(&p, &bind).unwrap();
    let report = exe.run(&inputs).unwrap();
    let want = interpret(&p, &bind, &inputs).unwrap();
    let count = want.filter_count.unwrap();
    assert_eq!(report.output(p.output_count.unwrap())[0] as usize, count);
    let mut got: Vec<f64> = report.output(p.output.unwrap())[..count].to_vec();
    let mut expect: Vec<f64> = want.array(p.output.unwrap()).data[..count].to_vec();
    got.sort_by(f64::total_cmp);
    expect.sort_by(f64::total_cmp);
    assert_eq!(got, expect);
}

#[test]
fn group_by_histogram_matches() {
    let mut b = ProgramBuilder::new("hist");
    let n = b.sym("N");
    let keys = b.input("keys", ScalarKind::I32, &[Size::sym(n)]);
    let vals = b.input("vals", ScalarKind::F32, &[Size::sym(n)]);
    let root = b.group_by(Size::sym(n), Size::from(32), ReduceOp::Add, |b, i| {
        (b.read(keys, &[i.into()]), b.read(vals, &[i.into()]))
    });
    let p = b.finish_group_by(root, "hist", ScalarKind::F32).unwrap();
    let mut bind = Bindings::new();
    bind.bind(n, 5000);
    let ks: Vec<f64> = (0..5000).map(|i| ((i * 131) % 32) as f64).collect();
    let vs: Vec<f64> = (0..5000).map(|i| ((i % 9) as f64) * 0.25).collect();
    let inputs: HashMap<_, _> = [(keys, ks), (vals, vs)].into_iter().collect();
    check(&p, &bind, &inputs);
}

#[test]
fn foreach_scatter_with_nested_level() {
    let mut b = ProgramBuilder::new("outerprod");
    let n = b.sym("N");
    let x = b.input("x", ScalarKind::F32, &[Size::sym(n)]);
    let out = b.output("out", ScalarKind::F32, &[Size::sym(n), Size::sym(n)]);
    let root = b.foreach(Size::sym(n), |b, i| {
        let inner = b.foreach(Size::sym(n), |b, j| {
            let v = b.read(x, &[i.into()]) * b.read(x, &[j.into()]);
            vec![Effect::Write {
                cond: None,
                array: out,
                idx: vec![i.into(), j.into()],
                value: v,
            }]
        });
        vec![b.nested_effect(inner)]
    });
    let p = b.finish_foreach(root).unwrap();
    let mut bind = Bindings::new();
    bind.bind(n, 47);
    let inputs: HashMap<_, _> = [(x, (0..47).map(|v| v as f64 / 7.0).collect())]
        .into_iter()
        .collect();
    check(&p, &bind, &inputs);
}

#[test]
fn cuda_emission_matches_figure9_structure() {
    // Figure 9's sumRows kernel shape: a y-indexed row, a strided x loop,
    // shared memory, __syncthreads or warp-synchronous reduce, a guarded
    // store.
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
    bind.bind(rs, 4096);
    bind.bind(cs, 4096);
    let exe = Compiler::new().compile(&p, &bind).unwrap();
    let cuda = exe.cuda_source();
    assert!(cuda.contains("__global__ void sumRows_kernel"), "{cuda}");
    assert!(cuda.contains("__shared__ double"), "{cuda}");
    assert!(cuda.contains("blockIdx.y"), "{cuda}");
    assert!(cuda.contains("threadIdx.x"), "{cuda}");
    assert!(cuda.contains("+= blockDim.x"), "{cuda}");
    assert!(cuda.contains("if ((threadIdx.x == 0)"), "{cuda}");
}

#[test]
fn c2050_device_also_works() {
    let mut b = ProgramBuilder::new("scale");
    let n = b.sym("N");
    let x = b.input("x", ScalarKind::F32, &[Size::sym(n)]);
    let root = b.map(Size::sym(n), |b, i| b.read(x, &[i.into()]) * Expr::lit(2.0));
    let p = b.finish_map(root, "y", ScalarKind::F32).unwrap();
    let mut bind = Bindings::new();
    bind.bind(n, 10_000);
    let exe = Compiler::new()
        .gpu(GpuSpec::tesla_c2050())
        .compile(&p, &bind)
        .unwrap();
    let inputs: HashMap<_, _> = [(x, vec![3.0; 10_000])].into_iter().collect();
    let report = exe.run(&inputs).unwrap();
    assert!(report.output(p.output.unwrap()).iter().all(|&v| v == 6.0));
}

#[test]
fn autotuner_finds_a_mapping_at_least_as_fast() {
    use multidim_mapping::TuneOptions;
    // Mandelbrot-ish skewed grid: the static pick is good; the tuner must
    // do no worse.
    let mut b = ProgramBuilder::new("grid");
    let h = b.sym("H");
    let w = b.sym("W");
    let root = b.map(Size::sym(h), |b, y| {
        b.map(Size::sym(w), |_, x| {
            Expr::var(y) * Expr::lit(0.5) + Expr::var(x) * Expr::lit(0.25)
        })
    });
    let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
    let mut bind = Bindings::new();
    bind.bind(h, 40);
    bind.bind(w, 512);
    let inputs = HashMap::new();

    let compiler = Compiler::new();
    let static_exe = compiler.compile(&p, &bind).unwrap();
    let static_time = static_exe.run(&inputs).unwrap().gpu_seconds;

    let (tuned_exe, result) = compiler
        .autotune(&p, &bind, &inputs, &TuneOptions::default())
        .unwrap();
    assert!(
        result.best_cost <= static_time * 1.0001,
        "tuned {} vs static {static_time}",
        result.best_cost
    );
    // Locality pruning may skip candidates without simulating them, but
    // every candidate is still *evaluated* (measured or proven worse).
    assert!(result.measured.len() + result.pruned > 50);
    // The tuned executable really uses the winning mapping.
    assert_eq!(tuned_exe.mapping, result.best);
    let rerun = tuned_exe.run(&inputs).unwrap().gpu_seconds;
    assert!((rerun - result.best_cost).abs() < 1e-12);
}

#[test]
fn score_pruned_autotune_is_cheaper_and_close() {
    use multidim_mapping::TuneOptions;
    let mut b = ProgramBuilder::new("grid");
    let h = b.sym("H");
    let w = b.sym("W");
    let root = b.map(Size::sym(h), |b, y| {
        b.map(Size::sym(w), |_, x| Expr::var(y) + Expr::var(x))
    });
    let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
    let mut bind = Bindings::new();
    bind.bind(h, 32);
    bind.bind(w, 256);
    let inputs = HashMap::new();
    // Compare evaluated candidates (measured or proven worse), so the
    // comparison isolates the score floor from locality pruning.
    let compiler = Compiler::new();
    let (_, full) = compiler
        .autotune(&p, &bind, &inputs, &TuneOptions::default())
        .unwrap();
    let (_, pruned) = compiler
        .autotune(
            &p,
            &bind,
            &inputs,
            &TuneOptions {
                score_floor: 0.8,
                ..Default::default()
            },
        )
        .unwrap();
    let evaluated = |r: &multidim_mapping::TuneResult| r.measured.len() + r.pruned + r.skipped;
    assert!(evaluated(&pruned) < evaluated(&full));
    assert!(pruned.best_cost <= full.best_cost * 1.5);
}
