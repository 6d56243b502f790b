//! Cross-validation: every mapping strategy and every codegen option must
//! compute the same results (performance differs; semantics don't).

use multidim::prelude::*;
use multidim_ir::{ArrayId, ReduceOp};
use std::collections::HashMap;

/// sumWeightedCols-style program with a materialized temporary.
fn weighted(fusion: bool) -> (Program, Bindings, HashMap<ArrayId, Vec<f64>>) {
    let mut b = ProgramBuilder::new("weighted");
    let r = b.sym("R");
    let c = b.sym("C");
    let m = b.input("m", ScalarKind::F32, &[Size::sym(r), Size::sym(c)]);
    let v = b.input("v", ScalarKind::F32, &[Size::sym(r)]);
    let root = b.map(Size::sym(c), |b, col| {
        let temp = b.map(Size::sym(r), |b, row| {
            b.read(m, &[row.into(), col.into()]) * b.read(v, &[row.into()])
        });
        b.let_(temp, |b, t| {
            b.reduce(Size::sym(r), ReduceOp::Add, |b, j| {
                b.read_var(t, &[j.into()])
            })
        })
    });
    let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
    let mut bind = Bindings::new();
    bind.bind(r, 53);
    bind.bind(c, 41);
    let inputs: HashMap<_, _> = [
        (
            m,
            (0..53 * 41)
                .map(|x| ((x * 7) % 11) as f64)
                .collect::<Vec<_>>(),
        ),
        (v, (0..53).map(|x| 1.0 + (x % 3) as f64).collect::<Vec<_>>()),
    ]
    .into_iter()
    .collect();
    let _ = fusion;
    (p, bind, inputs)
}

fn run_with(compiler: Compiler) -> Vec<f64> {
    let (p, bind, inputs) = weighted(true);
    let exe = compiler.compile(&p, &bind).expect("compile");
    let report = exe.run(&inputs).expect("run");
    report.output(p.output.unwrap()).to_vec()
}

#[test]
fn all_strategies_agree() {
    let base = run_with(Compiler::new());
    for s in [
        Strategy::OneD,
        Strategy::ThreadBlockThread,
        Strategy::WarpBased,
    ] {
        let got = run_with(Compiler::new().strategy(s));
        for (i, (g, w)) in got.iter().zip(&base).enumerate() {
            assert!(
                (g - w).abs() < 1e-9 * w.abs().max(1.0),
                "{s}[{i}]: {g} vs {w}"
            );
        }
    }
}

#[test]
fn fusion_on_off_agree() {
    let fused = run_with(Compiler::new().fusion(true));
    let unfused = run_with(Compiler::new().fusion(false));
    assert_eq!(fused.len(), unfused.len());
    for (g, w) in fused.iter().zip(&unfused) {
        assert!((g - w).abs() < 1e-9 * w.abs().max(1.0));
    }
}

#[test]
fn all_layout_policies_agree() {
    let base = run_with(Compiler::new().fusion(false));
    for layout in [
        LayoutPolicy::Auto,
        LayoutPolicy::ForceRowMajor,
        LayoutPolicy::ForceColMajor,
    ] {
        let opts = CodegenOptions {
            layout,
            ..CodegenOptions::default()
        };
        let got = run_with(Compiler::new().fusion(false).options(opts));
        for (g, w) in got.iter().zip(&base) {
            assert!((g - w).abs() < 1e-9 * w.abs().max(1.0), "{layout:?}");
        }
    }
}

#[test]
fn malloc_modeling_does_not_change_results() {
    let base = run_with(Compiler::new().fusion(false));
    let opts = CodegenOptions {
        device_malloc: true,
        ..CodegenOptions::default()
    };
    let got = run_with(Compiler::new().fusion(false).options(opts));
    assert_eq!(base, got);
}

#[test]
fn smem_prefetch_on_off_agree() {
    // Imperfect nest: outer-level read feeds an inner reduce.
    let build = || {
        let mut b = ProgramBuilder::new("imperfect");
        let n = b.sym("N");
        let m = b.sym("M");
        let x = b.input("x", ScalarKind::F32, &[Size::sym(n)]);
        let y = b.input("y", ScalarKind::F32, &[Size::sym(m)]);
        let root = b.map(Size::sym(n), |b, i| {
            let xi = b.read(x, &[i.into()]);
            b.let_(xi, |b, a| {
                b.reduce(Size::sym(m), ReduceOp::Add, |b, j| {
                    Expr::var(a) * b.read(y, &[j.into()])
                })
            })
        });
        let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
        let mut bind = Bindings::new();
        bind.bind(n, 200);
        bind.bind(m, 67);
        let inputs: HashMap<_, _> = [
            (x, (0..200).map(|v| v as f64 / 3.0).collect::<Vec<_>>()),
            (y, (0..67).map(|v| (v % 5) as f64).collect::<Vec<_>>()),
        ]
        .into_iter()
        .collect();
        (p, bind, inputs)
    };
    let mut results = Vec::new();
    for prefetch in [true, false] {
        let (p, bind, inputs) = build();
        let opts = CodegenOptions {
            smem_prefetch: prefetch,
            ..CodegenOptions::default()
        };
        let exe = Compiler::new().options(opts).compile(&p, &bind).unwrap();
        let report = exe.run(&inputs).unwrap();
        results.push(report.output(p.output.unwrap()).to_vec());
    }
    for (g, w) in results[0].iter().zip(&results[1]) {
        assert!((g - w).abs() < 1e-9 * w.abs().max(1.0));
    }
}

#[test]
fn explicit_mappings_sweep_agrees() {
    use multidim_mapping::{enumerate_scored, Weights};
    let (p, bind, inputs) = weighted(true);
    let gpu = GpuSpec::tesla_k20c();
    let candidates = enumerate_scored(&p, &bind, &gpu, &Weights::default());
    let want = multidim_ir::interpret(&p, &bind, &inputs).unwrap();
    let expect = &want.array(p.output.unwrap()).data;
    let compiler = Compiler::new();
    let mut checked = 0;
    // Sample the space (every 7th candidate) to keep the test quick.
    for cand in candidates.iter().step_by(7) {
        let Ok(exe) = compiler.compile_with_mapping(&p, &bind, cand.mapping.clone()) else {
            continue;
        };
        let report = exe.run(&inputs).expect("run");
        let got = report.output(p.output.unwrap());
        for (i, (g, w)) in got.iter().zip(expect).enumerate() {
            assert!(
                (g - w).abs() < 1e-6 * w.abs().max(1.0),
                "{} [{i}]: {g} vs {w}",
                cand.mapping
            );
        }
        checked += 1;
    }
    assert!(checked >= 10, "only {checked} candidates were executable");
}

/// Every tuning candidate of the catalog's two 64-row graph kernels,
/// lowered as `Compiler::autotune` lowers it, runs and computes the
/// interpreter's outputs bit for bit. Their candidates with 128–512 rows
/// on y and 2–8 lanes on x put padding threads in blocks that also
/// prefetch the row pointers through shared memory; a padding thread
/// clamps its row to the last one and must read that row's start.
#[test]
fn graph_kernel_tuning_candidates_match_the_interpreter() {
    use multidim_mapping::TuneOptions;
    let compiler = Compiler::new();
    let gpu = GpuSpec::tesla_k20c();
    for e in multidim_workloads::catalog::catalog() {
        if !matches!(e.name(), "spmv" | "pagerank_step") {
            continue;
        }
        let prepared = compiler
            .prepare_tune(&e.program, &e.bindings, &TuneOptions::default())
            .unwrap();
        // pagerank_step sums `prev_rank / degree` in a different order on
        // each lane split: whole ranks and power-of-two degrees keep every
        // partial sum exact, so its outputs compare bit for bit as well.
        let mut inputs = e.inputs.clone();
        for decl in &e.program.arrays {
            let n = inputs.get(&decl.id).map_or(0, Vec::len);
            let values: Vec<f64> = match decl.name.as_str() {
                "prev_rank" => (0..n).map(|i| (i % 5) as f64).collect(),
                "degree" => (0..n).map(|i| f64::from(1 << (i % 3))).collect(),
                _ => continue,
            };
            inputs.insert(decl.id, values);
        }
        let want = multidim_ir::interpret(&e.program, &e.bindings, &inputs).unwrap();
        let mut checked = 0;
        for cand in &prepared.plan.candidates {
            let Some(kernels) = compiler.lower_candidate(&prepared, &cand.mapping) else {
                continue;
            };
            let sim = multidim_sim::run_program(&kernels, &gpu, &e.bindings, &inputs)
                .unwrap_or_else(|err| panic!("{}: {}: {err}", e.name(), cand.mapping));
            for decl in &e.program.arrays {
                if matches!(decl.role, multidim_ir::ArrayRole::Output) {
                    let (got, expect) = (sim.array(decl.id), &want.array(decl.id).data);
                    assert!(
                        got.iter()
                            .map(|v| v.to_bits())
                            .eq(expect.iter().map(|v| v.to_bits())),
                        "{}: {}: output `{}` diverges from the interpreter",
                        e.name(),
                        cand.mapping,
                        decl.name
                    );
                }
            }
            checked += 1;
        }
        assert!(checked > 0, "{}: no candidate lowered", e.name());
    }
}
