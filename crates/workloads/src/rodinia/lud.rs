//! LUD: in-place LU decomposition (Figure 12).
//!
//! Per pivot `k`: scale the column below the pivot, then rank-1 update the
//! trailing submatrix. The generated code launches two kernels per pivot
//! and re-reads the submatrix from main memory each time; Rodinia's manual
//! version processes the matrix in shared-memory blocks
//! ([`crate::manual::lud_blocked`] models that).

use crate::data;
use crate::runner::{HostRun, Outcome, WorkloadError};
use multidim::prelude::*;
use multidim_ir::{ArrayId, Effect, SymId};
use std::collections::HashMap;

/// Column scaling for pivot `k`: `m[i+k+1][k] /= m[k][k]`.
pub fn scale_program() -> (Program, SymId, SymId, ArrayId) {
    let mut b = ProgramBuilder::new("lud_scale");
    let n = b.sym("N");
    let k = b.sym("K");
    let m = b.output("m", ScalarKind::F32, &[Size::sym(n), Size::sym(n)]);
    let rows = Size::sym(n) - Size::sym(k) - Size::from(1);
    let root = b.foreach(rows, |b, i| {
        let row = Expr::var(i) + Expr::size(Size::sym(k)) + Expr::lit(1.0);
        let kk = Expr::size(Size::sym(k));
        let v = b.read(m, &[row.clone(), kk.clone()]) / b.read(m, &[kk.clone(), kk.clone()]);
        vec![Effect::Write {
            cond: None,
            array: m,
            idx: vec![row, kk],
            value: v,
        }]
    });
    let p = b.finish_foreach(root).expect("valid lud scale program");
    (p, n, k, m)
}

/// Trailing update for pivot `k`:
/// `m[i][j] -= m[i][k] * m[k][j]` over the `(N-k-1)²` submatrix.
pub fn update_program() -> (Program, SymId, SymId, ArrayId) {
    let mut b = ProgramBuilder::new("lud_update");
    let n = b.sym("N");
    let k = b.sym("K");
    let m = b.output("m", ScalarKind::F32, &[Size::sym(n), Size::sym(n)]);
    let rows = Size::sym(n) - Size::sym(k) - Size::from(1);
    let root = b.foreach(rows.clone(), |b, i| {
        let inner = b.foreach(rows.clone(), |b, j| {
            let row = Expr::var(i) + Expr::size(Size::sym(k)) + Expr::lit(1.0);
            let col = Expr::var(j) + Expr::size(Size::sym(k)) + Expr::lit(1.0);
            let kk = Expr::size(Size::sym(k));
            let v = b.read(m, &[row.clone(), col.clone()])
                - b.read(m, &[row.clone(), kk.clone()]) * b.read(m, &[kk, col.clone()]);
            vec![Effect::Write {
                cond: None,
                array: m,
                idx: vec![row, col],
                value: v,
            }]
        });
        vec![b.nested_effect(inner)]
    });
    let p = b.finish_foreach(root).expect("valid lud update program");
    (p, n, k, m)
}

/// Run the full decomposition of an `n × n` SPD matrix.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn run(strategy: Strategy, n: usize) -> Result<Outcome, WorkloadError> {
    let (sp, sn, sk, sm) = scale_program();
    let (up, un, uk, um) = update_program();
    let mut m = data::spd_matrix(n, 8);
    let mut run = HostRun::with_strategy(strategy);
    let mut outputs = HashMap::new();
    for k in 0..n - 1 {
        let mut b1 = Bindings::new();
        b1.bind(sn, n as i64);
        b1.bind(sk, k as i64);
        let i1: HashMap<_, _> = [(sm, m.clone())].into_iter().collect();
        let o1 = run.launch(&sp, &b1, &i1)?;
        m = o1[&sm].clone();

        let mut b2 = Bindings::new();
        b2.bind(un, n as i64);
        b2.bind(uk, k as i64);
        let i2: HashMap<_, _> = [(um, m.clone())].into_iter().collect();
        outputs = run.launch(&up, &b2, &i2)?;
        m = outputs[&um].clone();
    }
    Ok(run.finish(outputs))
}

/// Host-side reference LU (Doolittle, in place) for validation.
pub fn reference(n: usize) -> Vec<f64> {
    let mut m = data::spd_matrix(n, 8);
    for k in 0..n - 1 {
        for i in k + 1..n {
            m[i * n + k] /= m[k * n + k];
        }
        for i in k + 1..n {
            for j in k + 1..n {
                m[i * n + j] -= m[i * n + k] * m[k * n + j];
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_lu() {
        let n = 12;
        let o = run(Strategy::MultiDim, n).unwrap();
        let (_, _, _, um) = update_program();
        let got = &o.outputs[&um];
        let want = reference(n);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() < 1e-6 * w.abs().max(1.0), "[{i}] {g} vs {w}");
        }
    }

    #[test]
    fn update_verifies_under_fixed_strategies() {
        let (up, un, uk, um) = update_program();
        let mut bind = Bindings::new();
        bind.bind(un, 9);
        bind.bind(uk, 2);
        let inputs: HashMap<_, _> = [(um, data::spd_matrix(9, 8))].into_iter().collect();
        for s in [
            Strategy::MultiDim,
            Strategy::ThreadBlockThread,
            Strategy::WarpBased,
        ] {
            let mut run = HostRun::with_strategy(s).verifying();
            run.launch(&up, &bind, &inputs).unwrap();
        }
    }
}
