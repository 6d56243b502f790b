//! Correctness checks. Every check runs outside the timers; any mismatch
//! or error counts as a failed operation.

use multidim_ir::{ArrayId, InterpResult, PatternKind, Program};
use std::collections::HashMap;

pub type Outputs = HashMap<ArrayId, Vec<f64>>;

/// Relative tolerance against the reference interpreter (reductions
/// reassociate), the one the end-to-end tests use.
const REL_TOL: f64 = 1e-6;

/// Failure messages a [`Tally`] keeps.
const KEPT_FAILURES: usize = 8;

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation with the outcome of its checks.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.keep(e);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            self.keep(f);
        }
    }

    fn keep(&mut self, failure: String) {
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(failure);
        }
    }
}

/// `got` holds exactly the arrays of `want`, bit for bit.
pub fn bit_identical(name: &str, want: &Outputs, got: &Outputs) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!(
            "`{name}`: {} output arrays, reference has {}",
            got.len(),
            want.len()
        ));
    }
    for (id, w) in want {
        let Some(g) = got.get(id) else {
            return Err(format!("`{name}`: array {id:?} missing"));
        };
        if g.len() != w.len() || g.iter().zip(w).any(|(a, b)| a.to_bits() != b.to_bits()) {
            return Err(format!("`{name}`: array {id:?} differs from the reference"));
        }
    }
    Ok(())
}

/// Every array in `got` matches the interpreter within [`REL_TOL`]. A
/// filter's output is compacted by atomics in any order, so its kept
/// prefix is compared as a multiset.
pub fn matches_interpreter(
    program: &Program,
    want: &InterpResult,
    got: &Outputs,
) -> Result<(), String> {
    let name = &program.name;
    let unordered = matches!(program.root.kind, PatternKind::Filter { .. });
    for (id, data) in got {
        let w = &want.array(*id).data;
        if unordered && Some(*id) == program.output {
            let n = want.filter_count.unwrap_or(0);
            if data.len() < n || w.len() < n {
                return Err(format!("`{name}`: filter output shorter than {n}"));
            }
            let mut a = data[..n].to_vec();
            let mut b = w[..n].to_vec();
            a.sort_by(f64::total_cmp);
            b.sort_by(f64::total_cmp);
            if a != b {
                return Err(format!("`{name}`: filter output differs as a multiset"));
            }
            continue;
        }
        if data.len() != w.len() {
            return Err(format!(
                "`{name}` array {id:?}: length {} vs {}",
                data.len(),
                w.len()
            ));
        }
        if let Some(i) = (0..w.len()).find(|&i| !within_tolerance(data[i], w[i])) {
            return Err(format!(
                "`{name}` array {id:?}[{i}]: {} vs interpreter {}",
                data[i], w[i]
            ));
        }
    }
    Ok(())
}

fn within_tolerance(got: f64, want: f64) -> bool {
    (got - want).abs() <= REL_TOL * want.abs().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use multidim_ir::{interpret, Bindings, ProgramBuilder, ReduceOp, ScalarKind, Size};

    fn sum_rows() -> (Program, Bindings, Outputs) {
        let mut b = ProgramBuilder::new("sumRows");
        let r = b.sym("R");
        let c = b.sym("C");
        let m = b.input("m", ScalarKind::F32, &[Size::sym(r), Size::sym(c)]);
        let root = b.map(Size::sym(r), |b, row| {
            b.reduce(Size::sym(c), ReduceOp::Add, |b, col| {
                b.read(m, &[row.into(), col.into()])
            })
        });
        let p = b.finish_map(root, "sums", ScalarKind::F32).expect("valid");
        let mut bind = Bindings::new();
        bind.bind(r, 4);
        bind.bind(c, 8);
        let inputs: Outputs = [(m, (0..32).map(f64::from).collect())].into();
        (p, bind, inputs)
    }

    #[test]
    fn a_doctored_output_counts_as_a_failed_operation() {
        let (p, bind, inputs) = sum_rows();
        let exe = multidim::Compiler::new()
            .compile(&p, &bind)
            .expect("compile");
        let run = exe.run(&inputs).expect("run");
        let want = interpret(&p, &bind, &inputs).expect("interpret");
        let out = p.output.expect("output");

        let mut tally = Tally::default();
        tally.record(matches_interpreter(&p, &want, &run.outputs));
        tally.record(bit_identical(&p.name, &run.outputs, &run.outputs.clone()));
        assert_eq!((tally.attempted, tally.failed), (2, 0));

        let mut doctored = run.outputs.clone();
        doctored.get_mut(&out).expect("sums")[2] += 1e-3;
        tally.record(matches_interpreter(&p, &want, &doctored));
        tally.record(bit_identical(&p.name, &run.outputs, &doctored));
        // Within tolerance for the interpreter check, but not bit-identical.
        let mut nudged = run.outputs.clone();
        nudged.get_mut(&out).expect("sums")[0] *= 1.0 + 1e-12;
        tally.record(matches_interpreter(&p, &want, &nudged));
        tally.record(bit_identical(&p.name, &run.outputs, &nudged));
        assert_eq!((tally.attempted, tally.failed), (6, 3));
        assert_eq!(tally.failures.len(), 3);
    }
}
