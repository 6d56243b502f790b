//! Vertical pattern fusion.
//!
//! A `let t = map { j => f(j) }` whose collection is consumed by exactly
//! one element read needs no materialized temporary: the map's body is
//! inlined at the read (chains of maps collapse bottom-up). The paper's
//! compiler stack (Delite) performs this fusion before the mapping
//! analysis; we provide it as a standalone pre-pass so the *unfused* path
//! (which exercises the Section V-A preallocation machinery, Figure 16)
//! remains reachable by switching it off. Multi-use temporaries are left
//! materialized (inlining them would duplicate work and nested-pattern
//! ids).

use multidim_ir::{Body, Expr, Pattern, PatternKind, Program, ReadSrc, VarId};

/// Fuse `let t = map …; reduce over t` chains throughout `program`.
///
/// Returns the rewritten program and the number of fusions applied.
pub fn fuse_map_reduce(program: &Program) -> (Program, usize) {
    let mut count = 0usize;
    let mut out = program.clone();
    out.root = fuse_pattern(&program.root, &mut count);
    (out, count)
}

fn fuse_pattern(p: &Pattern, count: &mut usize) -> Pattern {
    let mut out = p.clone();
    if let Body::Value(e) = &p.body {
        out.body = Body::Value(fuse_expr(e, count));
    }
    out
}

fn fuse_expr(e: &Expr, count: &mut usize) -> Expr {
    // Fuse bottom-up: rewrite children first so chains collapse.
    if let Expr::Let(v, val, body) = e {
        let val_f = fuse_expr(val, count);
        let body_f = fuse_expr(body, count);
        if let Expr::Pat(m) = &val_f {
            if matches!(m.kind, PatternKind::Map) {
                if let Body::Value(map_body) = &m.body {
                    // Inline when the collection is consumed by exactly one
                    // element read (no length queries, no other uses): the
                    // map body feeds the consumer directly and the
                    // temporary vanishes.
                    if count_reads(&body_f, *v) == 1 && !has_other_uses(&body_f, *v) {
                        *count += 1;
                        return inline_read(&body_f, *v, m.var, map_body);
                    }
                }
            }
        }
        return Expr::Let(*v, Box::new(val_f), Box::new(body_f));
    }
    // Otherwise recurse structurally.
    match e {
        Expr::Lit(_) | Expr::Var(_) | Expr::SizeOf(_) | Expr::LengthOf(..) => e.clone(),
        Expr::Read(src, idxs) => {
            Expr::Read(*src, idxs.iter().map(|i| fuse_expr(i, count)).collect())
        }
        Expr::Bin(op, a, b) => Expr::Bin(
            *op,
            Box::new(fuse_expr(a, count)),
            Box::new(fuse_expr(b, count)),
        ),
        Expr::Un(op, a) => Expr::Un(*op, Box::new(fuse_expr(a, count))),
        Expr::Select(c, t, f) => Expr::Select(
            Box::new(fuse_expr(c, count)),
            Box::new(fuse_expr(t, count)),
            Box::new(fuse_expr(f, count)),
        ),
        Expr::Let(v, val, body) => Expr::Let(
            *v,
            Box::new(fuse_expr(val, count)),
            Box::new(fuse_expr(body, count)),
        ),
        Expr::Iterate {
            max,
            inits,
            cond,
            updates,
            result,
        } => Expr::Iterate {
            max: Box::new(fuse_expr(max, count)),
            inits: inits
                .iter()
                .map(|(v, i)| (*v, fuse_expr(i, count)))
                .collect(),
            cond: Box::new(fuse_expr(cond, count)),
            updates: updates.iter().map(|u| fuse_expr(u, count)).collect(),
            result: Box::new(fuse_expr(result, count)),
        },
        Expr::Pat(p) => Expr::Pat(Box::new(fuse_pattern(p, count))),
    }
}

/// Number of `v[...]` element reads in `e` (descending into nested
/// patterns).
fn count_reads(e: &Expr, v: VarId) -> usize {
    let mut n = 0;
    e.visit(&mut |x| {
        if let Expr::Read(ReadSrc::Var(w), idxs) = x {
            if *w == v && idxs.len() == 1 {
                n += 1;
            }
        }
    });
    n
}

/// Any use of `v` that is not a rank-1 element read (length queries,
/// scalar references, multi-dim reads)?
fn has_other_uses(e: &Expr, v: VarId) -> bool {
    let mut found = false;
    e.visit(&mut |x| match x {
        Expr::Var(w) if *w == v => found = true,
        Expr::LengthOf(ReadSrc::Var(w), _) if *w == v => found = true,
        Expr::Read(ReadSrc::Var(w), idxs) if *w == v && idxs.len() != 1 => found = true,
        _ => {}
    });
    found
}

/// Replace the single `v[i]` read inside `e` with `map_body[map_var := i]`.
fn inline_read(e: &Expr, v: VarId, map_var: VarId, map_body: &Expr) -> Expr {
    match e {
        Expr::Read(ReadSrc::Var(w), idxs) if *w == v && idxs.len() == 1 => {
            substitute_var(map_body, map_var, &idxs[0])
        }
        Expr::Lit(_) | Expr::Var(_) | Expr::SizeOf(_) | Expr::LengthOf(..) | Expr::Read(..) => {
            e.clone()
        }
        Expr::Bin(op, a, b) => Expr::Bin(
            *op,
            Box::new(inline_read(a, v, map_var, map_body)),
            Box::new(inline_read(b, v, map_var, map_body)),
        ),
        Expr::Un(op, a) => Expr::Un(*op, Box::new(inline_read(a, v, map_var, map_body))),
        Expr::Select(c, t, f) => Expr::Select(
            Box::new(inline_read(c, v, map_var, map_body)),
            Box::new(inline_read(t, v, map_var, map_body)),
            Box::new(inline_read(f, v, map_var, map_body)),
        ),
        Expr::Let(w, val, body) => Expr::Let(
            *w,
            Box::new(inline_read(val, v, map_var, map_body)),
            Box::new(inline_read(body, v, map_var, map_body)),
        ),
        Expr::Iterate {
            max,
            inits,
            cond,
            updates,
            result,
        } => Expr::Iterate {
            max: Box::new(inline_read(max, v, map_var, map_body)),
            inits: inits
                .iter()
                .map(|(w, i)| (*w, inline_read(i, v, map_var, map_body)))
                .collect(),
            cond: Box::new(inline_read(cond, v, map_var, map_body)),
            updates: updates
                .iter()
                .map(|u| inline_read(u, v, map_var, map_body))
                .collect(),
            result: Box::new(inline_read(result, v, map_var, map_body)),
        },
        Expr::Pat(p) => {
            let mut q = p.as_ref().clone();
            if let Some(ext) = &q.dyn_extent {
                q.dyn_extent = Some(inline_read(ext, v, map_var, map_body));
            }
            match &q.kind {
                PatternKind::Filter { pred } => {
                    q.kind = PatternKind::Filter {
                        pred: inline_read(pred, v, map_var, map_body),
                    };
                }
                PatternKind::GroupBy { key, num_keys, op } => {
                    q.kind = PatternKind::GroupBy {
                        key: inline_read(key, v, map_var, map_body),
                        num_keys: num_keys.clone(),
                        op: *op,
                    };
                }
                _ => {}
            }
            if let Body::Value(e2) = &q.body {
                q.body = Body::Value(inline_read(e2, v, map_var, map_body));
            }
            Expr::Pat(Box::new(q))
        }
    }
}

/// Replace every `Var(var)` with `replacement`.
pub fn substitute_var(e: &Expr, var: VarId, replacement: &Expr) -> Expr {
    match e {
        Expr::Var(v) if *v == var => replacement.clone(),
        Expr::Lit(_) | Expr::Var(_) | Expr::SizeOf(_) | Expr::LengthOf(..) => e.clone(),
        Expr::Read(src, idxs) => Expr::Read(
            *src,
            idxs.iter()
                .map(|i| substitute_var(i, var, replacement))
                .collect(),
        ),
        Expr::Bin(op, a, b) => Expr::Bin(
            *op,
            Box::new(substitute_var(a, var, replacement)),
            Box::new(substitute_var(b, var, replacement)),
        ),
        Expr::Un(op, a) => Expr::Un(*op, Box::new(substitute_var(a, var, replacement))),
        Expr::Select(c, t, f) => Expr::Select(
            Box::new(substitute_var(c, var, replacement)),
            Box::new(substitute_var(t, var, replacement)),
            Box::new(substitute_var(f, var, replacement)),
        ),
        Expr::Let(v, val, body) => Expr::Let(
            *v,
            Box::new(substitute_var(val, var, replacement)),
            Box::new(substitute_var(body, var, replacement)),
        ),
        Expr::Iterate {
            max,
            inits,
            cond,
            updates,
            result,
        } => Expr::Iterate {
            max: Box::new(substitute_var(max, var, replacement)),
            inits: inits
                .iter()
                .map(|(v, i)| (*v, substitute_var(i, var, replacement)))
                .collect(),
            cond: Box::new(substitute_var(cond, var, replacement)),
            updates: updates
                .iter()
                .map(|u| substitute_var(u, var, replacement))
                .collect(),
            result: Box::new(substitute_var(result, var, replacement)),
        },
        Expr::Pat(p) => {
            let mut q = p.as_ref().clone();
            if let Some(ext) = &q.dyn_extent {
                q.dyn_extent = Some(substitute_var(ext, var, replacement));
            }
            match &q.kind {
                PatternKind::Filter { pred } => {
                    q.kind = PatternKind::Filter {
                        pred: substitute_var(pred, var, replacement),
                    };
                }
                PatternKind::GroupBy { key, num_keys, op } => {
                    q.kind = PatternKind::GroupBy {
                        key: substitute_var(key, var, replacement),
                        num_keys: num_keys.clone(),
                        op: *op,
                    };
                }
                _ => {}
            }
            match &q.body {
                Body::Value(e2) => q.body = Body::Value(substitute_var(e2, var, replacement)),
                Body::Effects(_) => {}
            }
            Expr::Pat(Box::new(q))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multidim_ir::{ProgramBuilder, ReduceOp, ScalarKind, Size};

    fn weighted_sum() -> Program {
        // map(C) { c => let t = map(R){ r => m[r,c] * v[r] }; reduce over t }
        let mut b = ProgramBuilder::new("sumWeightedCols");
        let r = b.sym("R");
        let c = b.sym("C");
        let m = b.input("m", ScalarKind::F32, &[Size::sym(r), Size::sym(c)]);
        let w = b.input("w", ScalarKind::F32, &[Size::sym(r)]);
        let root = b.map(Size::sym(c), |b, col| {
            let inner = b.map(Size::sym(r), |b, row| {
                b.read(m, &[row.into(), col.into()]) * b.read(w, &[row.into()])
            });
            b.let_(inner, |b, t| {
                b.reduce(Size::sym(r), ReduceOp::Add, |b, j| {
                    b.read_var(t, &[j.into()])
                })
            })
        });
        b.finish_map(root, "out", ScalarKind::F32).unwrap()
    }

    #[test]
    fn fuses_weighted_sum() {
        let p = weighted_sum();
        let (fused, n) = fuse_map_reduce(&p);
        assert_eq!(n, 1);
        // After fusion the nest has exactly two patterns: map + reduce.
        let mut kinds = Vec::new();
        fused
            .root
            .visit_patterns(&mut |p, lvl| kinds.push((p.kind.name(), lvl)));
        assert_eq!(kinds, vec![("map", 0), ("reduce", 1)]);
        fused.validate().unwrap();
    }

    #[test]
    fn fused_program_computes_same_result() {
        use std::collections::HashMap;
        let p = weighted_sum();
        let (fused, _) = fuse_map_reduce(&p);
        let mut bind = multidim_ir::Bindings::new();
        bind.bind(multidim_ir::SymId(0), 4);
        bind.bind(multidim_ir::SymId(1), 3);
        let m: Vec<f64> = (0..12).map(|x| x as f64).collect();
        let w = vec![1.0, 2.0, 0.5, 3.0];
        let inputs: HashMap<_, _> = [(multidim_ir::ArrayId(0), m), (multidim_ir::ArrayId(1), w)]
            .into_iter()
            .collect();
        let a = multidim_ir::interpret(&p, &bind, &inputs).unwrap();
        let b = multidim_ir::interpret(&fused, &bind, &inputs).unwrap();
        assert_eq!(
            a.array(p.output.unwrap()).data,
            b.array(fused.output.unwrap()).data
        );
    }

    #[test]
    fn no_fusion_when_temp_used_twice() {
        // reduce body reads t[j] * t[j]: not the exact element read shape.
        let mut b = ProgramBuilder::new("sq");
        let n = b.sym("N");
        let x = b.input("x", ScalarKind::F32, &[Size::sym(n)]);
        let root = b.map(Size::from(2), |b, _| {
            let inner = b.map(Size::sym(n), |b, j| b.read(x, &[j.into()]));
            b.let_(inner, |b, t| {
                b.reduce(Size::sym(n), ReduceOp::Add, |b, j| {
                    b.read_var(t, &[j.into()]) * b.read_var(t, &[j.into()])
                })
            })
        });
        let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
        let (_, n2) = fuse_map_reduce(&p);
        assert_eq!(n2, 0);
    }

    #[test]
    fn substitute_respects_structure() {
        let e = Expr::Var(multidim_ir::VarId(3)) + Expr::lit(1.0);
        let s = substitute_var(&e, multidim_ir::VarId(3), &Expr::lit(5.0));
        assert_eq!(s, Expr::lit(5.0) + Expr::lit(1.0));
    }
}

#[cfg(test)]
mod chain_tests {
    use super::*;
    use multidim_ir::{ProgramBuilder, ReduceOp, ScalarKind, Size};

    /// map -> map -> reduce chains fuse all the way down when each stage is
    /// an exact element-wise consumer.
    #[test]
    fn fuses_through_two_stages() {
        let mut b = ProgramBuilder::new("chain");
        let n = b.sym("N");
        let x = b.input("x", ScalarKind::F32, &[Size::sym(n)]);
        let root = b.map(Size::from(3), |b, _| {
            let stage1 = b.map(Size::sym(n), |b, j| b.read(x, &[j.into()]) * Expr::lit(2.0));
            b.let_(stage1, |b, t1| {
                let stage2 = b.map(Size::sym(n), |b, j| {
                    b.read_var(t1, &[j.into()]) + Expr::lit(1.0)
                });
                b.let_(stage2, |b, t2| {
                    b.reduce(Size::sym(n), ReduceOp::Add, |b, j| {
                        b.read_var(t2, &[j.into()])
                    })
                })
            })
        });
        let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
        let (fused, count) = fuse_map_reduce(&p);
        // Innermost let fuses (map->reduce); after that the next one can.
        assert_eq!(count, 2, "{}", multidim_ir::pretty(&fused));
        let mut pats = 0;
        fused.root.visit_patterns(&mut |_, _| pats += 1);
        assert_eq!(pats, 2); // outer map + fused reduce
        fused.validate().unwrap();
    }

    /// A prefix reduce (consumer extent smaller than the producer's)
    /// still fuses under single-use inlining, and computes the same
    /// result.
    #[test]
    fn prefix_consumer_fuses_and_agrees() {
        use std::collections::HashMap;
        let mut b = ProgramBuilder::new("prefix");
        let n = b.sym("N");
        let m = b.sym("M");
        let x = b.input("x", ScalarKind::F32, &[Size::sym(n)]);
        let root = b.map(Size::from(2), |b, _| {
            let t = b.map(Size::sym(n), |b, j| b.read(x, &[j.into()]));
            b.let_(t, |b, tv| {
                // Reduce over a *prefix* of the temporary.
                b.reduce(Size::sym(m), ReduceOp::Add, |b, j| {
                    b.read_var(tv, &[j.into()])
                })
            })
        });
        let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
        let (fused, count) = fuse_map_reduce(&p);
        assert_eq!(count, 1);
        let mut bind = multidim_ir::Bindings::new();
        bind.bind(n, 8);
        bind.bind(m, 5);
        let inputs: HashMap<_, _> = [(x, (0..8).map(|v| v as f64).collect::<Vec<_>>())]
            .into_iter()
            .collect();
        let a = multidim_ir::interpret(&p, &bind, &inputs).unwrap();
        let c = multidim_ir::interpret(&fused, &bind, &inputs).unwrap();
        assert_eq!(
            a.array(p.output.unwrap()).data,
            c.array(fused.output.unwrap()).data
        );
        assert_eq!(a.array(p.output.unwrap()).data, vec![10.0, 10.0]);
    }
}
