//! CUDA C source emission.
//!
//! Renders a [`KernelProgram`] as compilable-looking CUDA, matching the
//! structure of the paper's Figure 9 (kernel signature, shared-memory
//! declarations, strided loops, `__syncthreads`, guarded stores). This
//! output is for inspection and golden tests; execution happens on the
//! simulator.

use crate::kernel::{BufferInit, KExpr, Kernel, KernelProgram, Stmt};
use multidim_ir::{BinOp, Size, UnOp};
use std::fmt::Write as _;

/// Render the whole program: buffer table plus each kernel.
pub fn emit_cuda(kp: &KernelProgram) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "// generated from program `{}`", kp.name);
    for note in &kp.notes {
        let _ = writeln!(s, "// note: {note}");
    }
    let _ = writeln!(s, "// buffers:");
    for (i, b) in kp.buffers.iter().enumerate() {
        let init = match b.init {
            BufferInit::Zero => "zero".to_string(),
            BufferInit::FromArray(a) => format!("host array {}", a.0),
            BufferInit::FromArrayOrZero(a) => format!("host array {} or zero", a.0),
            BufferInit::Fill(v) => format!("fill {v}"),
        };
        let _ = writeln!(
            s,
            "//   b{i}: {} [{} elems x {}B] init={init}",
            b.name, b.len, b.elem_bytes
        );
    }
    let _ = writeln!(s);
    for c in &kp.children {
        let _ = writeln!(
            s,
            "// device-launchable child (grid chosen per launch; leading locals are launch args)"
        );
        emit_kernel(&mut s, kp, c);
        let _ = writeln!(s);
    }
    for k in &kp.kernels {
        emit_kernel(&mut s, kp, k);
        let _ = writeln!(s);
    }
    s
}

/// Render a single kernel.
pub fn emit_kernel(s: &mut String, kp: &KernelProgram, k: &Kernel) {
    let params: Vec<String> = kp
        .buffers
        .iter()
        .enumerate()
        .map(|(i, b)| format!("{}* b{i}_{}", ctype(b.elem_bytes), b.name))
        .collect();
    let _ = writeln!(
        s,
        "// launch: grid=({}, {}, {}), block=({}, {}, {})",
        k.grid[0], k.grid[1], k.grid[2], k.block[0], k.block[1], k.block[2]
    );
    let _ = writeln!(s, "__global__ void {}({}) {{", k.name, params.join(", "));
    for sm in &k.smem {
        let _ = writeln!(s, "  __shared__ double {}[{}];", sm.name, sm.len);
    }
    if k.locals > 0 {
        let names: Vec<String> = (0..k.locals).map(|i| format!("r{i}")).collect();
        let _ = writeln!(s, "  double {};", names.join(", "));
    }
    emit_stmts(s, kp, k, &k.body, 1);
    let _ = writeln!(s, "}}");
}

fn ctype(bytes: u64) -> &'static str {
    match bytes {
        4 => "float",
        1 => "bool",
        _ => "double",
    }
}

fn indent(s: &mut String, depth: usize) {
    for _ in 0..depth {
        s.push_str("  ");
    }
}

fn emit_stmts(s: &mut String, kp: &KernelProgram, k: &Kernel, stmts: &[Stmt], depth: usize) {
    for st in stmts {
        emit_stmt(s, kp, k, st, depth);
    }
}

fn emit_stmt(s: &mut String, kp: &KernelProgram, k: &Kernel, st: &Stmt, depth: usize) {
    indent(s, depth);
    match st {
        Stmt::Assign { dst, value } => {
            let _ = writeln!(s, "r{dst} = {};", expr(kp, k, value));
        }
        Stmt::Store { buf, idx, value } => {
            let b = kp.buffer(*buf);
            let _ = writeln!(
                s,
                "b{}_{}[(int)({})] = {};",
                buf.0,
                b.name,
                expr(kp, k, idx),
                expr(kp, k, value)
            );
        }
        Stmt::AtomicRmw {
            buf,
            idx,
            op,
            value,
            capture,
        } => {
            let b = kp.buffer(*buf);
            let f = match op {
                multidim_ir::ReduceOp::Add => "atomicAdd",
                multidim_ir::ReduceOp::Mul => "atomicMul",
                multidim_ir::ReduceOp::Min => "atomicMin",
                multidim_ir::ReduceOp::Max => "atomicMax",
            };
            let call = format!(
                "{f}(&b{}_{}[(int)({})], {})",
                buf.0,
                b.name,
                expr(kp, k, idx),
                expr(kp, k, value)
            );
            match capture {
                Some(c) => {
                    let _ = writeln!(s, "r{c} = {call};");
                }
                None => {
                    let _ = writeln!(s, "{call};");
                }
            }
        }
        Stmt::SmemStore { arr, idx, value } => {
            let _ = writeln!(
                s,
                "{}[(int)({})] = {};",
                k.smem[*arr as usize].name,
                expr(kp, k, idx),
                expr(kp, k, value)
            );
        }
        Stmt::For {
            var,
            start,
            end,
            step,
            body,
        } => {
            let _ = writeln!(
                s,
                "for (int r{var} = {}; r{var} < {}; r{var} += {}) {{",
                expr(kp, k, start),
                expr(kp, k, end),
                expr(kp, k, step)
            );
            emit_stmts(s, kp, k, body, depth + 1);
            indent(s, depth);
            let _ = writeln!(s, "}}");
        }
        Stmt::Break => {
            let _ = writeln!(s, "break;");
        }
        Stmt::If { cond, then, els } => {
            let _ = writeln!(s, "if ({}) {{", expr(kp, k, cond));
            emit_stmts(s, kp, k, then, depth + 1);
            if !els.is_empty() {
                indent(s, depth);
                let _ = writeln!(s, "}} else {{");
                emit_stmts(s, kp, k, els, depth + 1);
            }
            indent(s, depth);
            let _ = writeln!(s, "}}");
        }
        Stmt::Sync => {
            let _ = writeln!(s, "__syncthreads();");
        }
        Stmt::DeviceMalloc { bytes } => {
            let _ = writeln!(
                s,
                "malloc((size_t)({})); // per-thread temporary",
                expr(kp, k, bytes)
            );
        }
        Stmt::ChildLaunch {
            kernel,
            extent,
            args,
        } => {
            let child = &kp.children[*kernel as usize];
            let block = child.block_threads();
            let child_args: Vec<String> = args.iter().map(|a| expr(kp, k, a)).collect();
            let _ = writeln!(
                s,
                "{}<<<(int)ceil(({}) / {block}.0), {block}>>>({}); // device-side launch",
                child.name,
                expr(kp, k, extent),
                child_args.join(", ")
            );
        }
    }
}

fn expr(kp: &KernelProgram, k: &Kernel, e: &KExpr) -> String {
    match e {
        KExpr::Imm(v) => {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                format!("{}", *v as i64)
            } else {
                format!("{v}")
            }
        }
        KExpr::Local(l) => format!("r{l}"),
        KExpr::Tid(a) => format!("threadIdx.{}", a.name()),
        KExpr::Bid(a) => format!("blockIdx.{}", a.name()),
        KExpr::Bdim(a) => format!("blockDim.{}", a.name()),
        KExpr::Gdim(a) => format!("gridDim.{}", a.name()),
        KExpr::SizeVal(sz) => size_expr(sz),
        KExpr::Load { buf, idx } => {
            let b = kp.buffer(*buf);
            format!("b{}_{}[(int)({})]", buf.0, b.name, expr(kp, k, idx))
        }
        KExpr::SmemLoad { arr, idx } => {
            format!(
                "{}[(int)({})]",
                k.smem[*arr as usize].name,
                expr(kp, k, idx)
            )
        }
        KExpr::Bin(op, a, b) => {
            let (x, y) = (expr(kp, k, a), expr(kp, k, b));
            match op {
                BinOp::Add => format!("({x} + {y})"),
                BinOp::Sub => format!("({x} - {y})"),
                BinOp::Mul => format!("({x} * {y})"),
                BinOp::Div => format!("({x} / {y})"),
                BinOp::Rem => format!("((int){x} % (int){y})"),
                BinOp::Min => format!("min({x}, {y})"),
                BinOp::Max => format!("max({x}, {y})"),
                BinOp::Lt => format!("({x} < {y})"),
                BinOp::Le => format!("({x} <= {y})"),
                BinOp::Gt => format!("({x} > {y})"),
                BinOp::Ge => format!("({x} >= {y})"),
                BinOp::Eq => format!("({x} == {y})"),
                BinOp::Ne => format!("({x} != {y})"),
                BinOp::And => format!("({x} && {y})"),
                BinOp::Or => format!("({x} || {y})"),
            }
        }
        KExpr::Un(op, a) => {
            let x = expr(kp, k, a);
            match op {
                UnOp::Neg => format!("(-{x})"),
                UnOp::Not => format!("(!{x})"),
                UnOp::Sqrt => format!("sqrt({x})"),
                UnOp::Exp => format!("exp({x})"),
                UnOp::Log => format!("log({x})"),
                UnOp::Abs => format!("fabs({x})"),
                UnOp::Floor => format!("floor({x})"),
            }
        }
        KExpr::Select(c, t, f) => {
            format!(
                "({} ? {} : {})",
                expr(kp, k, c),
                expr(kp, k, t),
                expr(kp, k, f)
            )
        }
    }
}

fn size_expr(s: &Size) -> String {
    match s {
        Size::Const(n) => format!("{n}"),
        Size::Sym(id) => format!("s{}", id.0),
        Size::Dynamic(e) => format!("/*dyn*/{e}"),
        Size::Add(a, b) => format!("({} + {})", size_expr(a), size_expr(b)),
        Size::Sub(a, b) => format!("max(0, {} - {})", size_expr(a), size_expr(b)),
        Size::Mul(a, b) => format!("({} * {})", size_expr(a), size_expr(b)),
        Size::CeilDiv(a, b) => {
            format!(
                "(({} + {} - 1) / {})",
                size_expr(a),
                size_expr(b),
                size_expr(b)
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Axis, BufId, BufferDecl, SmemDecl};
    use multidim_ir::{ReduceOp, SymId};

    fn sample_program() -> KernelProgram {
        KernelProgram {
            name: "sample".into(),
            buffers: vec![
                BufferDecl {
                    name: "in".into(),
                    elem_bytes: 4,
                    len: Size::sym(SymId(0)) * Size::from(2),
                    init: BufferInit::FromArray(multidim_ir::ArrayId(0)),
                    array: Some(multidim_ir::ArrayId(0)),
                },
                BufferDecl {
                    name: "out".into(),
                    elem_bytes: 8,
                    len: Size::from(10),
                    init: BufferInit::Fill(1.5),
                    array: None,
                },
            ],
            kernels: vec![Kernel {
                name: "k".into(),
                grid: [Size::from(4), Size::from(1), Size::from(1)],
                block: [64, 1, 1],
                smem: vec![SmemDecl {
                    name: "tile".into(),
                    len: 64,
                }],
                locals: 2,
                body: vec![
                    Stmt::Assign {
                        dst: 0,
                        value: KExpr::global_tid(Axis::X),
                    },
                    Stmt::For {
                        var: 1,
                        start: KExpr::imm(0),
                        end: KExpr::SizeVal(Size::sym(SymId(0))),
                        step: KExpr::imm(1),
                        body: vec![Stmt::If {
                            cond: KExpr::lt(KExpr::Local(1), KExpr::imm(5)),
                            then: vec![Stmt::Break],
                            els: vec![Stmt::SmemStore {
                                arr: 0,
                                idx: KExpr::Tid(Axis::X),
                                value: KExpr::Load {
                                    buf: BufId(0),
                                    idx: Box::new(KExpr::Local(0)),
                                },
                            }],
                        }],
                    },
                    Stmt::Sync,
                    Stmt::AtomicRmw {
                        buf: BufId(1),
                        idx: KExpr::imm(0),
                        op: ReduceOp::Add,
                        value: KExpr::Imm(1.0),
                        capture: Some(1),
                    },
                    Stmt::DeviceMalloc {
                        bytes: KExpr::imm(256),
                    },
                ],
            }],
            children: vec![],
            notes: vec!["demo note".into()],
        }
    }

    #[test]
    fn emits_signature_and_types() {
        let text = emit_cuda(&sample_program());
        assert!(
            text.contains("__global__ void k(float* b0_in, double* b1_out)"),
            "{text}"
        );
        assert!(text.contains("__shared__ double tile[64];"));
        assert!(text.contains("double r0, r1;"));
    }

    #[test]
    fn shared_accesses_use_the_declared_name() {
        let text = emit_cuda(&sample_program());
        assert!(
            text.contains("tile[(int)(threadIdx.x)] = b0_in[(int)(r0)];"),
            "{text}"
        );
        assert!(!text.contains("smem0"), "{text}");
    }

    #[test]
    fn emits_control_flow() {
        let text = emit_cuda(&sample_program());
        assert!(
            text.contains("for (int r1 = 0; r1 < s0; r1 += 1) {"),
            "{text}"
        );
        assert!(text.contains("break;"));
        assert!(text.contains("} else {"));
        assert!(text.contains("__syncthreads();"));
    }

    #[test]
    fn emits_atomics_and_malloc() {
        let text = emit_cuda(&sample_program());
        assert!(
            text.contains("r1 = atomicAdd(&b1_out[(int)(0)], 1);"),
            "{text}"
        );
        assert!(text.contains("malloc((size_t)(256));"));
    }

    #[test]
    fn emits_buffer_table_and_notes() {
        let text = emit_cuda(&sample_program());
        assert!(text.contains("// note: demo note"));
        assert!(text.contains("init=host array 0"));
        assert!(text.contains("init=fill 1.5"));
        assert!(text.contains("(s0 * 2)"));
    }

    #[test]
    fn size_expressions_render() {
        assert_eq!(
            size_expr(&(Size::sym(SymId(1)) / Size::from(4))),
            "((s1 + 4 - 1) / 4)"
        );
        assert_eq!(size_expr(&(Size::from(8) - Size::from(3))), "max(0, 8 - 3)");
        assert_eq!(size_expr(&Size::Dynamic(100)), "/*dyn*/100");
    }
}
