//! The flat form the executor runs.
//!
//! One linear pass over a [`KernelProgram`] and its launch bindings
//! resolves every [`Size`] — buffer lengths, grids and `SizeVal` operands
//! — and lowers every kernel body into two arrays shared by the whole
//! program:
//!
//! * statements, whose nested bodies are contiguous index ranges, each
//!   carrying its precomputed warp-instruction charge and whether it
//!   contains a `__syncthreads`;
//! * expression ops in post-order over numbered lane-vector slots: an
//!   expression lowered at slot `s` leaves its value in `s` and uses only
//!   slots above `s` as temporaries, so a binary node reads `s` and `s + 1`
//!   and writes `s`.
//!
//! Post-order keeps the tree walker's evaluation order exactly (left
//! operand before right, index before access), so loads fault in the same
//! order and every node performs the same f64 operation. A subtree of
//! constants folds to one immediate computed by the same `apply_bin` /
//! `apply_un` call, but its statement is still charged the subtree's full
//! node count: the cost record cannot tell the two forms apart.

use crate::exec::SimError;
use multidim_codegen::{KExpr, Kernel, KernelProgram, Stmt};
use multidim_device::{GpuSpec, WARP_SIZE};
use multidim_ir::{apply_bin, apply_un, BinOp, Bindings, ReduceOp, Size, UnOp};

/// Index of a lane-vector slot.
pub(crate) type Slot = u32;

/// One expression node, computing a lane vector into slot `at`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// A literal, a resolved size, `blockDim`, or a folded constant
    /// subtree.
    Imm { at: Slot, v: f64 },
    /// Per-thread local.
    Local { at: Slot, local: u32 },
    /// `threadIdx.<axis>`.
    Tid { at: Slot, axis: u8 },
    /// `blockIdx.<axis>`.
    Bid { at: Slot, axis: u8 },
    /// `gridDim.<axis>` (per launch: child grids are sized at launch).
    Gdim { at: Slot, axis: u8 },
    /// Global load; the index is in `at`.
    Load { at: Slot, buf: u32 },
    /// Shared load from the block's shared words `off..off + len`; the
    /// index is in `at`.
    SmemLoad { at: Slot, off: u32, len: u32 },
    /// `at ← at ∘ at+1`.
    Bin { at: Slot, op: BinOp },
    /// `at ← ∘ at`.
    Un { at: Slot, op: UnOp },
    /// `at ← at ≠ 0 ? at+1 : at+2`.
    Select { at: Slot },
}

/// A lowered expression: a range of [`Flat::ops`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Expr {
    pub start: u32,
    pub end: u32,
    /// Warp instructions one evaluation issues: the source tree's node
    /// count, folded or not.
    pub nodes: u64,
}

/// A range of [`Flat::stmts`].
pub(crate) type Body = (u32, u32);

/// One lowered statement.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FStmt {
    pub kind: Kind,
    /// Warp instructions charged each time a warp executes the statement
    /// (its operands' nodes plus the statement itself; a loop's per-trip
    /// charges are added as it iterates).
    pub charge: u64,
    /// Contains a `__syncthreads` (runs block-lockstep).
    pub sync: bool,
}

/// Statement kinds; every operand is evaluated at slot 0 upwards in
/// source order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Kind {
    /// `local ← slot 0`.
    Assign { dst: u32, value: Expr },
    /// `buf[slot 1] ← slot 0`.
    Store { buf: u32, value: Expr, idx: Expr },
    /// `buf[slot 1] ∘= slot 0`, the old value into `capture`.
    Atomic {
        buf: u32,
        op: ReduceOp,
        value: Expr,
        idx: Expr,
        capture: Option<u32>,
    },
    /// `smem[off + slot 1] ← slot 0`.
    SmemStore {
        off: u32,
        len: u32,
        value: Expr,
        idx: Expr,
    },
    /// `for (var = start; var < end; var += step) body`.
    For {
        var: u32,
        start: Expr,
        end: Expr,
        step: Expr,
        body: Body,
    },
    /// Exit the innermost loop.
    Break,
    /// `if (cond) then else els`.
    If { cond: Expr, then: Body, els: Body },
    /// `__syncthreads()`.
    Sync,
    /// Device-heap allocation (cost only).
    Malloc { bytes: Expr },
    /// Device-side launch: extent in slot 0, arguments in slots
    /// `1..=nargs` (their ops concatenated in `args`).
    Launch {
        kernel: u32,
        extent: Expr,
        args: Expr,
        nargs: u32,
    },
}

/// One lowered kernel. It borrows its source for the name and shape and
/// is never cloned: a child kernel is launched by reference with the grid
/// of each launch.
#[derive(Debug)]
pub(crate) struct FlatKernel<'p> {
    pub src: &'p Kernel,
    /// Resolved grid (parent kernels; a child's comes from each launch).
    pub grid: [u64; 3],
    pub body: Body,
    /// The body contains a `__syncthreads` (block-lockstep execution).
    pub lockstep: bool,
    pub threads: u32,
    pub warps: u32,
    /// Shared words per block, all arrays laid end to end.
    pub smem_words: usize,
}

/// Resolved placement of one device buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BufLayout {
    pub len: usize,
    /// Virtual base byte address (segment-aligned, never shared).
    pub base: u64,
}

/// A [`KernelProgram`] with every size resolved and every body lowered.
#[derive(Debug)]
pub(crate) struct Flat<'p> {
    pub buffers: Vec<BufLayout>,
    pub kernels: Vec<FlatKernel<'p>>,
    pub children: Vec<FlatKernel<'p>>,
    pub stmts: Vec<FStmt>,
    pub ops: Vec<Op>,
    /// Lane-vector slots any expression needs.
    pub slots: usize,
    /// The most local words (locals × warp-padded threads) of any block.
    pub local_words: usize,
    /// The most warp-padded threads of any block.
    pub lanes: usize,
    /// The most shared words of any block.
    pub smem_words: usize,
}

impl<'p> Flat<'p> {
    /// Lower `kp` for launch with `bindings` on `gpu`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] naming the first buffer length, grid or
    /// `SizeVal` operand that mentions a symbol `bindings` leaves unbound.
    pub fn lower(
        kp: &'p KernelProgram,
        gpu: &GpuSpec,
        bindings: &Bindings,
    ) -> Result<Flat<'p>, SimError> {
        let mut buffers = Vec::with_capacity(kp.buffers.len());
        let mut base = 0u64;
        for decl in &kp.buffers {
            let len = eval(&decl.len, bindings)?.max(0) as usize;
            buffers.push(BufLayout { len, base });
            // Segment-align the next buffer.
            base += (len as u64 * decl.elem_bytes).next_multiple_of(gpu.transaction_bytes.max(1));
            base += gpu.transaction_bytes;
        }
        let (mut stmts, mut ops) = (0, 0);
        for k in kp.kernels.iter().chain(&kp.children) {
            count(&k.body, &mut stmts, &mut ops);
        }
        let mut l = Lowering {
            bindings,
            block: [0; 3],
            smem: Vec::new(),
            stmts: Vec::with_capacity(stmts),
            ops: Vec::with_capacity(ops),
            slots: 1,
            unbound: None,
        };
        let mut kernels = Vec::with_capacity(kp.kernels.len());
        for k in &kp.kernels {
            let mut grid = [1u64; 3];
            for (g, size) in grid.iter_mut().zip(&k.grid) {
                *g = eval(size, bindings)?.max(1) as u64;
            }
            kernels.push(l.kernel(k, grid));
        }
        let children = kp.children.iter().map(|k| l.kernel(k, [1; 3])).collect();
        if let Some(size) = &l.unbound {
            return Err(unbound(size));
        }
        let mut flat = Flat {
            buffers,
            kernels,
            children,
            stmts: l.stmts,
            ops: l.ops,
            slots: l.slots,
            local_words: 0,
            lanes: 0,
            smem_words: 0,
        };
        for k in flat.kernels.iter().chain(&flat.children) {
            let lanes = k.warps as usize * WARP_SIZE as usize;
            flat.local_words = flat.local_words.max(k.src.locals as usize * lanes);
            flat.lanes = flat.lanes.max(lanes);
            flat.smem_words = flat.smem_words.max(k.smem_words);
        }
        Ok(flat)
    }
}

/// `size` under `bindings`, or the error naming it.
fn eval(size: &Size, bindings: &Bindings) -> Result<i64, SimError> {
    size.try_eval(bindings).ok_or_else(|| unbound(size))
}

fn unbound(size: &Size) -> SimError {
    SimError(format!("unbound size symbol in {size}"))
}

/// Count the statements and expression nodes of `body` (capacity hints,
/// so lowering allocates once).
fn count(body: &[Stmt], stmts: &mut usize, ops: &mut usize) {
    fn nodes(e: &KExpr) -> usize {
        match e {
            KExpr::Load { idx, .. } | KExpr::SmemLoad { idx, .. } | KExpr::Un(_, idx) => {
                1 + nodes(idx)
            }
            KExpr::Bin(_, x, y) => 1 + nodes(x) + nodes(y),
            KExpr::Select(c, t, f) => 1 + nodes(c) + nodes(t) + nodes(f),
            _ => 1,
        }
    }
    for s in body {
        *stmts += 1;
        *ops += match s {
            Stmt::Assign { value, .. } => nodes(value),
            Stmt::Store { idx, value, .. }
            | Stmt::AtomicRmw { idx, value, .. }
            | Stmt::SmemStore { idx, value, .. } => nodes(idx) + nodes(value),
            Stmt::For {
                start,
                end,
                step,
                body,
                ..
            } => {
                count(body, stmts, ops);
                nodes(start) + nodes(end) + nodes(step)
            }
            Stmt::If { cond, then, els } => {
                count(then, stmts, ops);
                count(els, stmts, ops);
                nodes(cond)
            }
            Stmt::DeviceMalloc { bytes } => nodes(bytes),
            Stmt::ChildLaunch { extent, args, .. } => {
                nodes(extent) + args.iter().map(nodes).sum::<usize>()
            }
            Stmt::Break | Stmt::Sync => 0,
        };
    }
}

struct Lowering<'b> {
    bindings: &'b Bindings,
    /// The current kernel's block shape (`blockDim` folds to a constant).
    block: [u32; 3],
    /// The current kernel's shared arrays: (first word, length).
    smem: Vec<(u32, u32)>,
    stmts: Vec<FStmt>,
    ops: Vec<Op>,
    slots: usize,
    /// The first `SizeVal` operand with an unbound symbol; lowering
    /// finishes with a zero in its place and then fails.
    unbound: Option<Size>,
}

impl Lowering<'_> {
    fn kernel<'p>(&mut self, k: &'p Kernel, grid: [u64; 3]) -> FlatKernel<'p> {
        self.block = k.block;
        self.smem.clear();
        let mut words = 0u32;
        for d in &k.smem {
            self.smem.push((words, d.len));
            words += d.len;
        }
        let threads = k.block_threads().max(1);
        let body = self.block_body(&k.body);
        FlatKernel {
            src: k,
            grid,
            body,
            lockstep: self.any_sync(body),
            threads,
            warps: threads.div_ceil(WARP_SIZE),
            smem_words: words as usize,
        }
    }

    /// Lower a statement list into a contiguous range; nested bodies go
    /// after it.
    fn block_body(&mut self, body: &[Stmt]) -> Body {
        let start = self.stmts.len();
        self.stmts.extend(body.iter().map(|_| FStmt {
            kind: Kind::Break,
            charge: 0,
            sync: false,
        }));
        for (i, s) in body.iter().enumerate() {
            self.stmts[start + i] = self.stmt(s);
        }
        (start as u32, (start + body.len()) as u32)
    }

    fn smem(&self, arr: u32) -> (u32, u32) {
        // An undeclared array faults on every index, like an empty one.
        self.smem.get(arr as usize).copied().unwrap_or((0, 0))
    }

    fn stmt(&mut self, s: &Stmt) -> FStmt {
        let (kind, charge, sync) = match s {
            Stmt::Assign { dst, value } => {
                let value = self.expr(value, 0);
                (Kind::Assign { dst: *dst, value }, value.nodes + 1, false)
            }
            Stmt::Store { buf, idx, value } => {
                let value = self.expr(value, 0);
                let idx = self.expr(idx, 1);
                let charge = value.nodes + idx.nodes + 1;
                let buf = buf.0;
                (Kind::Store { buf, value, idx }, charge, false)
            }
            Stmt::AtomicRmw {
                buf,
                idx,
                op,
                value,
                capture,
            } => {
                let value = self.expr(value, 0);
                let idx = self.expr(idx, 1);
                let kind = Kind::Atomic {
                    buf: buf.0,
                    op: *op,
                    value,
                    idx,
                    capture: *capture,
                };
                (kind, value.nodes + idx.nodes + 1, false)
            }
            Stmt::SmemStore { arr, idx, value } => {
                let (off, len) = self.smem(*arr);
                let value = self.expr(value, 0);
                let idx = self.expr(idx, 1);
                let kind = Kind::SmemStore {
                    off,
                    len,
                    value,
                    idx,
                };
                (kind, value.nodes + idx.nodes + 1, false)
            }
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
            } => {
                let start = self.expr(start, 0);
                let end = self.expr(end, 0);
                let step = self.expr(step, 0);
                let body = self.block_body(body);
                let sync = self.any_sync(body);
                let kind = Kind::For {
                    var: *var,
                    start,
                    end,
                    step,
                    body,
                };
                (kind, start.nodes + 1, sync)
            }
            Stmt::Break => (Kind::Break, 1, false),
            Stmt::If { cond, then, els } => {
                let cond = self.expr(cond, 0);
                let then = self.block_body(then);
                let els = self.block_body(els);
                let sync = self.any_sync(then) || self.any_sync(els);
                (Kind::If { cond, then, els }, cond.nodes + 1, sync)
            }
            Stmt::Sync => (Kind::Sync, 1, true),
            Stmt::DeviceMalloc { bytes } => {
                let bytes = self.expr(bytes, 0);
                (Kind::Malloc { bytes }, bytes.nodes + 2, false)
            }
            Stmt::ChildLaunch {
                kernel,
                extent,
                args,
            } => {
                let extent = self.expr(extent, 0);
                let start = self.ops.len() as u32;
                let mut nodes = 0;
                for (i, a) in args.iter().enumerate() {
                    nodes += self.expr(a, 1 + i as Slot).nodes;
                }
                let args_expr = Expr {
                    start,
                    end: self.ops.len() as u32,
                    nodes,
                };
                let kind = Kind::Launch {
                    kernel: *kernel,
                    extent,
                    args: args_expr,
                    nargs: args.len() as u32,
                };
                (kind, extent.nodes + nodes + 1, false)
            }
        };
        FStmt { kind, charge, sync }
    }

    fn any_sync(&self, body: Body) -> bool {
        self.stmts[body.0 as usize..body.1 as usize]
            .iter()
            .any(|s| s.sync)
    }

    /// Lower `e` to leave its value in slot `at`.
    fn expr(&mut self, e: &KExpr, at: Slot) -> Expr {
        let start = self.ops.len() as u32;
        let nodes = self.node(e, at);
        Expr {
            start,
            end: self.ops.len() as u32,
            nodes,
        }
    }

    /// The value of `ops[from..to]` if it is one immediate.
    fn imm(&self, from: usize, to: usize) -> Option<f64> {
        match self.ops[from..to] {
            [Op::Imm { v, .. }] => Some(v),
            _ => None,
        }
    }

    fn node(&mut self, e: &KExpr, at: Slot) -> u64 {
        self.slots = self.slots.max(at as usize + 1);
        let from = self.ops.len();
        let (op, nodes) = match e {
            KExpr::Imm(v) => (Op::Imm { at, v: *v }, 1),
            KExpr::Local(local) => (Op::Local { at, local: *local }, 1),
            KExpr::Tid(a) => (
                Op::Tid {
                    at,
                    axis: a.index() as u8,
                },
                1,
            ),
            KExpr::Bid(a) => (
                Op::Bid {
                    at,
                    axis: a.index() as u8,
                },
                1,
            ),
            KExpr::Bdim(a) => {
                let v = f64::from(self.block[a.index()]);
                (Op::Imm { at, v }, 1)
            }
            KExpr::Gdim(a) => (
                Op::Gdim {
                    at,
                    axis: a.index() as u8,
                },
                1,
            ),
            KExpr::SizeVal(s) => {
                let v = s.try_eval(self.bindings).unwrap_or_else(|| {
                    self.unbound.get_or_insert_with(|| s.clone());
                    0
                });
                (Op::Imm { at, v: v as f64 }, 1)
            }
            KExpr::Load { buf, idx } => {
                let n = self.node(idx, at);
                (Op::Load { at, buf: buf.0 }, n + 1)
            }
            KExpr::SmemLoad { arr, idx } => {
                let (off, len) = self.smem(*arr);
                let n = self.node(idx, at);
                (Op::SmemLoad { at, off, len }, n + 1)
            }
            KExpr::Bin(op, x, y) => {
                let nx = self.node(x, at);
                let mid = self.ops.len();
                let ny = self.node(y, at + 1);
                let nodes = nx + ny + 1;
                match (self.imm(from, mid), self.imm(mid, self.ops.len())) {
                    (Some(a), Some(b)) => {
                        self.ops.truncate(from);
                        (
                            Op::Imm {
                                at,
                                v: apply_bin(*op, a, b),
                            },
                            nodes,
                        )
                    }
                    _ => (Op::Bin { at, op: *op }, nodes),
                }
            }
            KExpr::Un(op, x) => {
                let n = self.node(x, at);
                match self.imm(from, self.ops.len()) {
                    Some(v) => {
                        self.ops.truncate(from);
                        (
                            Op::Imm {
                                at,
                                v: apply_un(*op, v),
                            },
                            n + 1,
                        )
                    }
                    None => (Op::Un { at, op: *op }, n + 1),
                }
            }
            KExpr::Select(c, t, f) => {
                let nc = self.node(c, at);
                let nt = self.node(t, at + 1);
                let nf = self.node(f, at + 2);
                (Op::Select { at }, nc + nt + nf + 1)
            }
        };
        self.ops.push(op);
        nodes
    }
}
