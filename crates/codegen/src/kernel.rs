//! CUDA-like kernel IR.
//!
//! The code generator lowers a pattern program plus a mapping decision into
//! a [`KernelProgram`]: a set of device buffers and a sequence of kernel
//! launches. Kernels are structured statement trees over per-thread scalar
//! locals, global-buffer loads/stores (linear element indices), shared
//! memory, block synchronization, and atomics — exactly the vocabulary of
//! the paper's generated CUDA (Figure 9).
//!
//! The same IR is executed warp-synchronously by `multidim-sim` and
//! pretty-printed as CUDA C by [`crate::emit_cuda`].

use multidim_ir::{ArrayId, BinOp, ReduceOp, Size, UnOp};

/// Identifier of a device buffer within a [`KernelProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufId(pub u32);

/// How a buffer is initialized before the first launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BufferInit {
    /// Zero-filled.
    Zero,
    /// Copied from the program array with the same id (host input,
    /// required).
    FromArray(ArrayId),
    /// Seeded from the host when provided (in-place algorithms), else
    /// zero-filled.
    FromArrayOrZero(ArrayId),
    /// Filled with a constant (reduction identities).
    Fill(f64),
}

/// A device buffer declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferDecl {
    /// Diagnostic name.
    pub name: String,
    /// Element width in bytes (drives coalescing/bandwidth accounting).
    pub elem_bytes: u64,
    /// Element count (symbolic; evaluated with the launch bindings).
    pub len: Size,
    /// Initialization.
    pub init: BufferInit,
    /// The program array this buffer materializes, if any (used to copy
    /// results back to the host).
    pub array: Option<ArrayId>,
}

/// Hardware axes of the thread hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Fastest-varying: lanes of a warp differ in x first.
    X,
    /// Second axis.
    Y,
    /// Third axis.
    Z,
}

impl Axis {
    /// Axis for a logical dimension index (0 = x).
    ///
    /// # Panics
    ///
    /// Panics for indices ≥ 3 (the code generator restricts nests to three
    /// parallel dimensions, like CUDA itself).
    pub fn from_index(i: u8) -> Axis {
        match i {
            0 => Axis::X,
            1 => Axis::Y,
            2 => Axis::Z,
            other => panic!("no hardware axis for logical dimension {other}"),
        }
    }

    /// 0, 1 or 2.
    pub fn index(self) -> usize {
        match self {
            Axis::X => 0,
            Axis::Y => 1,
            Axis::Z => 2,
        }
    }

    /// CUDA member name (`x`/`y`/`z`).
    pub fn name(self) -> &'static str {
        match self {
            Axis::X => "x",
            Axis::Y => "y",
            Axis::Z => "z",
        }
    }
}

/// Identifier of a per-thread scalar local (a "register").
pub type LocalId = u32;

/// Identifier of a shared-memory array within a kernel.
pub type SmemId = u32;

/// A kernel-level scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum KExpr {
    /// Immediate constant.
    Imm(f64),
    /// Per-thread local.
    Local(LocalId),
    /// `threadIdx.<axis>`.
    Tid(Axis),
    /// `blockIdx.<axis>`.
    Bid(Axis),
    /// `blockDim.<axis>`.
    Bdim(Axis),
    /// `gridDim.<axis>`.
    Gdim(Axis),
    /// The launch-time value of a symbolic size (passed as a kernel
    /// parameter in real CUDA).
    SizeVal(Size),
    /// Global load at a linear element index.
    Load {
        /// Source buffer.
        buf: BufId,
        /// Linear element index.
        idx: Box<KExpr>,
    },
    /// Shared-memory load.
    SmemLoad {
        /// Shared array.
        arr: SmemId,
        /// Element index.
        idx: Box<KExpr>,
    },
    /// Binary operation.
    Bin(BinOp, Box<KExpr>, Box<KExpr>),
    /// Unary operation.
    Un(UnOp, Box<KExpr>),
    /// Pure conditional value (both sides evaluated; no lane divergence).
    Select(Box<KExpr>, Box<KExpr>, Box<KExpr>),
}

// `add`/`mul`/`sub`/`div` are two-argument AST constructors, not in-place
// arithmetic; implementing the `std::ops` traits would change their shape.
#[allow(clippy::should_implement_trait)]
impl KExpr {
    /// `a + b`
    pub fn add(a: KExpr, b: KExpr) -> KExpr {
        KExpr::Bin(BinOp::Add, Box::new(a), Box::new(b))
    }
    /// `a * b`
    pub fn mul(a: KExpr, b: KExpr) -> KExpr {
        KExpr::Bin(BinOp::Mul, Box::new(a), Box::new(b))
    }
    /// `a - b`
    pub fn sub(a: KExpr, b: KExpr) -> KExpr {
        KExpr::Bin(BinOp::Sub, Box::new(a), Box::new(b))
    }
    /// `a / b`
    pub fn div(a: KExpr, b: KExpr) -> KExpr {
        KExpr::Bin(BinOp::Div, Box::new(a), Box::new(b))
    }
    /// `min(a, b)`
    pub fn min(a: KExpr, b: KExpr) -> KExpr {
        KExpr::Bin(BinOp::Min, Box::new(a), Box::new(b))
    }
    /// `max(a, b)`
    pub fn max(a: KExpr, b: KExpr) -> KExpr {
        KExpr::Bin(BinOp::Max, Box::new(a), Box::new(b))
    }
    /// `a < b`
    pub fn lt(a: KExpr, b: KExpr) -> KExpr {
        KExpr::Bin(BinOp::Lt, Box::new(a), Box::new(b))
    }
    /// `a <= b`
    pub fn le(a: KExpr, b: KExpr) -> KExpr {
        KExpr::Bin(BinOp::Le, Box::new(a), Box::new(b))
    }
    /// `a >= b`
    pub fn ge(a: KExpr, b: KExpr) -> KExpr {
        KExpr::Bin(BinOp::Ge, Box::new(a), Box::new(b))
    }
    /// `a == b`
    pub fn eq(a: KExpr, b: KExpr) -> KExpr {
        KExpr::Bin(BinOp::Eq, Box::new(a), Box::new(b))
    }
    /// `a && b`
    pub fn and(a: KExpr, b: KExpr) -> KExpr {
        KExpr::Bin(BinOp::And, Box::new(a), Box::new(b))
    }
    /// Global thread index along `axis`: `blockIdx*blockDim + threadIdx`.
    pub fn global_tid(axis: Axis) -> KExpr {
        KExpr::add(
            KExpr::mul(KExpr::Bid(axis), KExpr::Bdim(axis)),
            KExpr::Tid(axis),
        )
    }
    /// Integer immediate helper.
    pub fn imm(v: i64) -> KExpr {
        KExpr::Imm(v as f64)
    }
}

/// A kernel statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `local = value`.
    Assign {
        /// Destination local.
        dst: LocalId,
        /// Value.
        value: KExpr,
    },
    /// Global store `buf[idx] = value`.
    Store {
        /// Destination buffer.
        buf: BufId,
        /// Linear element index.
        idx: KExpr,
        /// Stored value.
        value: KExpr,
    },
    /// Atomic `buf[idx] = op(buf[idx], value)`; when `capture` is set, the
    /// *old* value is written to that local (compaction counters).
    AtomicRmw {
        /// Destination buffer.
        buf: BufId,
        /// Linear element index.
        idx: KExpr,
        /// Combine.
        op: ReduceOp,
        /// Operand.
        value: KExpr,
        /// Local receiving the pre-update value.
        capture: Option<LocalId>,
    },
    /// Shared store `smem[idx] = value`.
    SmemStore {
        /// Destination shared array.
        arr: SmemId,
        /// Element index.
        idx: KExpr,
        /// Stored value.
        value: KExpr,
    },
    /// `for (var = start; var < end; var += step) body` — `step` must be
    /// positive.
    For {
        /// Loop variable local.
        var: LocalId,
        /// Initial value.
        start: KExpr,
        /// Exclusive bound.
        end: KExpr,
        /// Increment.
        step: KExpr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// Exit the innermost enclosing `For` (per lane).
    Break,
    /// `if (cond) then else els` (lane-divergent allowed).
    If {
        /// Condition (non-zero = taken).
        cond: KExpr,
        /// Then branch.
        then: Vec<Stmt>,
        /// Else branch.
        els: Vec<Stmt>,
    },
    /// `__syncthreads()`.
    Sync,
    /// Models a per-thread device-heap allocation of `bytes` — pure cost
    /// (the Figure 16 "Malloc" baseline); storage itself is preassigned.
    DeviceMalloc {
        /// Allocation size in bytes.
        bytes: KExpr,
    },
    /// Device-side kernel launch (CUDA dynamic parallelism): the executing
    /// thread launches `kernel` (an index into
    /// [`KernelProgram::children`]) over `ceil(extent / child.block)`
    /// one-dimensional blocks. `args` are evaluated in the launching
    /// thread and become the child's locals `0..args.len()` (uniform
    /// across all child threads — kernel parameters). An `extent ≤ 0`
    /// launches nothing. Child grids execute after the parent kernel's
    /// body completes (fire-and-forget semantics: the parent must not
    /// read what the child writes).
    ChildLaunch {
        /// Index into [`KernelProgram::children`].
        kernel: u32,
        /// Total child threads wanted (grid = `ceil(extent / block)`).
        extent: KExpr,
        /// Launch arguments, copied into child locals `0..n`.
        args: Vec<KExpr>,
    },
}

/// A shared-memory array declaration (element = 8-byte slot).
#[derive(Debug, Clone, PartialEq)]
pub struct SmemDecl {
    /// Diagnostic name.
    pub name: String,
    /// Element count (must be launch-constant).
    pub len: u32,
}

/// One kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Diagnostic name.
    pub name: String,
    /// Blocks along each hardware axis (symbolic; launch-evaluated).
    pub grid: [Size; 3],
    /// Threads per block along each hardware axis.
    pub block: [u32; 3],
    /// Shared-memory arrays.
    pub smem: Vec<SmemDecl>,
    /// Number of per-thread locals.
    pub locals: u32,
    /// Body statements.
    pub body: Vec<Stmt>,
}

impl Kernel {
    /// Threads per block.
    pub fn block_threads(&self) -> u32 {
        self.block.iter().product()
    }

    /// Shared-memory bytes per block (8-byte slots).
    pub fn smem_bytes(&self) -> u32 {
        self.smem.iter().map(|s| s.len * 8).sum()
    }

    /// Does the body contain a `Sync` (forces block-lockstep simulation)?
    pub fn has_sync(&self) -> bool {
        has_sync(&self.body)
    }
}

/// Does `stmts` contain a `Sync` at any depth?
pub(crate) fn has_sync(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Sync => true,
        Stmt::For { body, .. } => has_sync(body),
        Stmt::If { then, els, .. } => has_sync(then) || has_sync(els),
        _ => false,
    })
}

/// A compiled program: buffers plus an ordered list of kernels to launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProgram {
    /// Diagnostic name (usually the source program's).
    pub name: String,
    /// Device buffers.
    pub buffers: Vec<BufferDecl>,
    /// Kernels, launched in order.
    pub kernels: Vec<Kernel>,
    /// Device-launchable child kernels, referenced by
    /// [`Stmt::ChildLaunch`]. A child's `grid` field is ignored — the
    /// grid is computed per launch from the site's `extent` — and its
    /// leading locals are filled from the launch arguments.
    pub children: Vec<Kernel>,
    /// Human-readable notes from lowering (demotions, layout choices).
    pub notes: Vec<String>,
}

impl KernelProgram {
    /// The declaration of `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not declared.
    pub fn buffer(&self, buf: BufId) -> &BufferDecl {
        &self.buffers[buf.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_round_trip() {
        for i in 0..3u8 {
            assert_eq!(Axis::from_index(i).index(), i as usize);
        }
        assert_eq!(Axis::X.name(), "x");
    }

    #[test]
    #[should_panic(expected = "no hardware axis")]
    fn axis_limit() {
        Axis::from_index(3);
    }

    #[test]
    fn kernel_queries() {
        let k = Kernel {
            name: "t".into(),
            grid: [Size::from(4), Size::from(1), Size::from(1)],
            block: [32, 4, 1],
            smem: vec![SmemDecl {
                name: "s".into(),
                len: 128,
            }],
            locals: 2,
            body: vec![Stmt::Sync],
        };
        assert_eq!(k.block_threads(), 128);
        assert_eq!(k.smem_bytes(), 1024);
        assert!(k.has_sync());
    }

    #[test]
    fn sync_detection_descends() {
        let k = Kernel {
            name: "t".into(),
            grid: [Size::from(1), Size::from(1), Size::from(1)],
            block: [32, 1, 1],
            smem: vec![],
            locals: 1,
            body: vec![Stmt::For {
                var: 0,
                start: KExpr::imm(0),
                end: KExpr::imm(4),
                step: KExpr::imm(1),
                body: vec![Stmt::If {
                    cond: KExpr::imm(1),
                    then: vec![Stmt::Sync],
                    els: vec![],
                }],
            }],
        };
        assert!(k.has_sync());
    }

    #[test]
    fn global_tid_shape() {
        let e = KExpr::global_tid(Axis::Y);
        assert!(matches!(e, KExpr::Bin(BinOp::Add, _, _)));
    }
}
