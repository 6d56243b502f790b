//! A floor under the simulator's cost record and time.
//!
//! [`seconds_floor`] bounds from below, without running anything, the
//! counters the executor charges each parent kernel, and converts them to
//! time with [`kernel_time`] itself, so the charge rules live in
//! [`crate::flat`] and the pipe formulas in [`crate::cost`], once each.
//!
//! It walks each parent kernel's flat form once, with intervals in place
//! of lane values: thread and block indices range over the launch, sizes
//! and immediates are exact, loads are unknown, and a local keeps the
//! interval of its last straight-line assignment. The walk charges:
//!
//! * every warp of every block each top-level statement at its
//!   precomputed charge, and each load or shared access of its operands
//!   once — a warp runs with a nonzero mask, so every request it issues
//!   has a lane and costs at least one transaction;
//! * an `If` its condition, then the branch the condition's interval
//!   decides, else the cheaper of the two (at least one runs);
//! * a `For` one check, plus `trips × (body + check + step)` when its
//!   start and step are integer intervals (step ≥ 1), its end is bounded
//!   below, and its body can neither `Break` nor write the loop variable:
//!   every lane then makes at least `⌈(end.lo − start.hi) / step.hi⌉`
//!   trips, and a warp runs as many as its slowest lane;
//! * nothing after a statement through which a lane may `Break`;
//! * block-lockstep kernels the way `exec_block` charges them: scalar loop
//!   bounds and conditions once per block, every other statement once per
//!   warp, `__syncthreads` once per warp, and no statement charge for
//!   either.
//!
//! Child grids, mallocs, bank conflicts and atomic contention only add to
//! the executor's counters, so leaving them out keeps the floor below it.
//!
//! The walk's indices range over the whole launch, so what it charges one
//! block bounds every block of it.
//!
//! A loop whose bounds load an input no kernel writes (a CSR row pointer)
//! makes as many trips as the data says, which no interval can see. So
//! [`seconds_floor_with_inputs`], and a capped run
//! ([`run_program_capped`](crate::run_program_capped)) that its static
//! floor has not cut once its ceiling is finite, walk every block of a
//! kernel with such a loop again (a capped run only the blocks it has
//! still to run; the lane walk, in `lanes`), warp by warp in the
//! executor's order, with lane-exact values. The walk follows lane by lane
//! only statements that hold no `__syncthreads`, and reaches a loop at the
//! top of the kernel or in a branch of an `If`; a kernel where it reaches
//! no such loop is not walked:
//!
//! * thread and block indices, sizes and immediates are exact; a load from
//!   a buffer that no `Store` or `Atomic` of any parent or child kernel
//!   writes, and that starts as the caller's input array, reads that
//!   array's element; every other load, and every `Select`, is unknown; a
//!   lane's local keeps the value it was assigned, and a shared word the
//!   value an earlier statement of the block stored (a prefetched row
//!   pointer read back after a `__syncthreads`), both zero at the block's
//!   start;
//! * a loop whose bounds load such a buffer charges its check, plus its
//!   slowest active lane's trip count times the interval walk's floor of
//!   one trip at that point (body, check and step), or no trips when its
//!   active lanes step by different amounts — each lane's bounds are
//!   evaluated after forgetting what the body writes, so they hold at every
//!   check, and the warp runs until its slowest lane is done;
//! * an `If` that holds such a loop, or writes a value such bounds read,
//!   runs each branch on exactly its lanes, as the executor does, when
//!   every active lane knows its condition;
//! * every other statement, a `__syncthreads` and each statement holding
//!   one included, charges what the interval walk charged it, and forgets
//!   what it writes.
//!
//! Each block's floor is the larger, counter by counter, of the lane walk's
//! and the static per-block floor; a capped run prices the blocks it has
//! not run at the sum of their floors, kept as a suffix sum per block.

mod lanes;

use crate::cost::{kernel_time, KernelCost, KernelTime, LaunchShape};
use crate::exec::{starts, SimError, Start};
use crate::flat::{Body, Expr, FStmt, Flat, FlatKernel, Kind, Op};
use lanes::LaneWalk;
use multidim_codegen::KernelProgram;
use multidim_device::GpuSpec;
use multidim_ir::{ArrayId, BinOp, Bindings, UnOp};
use std::collections::HashMap;

/// The floor of one parent kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelFloor {
    /// The launch exactly as the executor runs it.
    pub shape: LaunchShape,
    /// At most the executor's counters: `warp_instr`, `mem_requests`,
    /// `smem_accesses` and `syncs` as walked, one transaction (and one
    /// segment of DRAM bytes) per request, the rest zero.
    pub cost: KernelCost,
    /// [`kernel_time`] of `cost` on `shape`: each term, and so the total,
    /// is at most the simulated kernel's.
    pub time: KernelTime,
}

/// The floor of every parent kernel of `kp` under `bindings`, in launch
/// order: a run of [`run_program`](crate::run_program) that succeeds
/// charges each kernel at least its floor's counters, so each kernel's
/// simulated time is at least its floor's, term by term.
///
/// # Errors
///
/// Returns [`SimError`] if a size of `kp` mentions an unbound symbol, as
/// [`run_program`](crate::run_program) does.
pub fn seconds_floor(
    kp: &KernelProgram,
    gpu: &GpuSpec,
    bindings: &Bindings,
) -> Result<Vec<KernelFloor>, SimError> {
    let flat = Flat::lower(kp, gpu, bindings)?;
    Ok(launch_floors(&flat, gpu)
        .into_iter()
        .map(|f| f.kernel)
        .collect())
}

/// [`seconds_floor`], raised by what the contents of `inputs` fix: the
/// trips of every loop the lane walk follows whose bounds load an input no
/// kernel writes, over every block (see the module notes: a loop that
/// holds no `__syncthreads`, at the top of its kernel or in a branch of an
/// `If` that holds none). A run of
/// [`run_program`](crate::run_program) on these inputs that succeeds
/// charges each kernel at least its floor's counters, and its floor is at
/// least [`seconds_floor`]'s, term by term. A kernel where the walk reaches
/// no such loop keeps [`seconds_floor`]'s floor.
///
/// # Errors
///
/// Returns [`SimError`] for unbound sizes and for missing or mis-sized
/// inputs, as [`run_program`](crate::run_program) does.
pub fn seconds_floor_with_inputs(
    kp: &KernelProgram,
    gpu: &GpuSpec,
    bindings: &Bindings,
    inputs: &HashMap<ArrayId, Vec<f64>>,
) -> Result<Vec<KernelFloor>, SimError> {
    let flat = Flat::lower(kp, gpu, bindings)?;
    let starts = starts(kp, &flat, inputs)?;
    let mut floors = launch_floors(&flat, gpu);
    let blocks = floors.first().map_or(0, |f| f.kernel.shape.blocks);
    read_inputs(&mut floors, &flat, (0, blocks), gpu, &starts);
    Ok(floors.into_iter().map(|f| f.kernel).collect())
}

/// The floor of one parent kernel, and of each of its blocks.
#[derive(Debug, Clone)]
pub(crate) struct LaunchFloor {
    /// The whole launch's floor.
    pub kernel: KernelFloor,
    /// What every block of the launch charges at least: the walk's thread
    /// and block indices range over the whole launch, and every block
    /// starts with its locals zeroed, so one walk bounds every block.
    per_block: Counts,
    /// Once the inputs are read ([`read_inputs`]): entry `j` floors the
    /// launch's last `j` blocks, for every `j` up to the blocks it had
    /// left then. Empty while every block's floor is `per_block`.
    suffix: Vec<Counts>,
}

impl LaunchFloor {
    /// `cost` plus the floors of the launch's last `left` blocks. Pricing
    /// a launch's counters so far with the blocks it has left this way
    /// bounds its final counters from below.
    pub(crate) fn with_blocks(&self, gpu: &GpuSpec, cost: &KernelCost, left: u64) -> KernelCost {
        let rest = self.suffix.get(left as usize).copied();
        rest.unwrap_or_else(|| self.per_block.times(left))
            .added_to(gpu, cost)
    }
}

/// The floor of every parent kernel of `flat`, in launch order: one walk
/// per kernel, shared by [`seconds_floor`] and the capped run's bound.
pub(crate) fn launch_floors(flat: &Flat<'_>, gpu: &GpuSpec) -> Vec<LaunchFloor> {
    let mut regs = vec![None; flat.slots];
    flat.kernels
        .iter()
        .map(|k| {
            let mut walk = Walk::new(flat, k, &mut regs, Vec::new());
            let mut per_block = Counts::default();
            if k.lockstep {
                walk.block(k.body, &mut per_block);
            } else {
                walk.warp(k.body, &mut per_block);
                per_block = per_block.times(u64::from(k.warps));
            }
            let shape = LaunchShape {
                blocks: k.grid.iter().product::<u64>(),
                block_threads: k.src.block_threads(),
                smem_bytes: k.src.smem_bytes(),
            };
            let cost = per_block
                .times(shape.blocks)
                .added_to(gpu, &KernelCost::default());
            LaunchFloor {
                kernel: KernelFloor {
                    shape,
                    cost,
                    time: kernel_time(gpu, &shape, &cost),
                },
                per_block,
                suffix: Vec::new(),
            }
        })
        .collect()
}

/// Raises `floors`, [`launch_floors`] of `flat`, from parent kernel `from`
/// on, block by block with the lane walk over the host arrays `starts`
/// gives the buffers no kernel writes (they hold them throughout), in
/// every kernel where the walk reaches a loop whose bounds load one (see
/// the module notes). Kernel `from` has only its last `left` blocks still
/// to run, and only those are walked; a kernel's floor prices its other
/// blocks at the static per-block floor. Each block's floor is the larger,
/// counter by counter, of the walk's and the static one. Returns whether
/// any kernel had such a loop.
pub(crate) fn read_inputs(
    floors: &mut [LaunchFloor],
    flat: &Flat<'_>,
    (from, left): (usize, u64),
    gpu: &GpuSpec,
    starts: &[Start<'_>],
) -> bool {
    let data = inputs(flat, starts);
    let mut read = false;
    for (i, (f, k)) in floors.iter_mut().zip(&flat.kernels).enumerate().skip(from) {
        if !bounds_read(flat, k.body, &data) {
            continue;
        }
        read = true;
        let mut walk = LaneWalk::new(flat, k, &data);
        let blocks = f.kernel.shape.blocks;
        let walked = if i == from { left.min(blocks) } else { blocks };
        let mut suffix = Vec::with_capacity(walked as usize + 1);
        suffix.push(Counts::default());
        for b in (blocks - walked..blocks).rev() {
            let c = walk.block_floor(&data, block_id(k.grid, b));
            suffix.push(c.most(f.per_block).plus(suffix[suffix.len() - 1]));
        }
        let all = suffix[walked as usize].plus(f.per_block.times(blocks - walked));
        f.kernel.cost = all.added_to(gpu, &KernelCost::default());
        f.kernel.time = kernel_time(gpu, &f.kernel.shape, &f.kernel.cost);
        f.suffix = suffix;
    }
    read
}

/// The host array each buffer no kernel writes starts as, `None` for the
/// others.
type Inputs<'d> = [Option<&'d [f64]>];

/// The host array each buffer of `flat` starts as, where no `Store` or
/// `Atomic` of any parent or child kernel writes it: a run reads it as it
/// started.
fn inputs<'d>(flat: &Flat<'_>, starts: &[Start<'d>]) -> Vec<Option<&'d [f64]>> {
    let host = starts.iter().map(|s| match *s {
        Start::Host(host) => Some(host),
        Start::Fill(_) => None,
    });
    let mut data: Vec<_> = host.collect();
    for s in &flat.stmts {
        if let Kind::Store { buf, .. } | Kind::Atomic { buf, .. } = s.kind {
            data[buf as usize] = None;
        }
    }
    data
}

/// Whether the lane walk follows `s` for its bounds: a loop that holds no
/// `__syncthreads` and whose start, end or step loads a buffer `data`
/// holds.
fn walked_loop(flat: &Flat<'_>, s: &FStmt, data: &Inputs<'_>) -> bool {
    let Kind::For {
        start, end, step, ..
    } = s.kind
    else {
        return false;
    };
    let loads = |e: Expr| {
        let ops = &flat.ops[e.start as usize..e.end as usize];
        ops.iter()
            .any(|op| matches!(*op, Op::Load { buf, .. } if data[buf as usize].is_some()))
    };
    !s.sync && [start, end, step].into_iter().any(loads)
}

/// Whether the lane walk reaches a loop it follows for its bounds
/// ([`walked_loop`]): at the top of `body`, or in a branch of an `If` that
/// holds no `__syncthreads`.
fn bounds_read(flat: &Flat<'_>, body: Body, data: &Inputs<'_>) -> bool {
    let stmts = &flat.stmts[body.0 as usize..body.1 as usize];
    stmts.iter().any(|s| match s.kind {
        Kind::If { then, els, .. } if !s.sync => {
            bounds_read(flat, then, data) || bounds_read(flat, els, data)
        }
        _ => walked_loop(flat, s, data),
    })
}

/// Block `b` of `grid` in launch order (x fastest, as the executor runs
/// them).
fn block_id(grid: [u64; 3], b: u64) -> [u32; 3] {
    [b % grid[0], b / grid[0] % grid[1], b / (grid[0] * grid[1])].map(|i| i as u32)
}

/// Lower bounds on the counters some execution charges.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    instr: u64,
    requests: u64,
    smem: u64,
    syncs: u64,
}

impl Counts {
    fn plus(self, o: Counts) -> Counts {
        Counts {
            instr: self.instr.saturating_add(o.instr),
            requests: self.requests.saturating_add(o.requests),
            smem: self.smem.saturating_add(o.smem),
            syncs: self.syncs.saturating_add(o.syncs),
        }
    }

    fn times(self, n: u64) -> Counts {
        Counts {
            instr: self.instr.saturating_mul(n),
            requests: self.requests.saturating_mul(n),
            smem: self.smem.saturating_mul(n),
            syncs: self.syncs.saturating_mul(n),
        }
    }

    /// `cost` with these counters added, saturating: one transaction
    /// (and one segment of DRAM bytes) per request.
    fn added_to(self, gpu: &GpuSpec, cost: &KernelCost) -> KernelCost {
        let bytes = self.requests.saturating_mul(gpu.transaction_bytes.max(1));
        KernelCost {
            warp_instr: cost.warp_instr.saturating_add(self.instr),
            mem_requests: cost.mem_requests.saturating_add(self.requests),
            transactions: cost.transactions.saturating_add(self.requests),
            dram_bytes: cost.dram_bytes.saturating_add(bytes),
            smem_accesses: cost.smem_accesses.saturating_add(self.smem),
            syncs: cost.syncs.saturating_add(self.syncs),
            ..*cost
        }
    }

    /// What both of two executions charge at least.
    fn least(self, o: Counts) -> Counts {
        Counts {
            instr: self.instr.min(o.instr),
            requests: self.requests.min(o.requests),
            smem: self.smem.min(o.smem),
            syncs: self.syncs.min(o.syncs),
        }
    }

    /// What an execution both of two floors bound charges at least.
    fn most(self, o: Counts) -> Counts {
        Counts {
            instr: self.instr.max(o.instr),
            requests: self.requests.max(o.requests),
            smem: self.smem.max(o.smem),
            syncs: self.syncs.max(o.syncs),
        }
    }
}

/// Every value a lane can hold: `None` when unknown (a load, a NaN, an
/// infinity); otherwise finite floats in `lo..=hi`, all integers when
/// `int`.
type Iv = Option<Range>;

#[derive(Debug, Clone, Copy, PartialEq)]
struct Range {
    lo: f64,
    hi: f64,
    int: bool,
}

/// Integers up to this magnitude add and compare exactly as `f64`.
const EXACT: f64 = (1u64 << 52) as f64;

impl Range {
    fn new(lo: f64, hi: f64, int: bool) -> Iv {
        (lo.is_finite() && hi.is_finite()).then_some(Range { lo, hi, int })
    }

    fn exact(v: f64) -> Iv {
        Range::new(v, v, v.fract() == 0.0)
    }

    /// `0..=n - 1`, the indices of an extent of `n ≥ 1`.
    fn index(n: u64) -> Iv {
        Range::new(0.0, (n - 1) as f64, true)
    }

    /// The smallest range holding both `a` and `b`.
    fn hull(a: Iv, b: Iv) -> Iv {
        let (a, b) = (a?, b?);
        Range::new(a.lo.min(b.lo), a.hi.max(b.hi), a.int && b.int)
    }

    /// The range of `f` over the box `x × y`, for `f` monotone in each
    /// argument on it: rounding is monotone, so the corners bound it.
    fn corners(x: Range, y: Range, int: bool, f: impl Fn(f64, f64) -> f64) -> Iv {
        let c = [f(x.lo, y.lo), f(x.lo, y.hi), f(x.hi, y.lo), f(x.hi, y.hi)];
        let lo = c.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = c.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Range::new(lo, hi, int)
    }
}

/// Whether every lane's value is nonzero (`Some(true)`), every lane's is
/// zero (`Some(false)`), or neither is known.
fn truth(v: Iv) -> Option<bool> {
    let r = v?;
    if r.lo > 0.0 || r.hi < 0.0 {
        Some(true)
    } else if r.lo == 0.0 && r.hi == 0.0 {
        Some(false)
    } else {
        None
    }
}

/// The range of a 0/1 result.
fn flag(v: Option<bool>) -> Iv {
    match v {
        Some(b) => Range::exact(f64::from(u8::from(b))),
        None => Range::new(0.0, 1.0, true),
    }
}

fn compare(op: BinOp, x: Iv, y: Iv) -> Option<bool> {
    let (x, y) = (x?, y?);
    let decide = |yes: bool, no: bool| (yes || no).then_some(yes);
    match op {
        BinOp::Lt => decide(x.hi < y.lo, x.lo >= y.hi),
        BinOp::Le => decide(x.hi <= y.lo, x.lo > y.hi),
        BinOp::Gt => decide(x.lo > y.hi, x.hi <= y.lo),
        BinOp::Ge => decide(x.lo >= y.hi, x.hi < y.lo),
        BinOp::Eq | BinOp::Ne => {
            let same = x.lo == x.hi && y.lo == y.hi && x.lo == y.lo;
            let apart = x.hi < y.lo || y.hi < x.lo;
            decide(same, apart).map(|eq| eq == (op == BinOp::Eq))
        }
        _ => None,
    }
}

/// `apply_bin` over ranges.
fn bin(op: BinOp, x: Iv, y: Iv) -> Iv {
    match op {
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
            return flag(compare(op, x, y))
        }
        BinOp::And => {
            return flag(match (truth(x), truth(y)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            })
        }
        BinOp::Or => {
            return flag(match (truth(x), truth(y)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            })
        }
        _ => {}
    }
    let (x, y) = (x?, y?);
    let int = x.int && y.int;
    match op {
        BinOp::Add => Range::new(x.lo + y.lo, x.hi + y.hi, int),
        BinOp::Sub => Range::new(x.lo - y.hi, x.hi - y.lo, int),
        BinOp::Mul => Range::corners(x, y, int, |a, b| a * b),
        BinOp::Div if y.lo > 0.0 || y.hi < 0.0 => Range::corners(x, y, false, |a, b| a / b),
        BinOp::Min => Range::new(x.lo.min(y.lo), x.hi.min(y.hi), int),
        BinOp::Max => Range::new(x.lo.max(y.lo), x.hi.max(y.hi), int),
        _ => None,
    }
}

/// `apply_un` over a range.
fn un(op: UnOp, x: Iv) -> Iv {
    if op == UnOp::Not {
        return flag(truth(x).map(|t| !t));
    }
    let x = x?;
    match op {
        UnOp::Neg => Range::new(-x.hi, -x.lo, x.int),
        UnOp::Floor => Range::new(x.lo.floor(), x.hi.floor(), true),
        UnOp::Abs if x.lo >= 0.0 => Some(x),
        UnOp::Abs if x.hi <= 0.0 => Range::new(-x.hi, -x.lo, x.int),
        UnOp::Abs => Range::new(0.0, x.hi.max(-x.lo), x.int),
        UnOp::Sqrt if x.lo >= 0.0 => Range::new(x.lo.sqrt(), x.hi.sqrt(), false),
        _ => None,
    }
}

/// The fewest trips any lane makes through `for (v = start; v < end;
/// v += step)`, and the range of `v` inside the body, when start and step
/// are exact integers, step ≥ 1, and end is bounded below.
fn trips(start: Iv, end: Iv, step: Iv) -> Option<(u64, Iv)> {
    let (s, e, st) = (start?, end?, step?);
    let small = [s.lo, s.hi, e.lo, e.hi, st.hi]
        .iter()
        .all(|v| v.abs() <= EXACT);
    if !(s.int && st.int && st.lo >= 1.0 && small) {
        return None;
    }
    // An integer `v` is below `end` exactly when it is below `⌈end⌉`.
    let (first, last) = (e.lo.ceil() as i64, e.hi.ceil() as i64 - 1);
    let (gap, by) = (first - s.hi as i64, st.hi as i64);
    let n = if gap > 0 { (gap + by - 1) / by } else { 0 };
    Some((n as u64, Range::new(s.lo, last as f64, true)))
}

/// One parent kernel's walk.
struct Walk<'a, 'p> {
    flat: &'a Flat<'p>,
    kernel: &'a FlatKernel<'p>,
    regs: &'a mut Vec<Iv>,
    locals: Vec<Iv>,
    /// Empty, or per statement of the flat form: what the walk charged it
    /// (for the lane walk).
    charged: Vec<Charged>,
}

/// What the interval walk charged one statement it reached.
#[derive(Debug, Clone, Copy, Default)]
struct Charged {
    /// One execution's floor (per warp; per block for a lockstep statement
    /// holding a `__syncthreads`), and whether the walk went on after it
    /// (no lane may have left through a `Break`).
    once: Option<(Counts, bool)>,
    /// For a loop whose body can neither `Break` nor write its variable:
    /// the floor of one trip (body, check and step; a lockstep loop's step
    /// is charged once, not per trip).
    trip: Option<Counts>,
}

impl<'a, 'p> Walk<'a, 'p> {
    /// The walk of `kernel`, whose blocks start with their locals zeroed.
    fn new(
        flat: &'a Flat<'p>,
        kernel: &'a FlatKernel<'p>,
        regs: &'a mut Vec<Iv>,
        charged: Vec<Charged>,
    ) -> Self {
        Walk {
            flat,
            kernel,
            regs,
            locals: vec![Range::exact(0.0); kernel.src.locals as usize],
            charged,
        }
    }

    /// The value of `e` (left in slot 0 for every operand walked for its
    /// value), charging its loads and shared accesses to `c`.
    fn eval(&mut self, e: Expr, c: &mut Counts) -> Iv {
        let k = self.kernel;
        for op in &self.flat.ops[e.start as usize..e.end as usize] {
            let (at, v) = match *op {
                Op::Imm { at, v } => (at, Range::exact(v)),
                Op::Local { at, local } => (at, self.locals[local as usize]),
                Op::Tid { at, axis } => {
                    let d = k.src.block[axis as usize].max(1);
                    (at, Range::index(u64::from(d)))
                }
                Op::Bid { at, axis } => (at, Range::index(k.grid[axis as usize])),
                Op::Gdim { at, axis } => (at, Range::exact(k.grid[axis as usize] as f64)),
                Op::Load { at, .. } => {
                    c.requests += 1;
                    (at, None)
                }
                Op::SmemLoad { at, .. } => {
                    c.smem += 1;
                    (at, None)
                }
                Op::Bin { at, op } => {
                    let i = at as usize;
                    (at, bin(op, self.regs[i], self.regs[i + 1]))
                }
                Op::Un { at, op } => (at, un(op, self.regs[at as usize])),
                Op::Select { at } => {
                    let i = at as usize;
                    let v = match truth(self.regs[i]) {
                        Some(true) => self.regs[i + 1],
                        Some(false) => self.regs[i + 2],
                        None => Range::hull(self.regs[i + 1], self.regs[i + 2]),
                    };
                    (at, v)
                }
            };
            self.regs[at as usize] = v;
        }
        self.regs[0]
    }

    /// One warp running `body` on a nonzero mask, as `exec_warp` does:
    /// adds its floor to `c`; `false` once a lane may have left through a
    /// `Break`, after which nothing counts.
    fn warp(&mut self, body: Body, c: &mut Counts) -> bool {
        (body.0..body.1).all(|i| self.warp_stmt(i, c))
    }

    fn warp_stmt(&mut self, i: u32, total: &mut Counts) -> bool {
        let s = self.flat.stmts[i as usize];
        // Counted apart and added saturating: a loop's trips can make the
        // total arbitrarily large.
        let mut own = Counts {
            instr: s.charge,
            ..Counts::default()
        };
        let c = &mut own;
        let go_on = match s.kind {
            Kind::Assign { dst, value } => {
                self.locals[dst as usize] = self.eval(value, c);
                true
            }
            Kind::Store { value, idx, .. } => {
                self.eval(value, c);
                self.eval(idx, c);
                c.requests += 1;
                true
            }
            Kind::Atomic {
                value,
                idx,
                capture,
                ..
            } => {
                self.eval(value, c);
                self.eval(idx, c);
                c.requests += 1;
                if let Some(l) = capture {
                    self.locals[l as usize] = None;
                }
                true
            }
            Kind::SmemStore { value, idx, .. } => {
                self.eval(value, c);
                self.eval(idx, c);
                c.smem += 1;
                true
            }
            Kind::For {
                var,
                start,
                end,
                step,
                ..
            } => {
                let from = self.eval(start, c);
                self.locals[var as usize] = from;
                self.for_loop(false, i, from, (end, step), c);
                true
            }
            Kind::Break => false,
            Kind::If { cond, then, els } => {
                let cond = self.eval(cond, c);
                self.branch(false, cond, then, els, c)
            }
            Kind::Sync => {
                c.syncs += 1;
                true
            }
            Kind::Malloc { bytes } => {
                self.eval(bytes, c);
                true
            }
            Kind::Launch { extent, args, .. } => {
                self.eval(extent, c);
                self.eval(args, c);
                true
            }
        };
        if let Some(rec) = self.charged.get_mut(i as usize) {
            rec.once = Some((own, go_on));
        }
        *total = total.plus(own);
        go_on
    }

    /// One block running `body` in lockstep, as `exec_block` does: a
    /// statement without `__syncthreads` runs on every warp's full mask
    /// (a `Break` in it ends only that statement), the others once per
    /// block with scalar bounds and conditions.
    fn block(&mut self, body: Body, total: &mut Counts) {
        let warps = u64::from(self.kernel.warps);
        for i in body.0..body.1 {
            let s = self.flat.stmts[i as usize];
            let mut own = Counts::default();
            let c = &mut own;
            if !s.sync {
                if !self.warp_stmt(i, c) {
                    // The walk stopped at a `Break` the executor steps
                    // over: forget what the rest of the statement writes.
                    let flat = self.flat;
                    each_assigned(flat, (i, i + 1), &mut |l| self.locals[l as usize] = None);
                }
                *total = total.plus(own.times(warps));
                continue;
            }
            match s.kind {
                Kind::Sync => c.syncs += warps,
                Kind::For {
                    start, end, step, ..
                } => {
                    c.instr += start.nodes;
                    let from = self.eval(start, c);
                    self.for_loop(true, i, from, (end, step), c);
                }
                Kind::If { cond, then, els } => {
                    c.instr += cond.nodes;
                    let cond = self.eval(cond, c);
                    self.branch(true, cond, then, els, c);
                }
                _ => {}
            }
            if let Some(rec) = self.charged.get_mut(i as usize) {
                rec.once = Some((own, true));
            }
            *total = total.plus(own);
        }
    }

    fn seq(&mut self, lockstep: bool, body: Body, c: &mut Counts) -> bool {
        if lockstep {
            self.block(body, c);
            true
        } else {
            self.warp(body, c)
        }
    }

    /// An `If` whose condition is `cond`: the decided branch, else the
    /// cheaper one, with the locals of the branch taken (the hull of both
    /// when undecided).
    fn branch(&mut self, lockstep: bool, cond: Iv, then: Body, els: Body, c: &mut Counts) -> bool {
        match truth(cond) {
            Some(true) => self.seq(lockstep, then, c),
            Some(false) => self.seq(lockstep, els, c),
            None => {
                let entry = self.locals.clone();
                let mut ct = Counts::default();
                let then_ok = self.seq(lockstep, then, &mut ct);
                let after_then = std::mem::replace(&mut self.locals, entry);
                let mut ce = Counts::default();
                let els_ok = self.seq(lockstep, els, &mut ce);
                for (l, t) in self.locals.iter_mut().zip(after_then) {
                    *l = Range::hull(*l, t);
                }
                *c = c.plus(ct.least(ce));
                then_ok && els_ok
            }
        }
    }

    /// Loop statement `i`, whose variable starts at `from`: its checks,
    /// and its trips when they can be bounded (see the module notes). A
    /// lockstep loop evaluates its step once and charges a check's
    /// operands only.
    fn for_loop(
        &mut self,
        lockstep: bool,
        i: u32,
        from: Iv,
        (end, step): (Expr, Expr),
        c: &mut Counts,
    ) {
        let Kind::For { var, body, .. } = self.flat.stmts[i as usize].kind else {
            unreachable!("statement {i} is a loop");
        };
        // Bounds evaluated later see whatever the body leaves in its
        // locals: forget those (and the variable) first.
        let flat = self.flat;
        let mut writes_var = false;
        self.locals[var as usize] = None;
        each_assigned(flat, body, &mut |l| {
            writes_var |= l == var;
            self.locals[l as usize] = None;
        });
        let mut check = Counts {
            instr: end.nodes + u64::from(!lockstep),
            ..Counts::default()
        };
        let mut advance = Counts {
            instr: step.nodes,
            ..Counts::default()
        };
        let to = self.eval(end, &mut check);
        let by = self.eval(step, &mut advance);
        let mut each = check;
        if lockstep {
            *c = c.plus(advance);
        } else {
            each = each.plus(advance);
        }
        *c = c.plus(check);
        if writes_var || can_break(flat, body) {
            return;
        }
        let (n, inside) = trips(from, to, by).unwrap_or((0, None));
        let record = !self.charged.is_empty();
        if n > 0 || record {
            // A loop no lane may enter walks its body with the variable
            // unknown, for the record.
            self.locals[var as usize] = if n > 0 { inside } else { None };
            let mut trip = Counts::default();
            self.seq(lockstep, body, &mut trip);
            *c = c.plus(trip.plus(each).times(n));
            if record {
                self.charged[i as usize].trip = Some(trip.plus(each));
            }
            each_assigned(flat, body, &mut |l| self.locals[l as usize] = None);
        }
        self.locals[var as usize] = None;
    }
}

/// Calls `f` with the index of every statement of `body`, nested bodies
/// included.
fn each_index(flat: &Flat<'_>, body: Body, f: &mut impl FnMut(u32)) {
    for i in body.0..body.1 {
        f(i);
        match flat.stmts[i as usize].kind {
            Kind::For { body, .. } => each_index(flat, body, f),
            Kind::If { then, els, .. } => {
                each_index(flat, then, f);
                each_index(flat, els, f);
            }
            _ => {}
        }
    }
}

/// Calls `f` with every statement of `body`, nested bodies included.
fn each_stmt(flat: &Flat<'_>, body: Body, f: &mut impl FnMut(&FStmt)) {
    each_index(flat, body, &mut |i| f(&flat.stmts[i as usize]));
}

/// Calls `f` with every local `body` may write, nested bodies included.
fn each_assigned(flat: &Flat<'_>, body: Body, f: &mut impl FnMut(u32)) {
    each_stmt(flat, body, &mut |s| match s.kind {
        Kind::Assign { dst, .. }
        | Kind::Atomic {
            capture: Some(dst), ..
        }
        | Kind::For { var: dst, .. } => f(dst),
        _ => {}
    });
}

/// Whether a lane may leave `body` through a `Break` (one inside a nested
/// loop ends only that loop).
fn can_break(flat: &Flat<'_>, body: Body) -> bool {
    flat.stmts[body.0 as usize..body.1 as usize]
        .iter()
        .any(|s| match s.kind {
            Kind::Break => true,
            Kind::If { then, els, .. } => can_break(flat, then) || can_break(flat, els),
            _ => false,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use multidim_ir::{apply_bin, apply_un};

    /// xorshift64*: a fixed, dependency-free sequence.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
        }

        /// A range around small integers, quarters, zero and large values.
        fn range(&mut self) -> Range {
            let scale = [1.0, 1.0, 0.25, 1e6][self.below(4) as usize];
            let lo = (self.below(21) as f64 - 10.0) * scale;
            let hi = lo + self.below(6) as f64 * scale;
            let int = lo.fract() == 0.0 && hi.fract() == 0.0 && self.below(2) == 0;
            Range { lo, hi, int }
        }

        /// A value `r` stands for: an endpoint or a point between them.
        fn value(&mut self, r: Range) -> f64 {
            let t = self.below(5) as f64 / 4.0;
            let v = r.lo + (r.hi - r.lo) * t;
            if r.int {
                v.floor().max(r.lo)
            } else {
                v
            }
        }
    }

    fn holds(r: Iv, v: f64) -> bool {
        r.is_none_or(|r| v >= r.lo && v <= r.hi && (!r.int || v.fract() == 0.0))
    }

    #[test]
    fn range_ops_hold_every_value_they_stand_for() {
        use BinOp::*;
        const BINS: [BinOp; 15] = [
            Add, Sub, Mul, Div, Rem, Min, Max, Lt, Le, Gt, Ge, Eq, Ne, And, Or,
        ];
        use UnOp::*;
        const UNS: [UnOp; 7] = [Neg, Not, Sqrt, Exp, Log, Abs, Floor];
        let mut rng = Rng(0x2545_f491_4f6c_dd1d);
        for _ in 0..20_000 {
            let (x, y) = (rng.range(), rng.range());
            let (a, b) = (rng.value(x), rng.value(y));
            for op in BINS {
                let r = bin(op, Some(x), Some(y));
                let v = apply_bin(op, a, b);
                assert!(
                    holds(r, v),
                    "{op:?}: {a} in {x:?}, {b} in {y:?} -> {v} outside {r:?}"
                );
            }
            for op in UNS {
                let (r, v) = (un(op, Some(x)), apply_un(op, a));
                assert!(holds(r, v), "{op:?}: {a} in {x:?} -> {v} outside {r:?}");
            }
            let c = rng.range();
            let picked = if rng.value(c) != 0.0 { a } else { b };
            let r = match truth(Some(c)) {
                Some(true) => Some(x),
                Some(false) => Some(y),
                None => Range::hull(Some(x), Some(y)),
            };
            assert!(holds(r, picked), "select: {picked} outside {r:?}");
        }
    }

    #[test]
    fn trips_never_exceed_a_lane_run() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for _ in 0..20_000 {
            let (start, end, mut step) = (rng.range(), rng.range(), rng.range());
            step.lo = step.lo.abs().max(1.0);
            step.hi = step.lo + (step.hi - step.lo).abs();
            let Some((n, inside)) = trips(Some(start), Some(end), Some(step)) else {
                continue;
            };
            if n > 100 {
                continue;
            }
            // One lane: its end and step may change between checks within
            // their ranges.
            let mut v = rng.value(start);
            let mut made = 0u64;
            while v < rng.value(end) && made <= n {
                assert!(holds(inside, v), "{v} outside {inside:?}");
                made += 1;
                v += rng.value(step);
            }
            assert!(
                made >= n,
                "{made} trips, floor {n}: {start:?} {end:?} {step:?}"
            );
        }
    }

    /// A capped run whose ceiling turns finite after some blocks walks only
    /// the blocks it has left, and prices them as a walk of every block
    /// does: each block's floor resets its locals and shared words, so the
    /// blocks are independent.
    #[test]
    fn walking_the_blocks_left_prices_them_as_walking_every_block() {
        use multidim_codegen::{Axis, BufId, BufferDecl, BufferInit, KExpr, Kernel, Stmt};
        use multidim_ir::Size;
        // A lane per row: `for (j = ptr[r]; j < ptr[r + 1]; j++) out[r] += j`
        // over 4 blocks of 32 rows whose degrees fall from 64, so each
        // block's slowest lane makes fewer trips than the block before.
        let rows = 128i64;
        let buffer = |name: &str, len: i64, init, array| BufferDecl {
            name: name.into(),
            elem_bytes: 4,
            len: Size::from(len),
            init,
            array: Some(ArrayId(array)),
        };
        let ptr = |idx: KExpr| KExpr::Load {
            buf: BufId(0),
            idx: Box::new(idx),
        };
        let row = KExpr::Local(0);
        let kernel = Kernel {
            name: "rows".into(),
            grid: [Size::from(rows / 32), Size::from(1), Size::from(1)],
            block: [32, 1, 1],
            smem: vec![],
            locals: 2,
            body: vec![
                Stmt::Assign {
                    dst: 0,
                    value: KExpr::global_tid(Axis::X),
                },
                Stmt::For {
                    var: 1,
                    start: ptr(row.clone()),
                    end: ptr(KExpr::add(row.clone(), KExpr::imm(1))),
                    step: KExpr::imm(1),
                    body: vec![Stmt::Store {
                        buf: BufId(1),
                        idx: row,
                        value: KExpr::Local(1),
                    }],
                },
            ],
        };
        let kp = KernelProgram {
            name: "t".into(),
            buffers: vec![
                buffer("ptr", rows + 1, BufferInit::FromArray(ArrayId(0)), 0),
                buffer("out", rows, BufferInit::Zero, 1),
            ],
            kernels: vec![kernel],
            children: vec![],
            notes: vec![],
        };
        let mut at = 0.0;
        let ptrs = (0..=rows).map(|r| {
            let here = at;
            at += (64 / (r / 8 + 1)) as f64;
            here
        });
        let inputs = HashMap::from([(ArrayId(0), ptrs.collect::<Vec<_>>())]);
        let gpu = GpuSpec::tesla_k20c();
        let flat = Flat::lower(&kp, &gpu, &Bindings::new()).expect("no sizes to bind");
        let starts = starts(&kp, &flat, &inputs).expect("inputs fit");
        let floors = |left| {
            let mut floors = launch_floors(&flat, &gpu);
            assert!(read_inputs(&mut floors, &flat, (0, left), &gpu, &starts));
            floors.remove(0)
        };
        let (every, none) = (floors(4), launch_floors(&flat, &gpu).remove(0));
        let cost = KernelCost::default();
        for left in 0..=4 {
            let some = floors(left);
            for l in 0..=left {
                assert_eq!(
                    some.with_blocks(&gpu, &cost, l),
                    every.with_blocks(&gpu, &cost, l),
                    "{l} of {left} blocks left"
                );
            }
            assert!(some.kernel.time.total <= every.kernel.time.total);
        }
        // The rows make the walk worth it: it prices the grid above the
        // static floor.
        assert!(every.kernel.time.total > none.kernel.time.total);
    }
}
