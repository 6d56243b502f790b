//! A static floor under the simulator's cost record and time.
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
//! block bounds every block of it. A capped run
//! ([`run_program_capped`](crate::run_program_capped)) walks its own flat
//! form once and prices the blocks it has not run yet at that per-block
//! floor.

use crate::cost::{kernel_time, KernelCost, KernelTime, LaunchShape};
use crate::exec::SimError;
use crate::flat::{Body, Expr, Flat, FlatKernel, Kind, Op};
use multidim_codegen::KernelProgram;
use multidim_device::GpuSpec;
use multidim_ir::{BinOp, Bindings, UnOp};

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

/// The floor of one parent kernel, and of each of its blocks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaunchFloor {
    /// The whole launch's floor.
    pub kernel: KernelFloor,
    /// What every block of the launch charges at least: the walk's thread
    /// and block indices range over the whole launch, and every block
    /// starts with its locals zeroed, so one walk bounds every block.
    per_block: Counts,
}

impl LaunchFloor {
    /// `cost` plus the floors of `blocks` more blocks. Pricing a launch's
    /// counters so far with the blocks it has left this way bounds its
    /// final counters from below.
    pub(crate) fn with_blocks(&self, gpu: &GpuSpec, cost: &KernelCost, blocks: u64) -> KernelCost {
        self.per_block.times(blocks).added_to(gpu, cost)
    }
}

/// The floor of every parent kernel of `flat`, in launch order: one walk
/// per kernel, shared by [`seconds_floor`] and the capped run's bound.
pub(crate) fn launch_floors(flat: &Flat<'_>, gpu: &GpuSpec) -> Vec<LaunchFloor> {
    let mut regs = vec![None; flat.slots];
    flat.kernels
        .iter()
        .map(|k| {
            let mut walk = Walk {
                flat,
                kernel: k,
                regs: &mut regs,
                // Every block starts with its locals zeroed.
                locals: vec![Range::exact(0.0); k.src.locals as usize],
            };
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
            }
        })
        .collect()
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
}

impl Walk<'_, '_> {
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
                body,
            } => {
                let from = self.eval(start, c);
                self.locals[var as usize] = from;
                self.for_loop(false, var, from, (end, step), body, c);
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
                    var,
                    start,
                    end,
                    step,
                    body,
                } => {
                    c.instr += start.nodes;
                    let from = self.eval(start, c);
                    self.for_loop(true, var, from, (end, step), body, c);
                }
                Kind::If { cond, then, els } => {
                    c.instr += cond.nodes;
                    let cond = self.eval(cond, c);
                    self.branch(true, cond, then, els, c);
                }
                _ => {}
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

    /// A loop whose variable `var` starts at `from`: its checks, and its
    /// trips when they can be bounded (see the module notes). A lockstep
    /// loop evaluates its step once and charges a check's operands only.
    fn for_loop(
        &mut self,
        lockstep: bool,
        var: u32,
        from: Iv,
        (end, step): (Expr, Expr),
        body: Body,
        c: &mut Counts,
    ) {
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
        let Some((n, inside)) = trips(from, to, by) else {
            return;
        };
        if n > 0 {
            self.locals[var as usize] = inside;
            let mut trip = Counts::default();
            self.seq(lockstep, body, &mut trip);
            *c = c.plus(trip.plus(each).times(n));
            each_assigned(flat, body, &mut |l| self.locals[l as usize] = None);
        }
        self.locals[var as usize] = None;
    }
}

/// Calls `f` with every local `body` may write, nested bodies included.
fn each_assigned(flat: &Flat<'_>, body: Body, f: &mut impl FnMut(u32)) {
    for s in &flat.stmts[body.0 as usize..body.1 as usize] {
        match s.kind {
            Kind::Assign { dst, .. }
            | Kind::Atomic {
                capture: Some(dst), ..
            } => f(dst),
            Kind::For { var, body, .. } => {
                f(var);
                each_assigned(flat, body, f);
            }
            Kind::If { then, els, .. } => {
                each_assigned(flat, then, f);
                each_assigned(flat, els, f);
            }
            _ => {}
        }
    }
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
}
