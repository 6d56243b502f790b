//! The lane walk: [`seconds_floor_with_inputs`](super::seconds_floor_with_inputs)'s
//! second pass over a kernel with a loop whose bounds load an input, one
//! block at a time, with lane-exact values (see the module notes of
//! [`floor`](super)).

use super::{
    can_break, each_assigned, each_index, each_stmt, walked_loop, Charged, Counts, Inputs, Walk,
    EXACT,
};
use crate::exec::{bin_on, full_mask, lanes, lanes_where, un_on, Lanes, Mask, W};
use crate::flat::{Body, Expr, Flat, FlatKernel, Kind, Op};

/// One warp's lane values: lane `l` holds `v[l]` where bit `l` of `known`
/// is set, and an unknown value elsewhere.
#[derive(Debug, Clone, Copy)]
struct Vals {
    v: Lanes,
    known: Mask,
}

impl Vals {
    /// Every lane zero, as a block's locals start.
    const ZERO: Vals = Vals {
        v: [0.0; W],
        known: Mask::MAX,
    };

    /// `v` on the lanes of `mask`.
    fn set(&mut self, v: f64, mask: Mask) {
        self.v.fill(v);
        self.known = mask;
    }
}

/// `v` as an index into `len` elements, where the executor accepts it.
/// (Rounding through [`EXACT`] and casts stand in for `fract` and `ceil`,
/// which are library calls on the baseline target.)
fn index(v: f64, len: usize) -> Option<usize> {
    ((v >= 0.0) & (v < len as f64) & exact_int(v)).then_some(v as i64 as usize)
}

/// `⌈v⌉` for `|v| ≤ 2 · EXACT`.
fn ceil(v: f64) -> f64 {
    let t = v as i64 as f64;
    if t < v {
        t + 1.0
    } else {
        t
    }
}

/// Whether `v` is an integer of magnitude at most [`EXACT`]: adding and
/// taking away `EXACT` rounds exactly such a magnitude to itself.
fn exact_int(v: f64) -> bool {
    let a = v.abs();
    (a <= EXACT) & ((a + EXACT) - EXACT == a)
}

/// The most trips a lane of `mask` makes through `for (v = s; v < e; v +=
/// st)`, over the lanes whose bounds are exact as [`trips`](super::trips)
/// needs them: integer `s` and `st ≥ 1`, all at most [`EXACT`]. Each lane
/// makes `⌈(⌈e⌉ − s) / st⌉` trips. Where every such lane steps by the same
/// `st`, as generated loops do, the slowest lane is the one with the
/// largest gap `⌈e⌉ − s = ⌈e − s⌉`, whose rounded difference and quotient
/// never exceed it; where they step by different amounts, none is counted.
/// The scan tests each lane without a cast.
fn warp_trips(s: &Lanes, e: &Lanes, st: &Lanes, mask: Mask) -> u64 {
    let by = st[mask.trailing_zeros() as usize % W];
    let (mut uniform, mut gap) = (true, f64::NEG_INFINITY);
    for l in 0..W {
        let ok = (mask >> l & 1 != 0)
            & exact_int(s[l])
            & exact_int(st[l])
            & (st[l] >= 1.0)
            & (e[l].abs() <= EXACT);
        uniform &= !ok | (st[l] == by);
        let g = e[l] - s[l];
        if ok & (g > gap) {
            gap = g;
        }
    }
    // With an exact lane and one step, `by` is that step.
    let most = if uniform && gap > f64::NEG_INFINITY {
        ceil(ceil(gap) / by)
    } else {
        0.0
    };
    most.max(0.0) as u64
}

/// How the lane walk takes one statement.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A straight-line statement: its charge, which no value changes, and
    /// whether it writes a relevant local or shared array.
    Fixed(Counts, bool),
    /// What the interval walk charged it; forget what it writes when that
    /// is relevant.
    Charged(bool),
    /// Lane by lane: a loop whose bounds load an input, or an `If` that
    /// holds one or writes something relevant, neither holding a
    /// `__syncthreads`; and whether a loop's body writes something
    /// relevant.
    Lanes(bool),
}

/// One parent kernel's lane walk (see the module notes), block by block.
///
/// It follows lane by lane only the statements that can raise the floor and
/// hold no `__syncthreads`: each loop whose bounds load a buffer `data`
/// holds, and each `If` that holds such a loop or writes a relevant value.
/// A local or shared array is *relevant* when the bounds or conditions the
/// walk follows read it, or when the assignment of a relevant local or a
/// store to a relevant array does. Every other statement charges what the
/// interval walk charged it (a statement holding a `__syncthreads`, once
/// per block), and the locals that are not relevant stay unknown.
pub(super) struct LaneWalk<'a, 'p> {
    flat: &'a Flat<'p>,
    kernel: &'a FlatKernel<'p>,
    /// Per statement of the flat form: how the walk takes it.
    plan: Vec<Option<Step>>,
    /// What the interval walk charged each statement it reached.
    charged: Vec<Charged>,
    /// The relevant locals, and the `(offset, length)` of the relevant
    /// shared arrays: what each block resets.
    relevant: (Vec<u32>, Vec<(u32, u32)>),
    /// The top-level statements each block walks, and what the others
    /// charge a block, the same for every block; every statement when a
    /// lane may leave the body through a `Break`.
    top: (Vec<u32>, Counts),
    bid: [u32; 3],
    /// Thread indices: `tids[axis * warps + warp]`.
    tids: Vec<Lanes>,
    /// The block's locals: `locals[local * warps + warp]`.
    locals: Vec<Vals>,
    /// The block's shared words, `None` where unknown.
    smem: Vec<Option<f64>>,
    regs: Vec<Vals>,
}

impl<'a, 'p> LaneWalk<'a, 'p> {
    pub(super) fn new(flat: &'a Flat<'p>, kernel: &'a FlatKernel<'p>, data: &Inputs<'_>) -> Self {
        let k = kernel;
        let warps = k.warps as usize;
        let [dx, dy, _] = k.src.block.map(|d| d.max(1) as usize);
        let mut tids = vec![[0.0; W]; 3 * warps];
        for t in 0..warps * W {
            let (w, l) = (t / W, t % W);
            tids[w][l] = (t % dx) as f64;
            tids[warps + w][l] = (t / dx % dy) as f64;
            tids[2 * warps + w][l] = (t / (dx * dy)) as f64;
        }
        let mut regs = vec![None; flat.slots];
        let mut walk = Walk::new(
            flat,
            k,
            &mut regs,
            vec![Charged::default(); flat.stmts.len()],
        );
        let mut whole = Counts::default();
        if k.lockstep {
            walk.block(k.body, &mut whole);
        } else {
            walk.warp(k.body, &mut whole);
        }
        let charged = walk.charged;

        // The relevant locals and shared arrays (by offset), and the
        // statements followed lane by lane, grown together to a fixed
        // point.
        let mut local = vec![false; k.src.locals as usize];
        let mut array = vec![false; k.smem_words + 1];
        let mut lanes = vec![false; flat.stmts.len()];
        let reads = |e: Expr, local: &mut Vec<bool>, array: &mut Vec<bool>| {
            let mut grew = false;
            for op in &flat.ops[e.start as usize..e.end as usize] {
                let seen = match *op {
                    Op::Local { local: l, .. } => &mut local[l as usize],
                    Op::SmemLoad { off, .. } => &mut array[off as usize],
                    _ => continue,
                };
                grew |= !*seen;
                *seen = true;
            }
            grew
        };
        let mut grew = true;
        while grew {
            grew = false;
            // Branches that write something relevant, or hold a loop
            // followed lane by lane, are followed too.
            each_index(flat, k.body, &mut |i| {
                let s = flat.stmts[i as usize];
                let follow = match s.kind {
                    Kind::If { then, els, .. } if !s.sync => {
                        holds(flat, then, &lanes)
                            || holds(flat, els, &lanes)
                            || writes(flat, then, &local, &array)
                            || writes(flat, els, &local, &array)
                    }
                    _ => walked_loop(flat, &s, data),
                };
                grew |= follow && !lanes[i as usize];
                lanes[i as usize] |= follow;
            });
            each_index(flat, k.body, &mut |i| match flat.stmts[i as usize].kind {
                Kind::For {
                    start, end, step, ..
                } if lanes[i as usize] => {
                    for e in [start, end, step] {
                        grew |= reads(e, &mut local, &mut array);
                    }
                }
                Kind::If { cond, .. } if lanes[i as usize] => {
                    grew |= reads(cond, &mut local, &mut array);
                }
                Kind::Assign { dst, value } if local[dst as usize] => {
                    grew |= reads(value, &mut local, &mut array);
                }
                Kind::SmemStore {
                    off, value, idx, ..
                } if array[off as usize] => {
                    grew |= reads(value, &mut local, &mut array);
                    grew |= reads(idx, &mut local, &mut array);
                }
                _ => {}
            });
        }

        let mut plan = vec![None; flat.stmts.len()];
        let mut arrays = Vec::new();
        each_index(flat, k.body, &mut |i| {
            let s = flat.stmts[i as usize];
            let mut c = Counts {
                instr: s.charge,
                ..Counts::default()
            };
            let mut operands = |e: Expr| {
                for op in &flat.ops[e.start as usize..e.end as usize] {
                    match op {
                        Op::Load { .. } => c.requests += 1,
                        Op::SmemLoad { .. } => c.smem += 1,
                        _ => {}
                    }
                }
            };
            let step = match s.kind {
                Kind::Assign { dst, value } => {
                    operands(value);
                    Step::Fixed(c, local[dst as usize])
                }
                Kind::Store { value, idx, .. } | Kind::Atomic { value, idx, .. } => {
                    operands(value);
                    operands(idx);
                    c.requests += 1;
                    let capture = matches!(s.kind, Kind::Atomic { capture: Some(l), .. } if local[l as usize]);
                    Step::Fixed(c, capture)
                }
                Kind::SmemStore {
                    off,
                    len,
                    value,
                    idx,
                } => {
                    operands(value);
                    operands(idx);
                    c.smem += 1;
                    if array[off as usize] && !arrays.contains(&(off, len)) {
                        arrays.push((off, len));
                    }
                    Step::Fixed(c, array[off as usize])
                }
                Kind::Malloc { bytes } => {
                    operands(bytes);
                    Step::Fixed(c, false)
                }
                Kind::Launch { extent, args, .. } => {
                    operands(extent);
                    operands(args);
                    Step::Fixed(c, false)
                }
                Kind::For { body, .. } if lanes[i as usize] => {
                    Step::Lanes(writes(flat, body, &local, &array))
                }
                _ if lanes[i as usize] => Step::Lanes(false),
                _ => Step::Charged(writes(flat, (i, i + 1), &local, &array)),
            };
            plan[i as usize] = Some(step);
        });
        let locals = (0..k.src.locals).filter(|&l| local[l as usize]).collect();
        let (warps64, mut top) = (u64::from(k.warps), (Vec::new(), Counts::default()));
        let breaks = can_break(flat, k.body);
        for i in k.body.0..k.body.1 {
            let s = flat.stmts[i as usize];
            let per_block = match (plan[i as usize], charged[i as usize].once) {
                _ if breaks => None,
                (Some(Step::Fixed(fixed, false)), _) => Some(fixed.times(warps64)),
                (Some(Step::Charged(false)), Some((once, true))) if s.sync => Some(once),
                (Some(Step::Charged(false)), Some((once, true))) => Some(once.times(warps64)),
                _ => None,
            };
            match per_block {
                Some(c) => top.1 = top.1.plus(c),
                None => top.0.push(i),
            }
        }
        LaneWalk {
            flat,
            kernel,
            plan,
            charged,
            relevant: (locals, arrays),
            top,
            bid: [0; 3],
            tids,
            // Locals that are not relevant stay unknown.
            locals: vec![
                Vals {
                    known: 0,
                    ..Vals::ZERO
                };
                k.src.locals as usize * warps
            ],
            smem: vec![None; k.smem_words],
            regs: vec![Vals::ZERO; flat.slots],
        }
    }

    /// The floor of block `bid`, which starts with its locals and shared
    /// words zeroed.
    pub(super) fn block_floor(&mut self, data: &Inputs<'_>, bid: [u32; 3]) -> Counts {
        self.bid = bid;
        let k = self.kernel;
        let warps = k.warps as usize;
        for &l in &self.relevant.0 {
            self.locals[l as usize * warps..(l as usize + 1) * warps].fill(Vals::ZERO);
        }
        for &(off, len) in &self.relevant.1 {
            self.smem[off as usize..(off + len) as usize].fill(Some(0.0));
        }
        let mut c = self.top.1;
        if k.lockstep {
            for j in 0..self.top.0.len() {
                self.block_stmt(data, self.top.0[j], &mut c);
            }
        } else {
            for w in 0..k.warps {
                let mask = full_mask(k.threads, w);
                for j in 0..self.top.0.len() {
                    if !self.stmt(data, self.top.0[j], w, mask, &mut c) {
                        break;
                    }
                }
            }
        }
        c
    }

    fn local(&mut self, local: u32, w: u32) -> &mut Vals {
        &mut self.locals[(local * self.kernel.warps + w) as usize]
    }

    /// Runs `e`'s ops on the lanes of `mask` of warp `w`, charging its
    /// loads and shared accesses to `c`, as `eval` does: the value of an
    /// operand lowered at slot `s` is left in `regs[s]`. Arithmetic runs on
    /// all 32 lanes, which cannot fault and vectorizes, and only the lanes
    /// of `mask` are known.
    fn eval(&mut self, data: &Inputs<'_>, e: Expr, w: u32, mask: Mask, c: &mut Counts) {
        let k = self.kernel;
        let (warps, w) = (k.warps as usize, w as usize);
        for op in &self.flat.ops[e.start as usize..e.end as usize] {
            match *op {
                Op::Imm { at, v } => self.regs[at as usize].set(v, mask),
                Op::Local { at, local } => {
                    let (x, r) = (
                        &self.locals[local as usize * warps + w],
                        &mut self.regs[at as usize],
                    );
                    (r.v, r.known) = (x.v, x.known & mask);
                }
                Op::Tid { at, axis } => {
                    let r = &mut self.regs[at as usize];
                    (r.v, r.known) = (self.tids[axis as usize * warps + w], mask);
                }
                Op::Bid { at, axis } => {
                    self.regs[at as usize].set(f64::from(self.bid[axis as usize]), mask);
                }
                Op::Gdim { at, axis } => {
                    self.regs[at as usize].set(k.grid[axis as usize] as f64, mask)
                }
                Op::Load { at, buf } => {
                    c.requests += 1;
                    let r = &mut self.regs[at as usize];
                    let words = data[buf as usize].unwrap_or_default();
                    let mut known = 0;
                    for l in lanes(mask & r.known) {
                        if let Some(&x) = index(r.v[l], words.len()).and_then(|i| words.get(i)) {
                            (r.v[l], known) = (x, known | 1 << l);
                        }
                    }
                    r.known = known;
                }
                Op::SmemLoad { at, off, len } => {
                    c.smem += 1;
                    let words = &self.smem[off as usize..(off + len) as usize];
                    let r = &mut self.regs[at as usize];
                    let mut known = 0;
                    for l in lanes(mask & r.known) {
                        if let Some(v) = index(r.v[l], words.len()).and_then(|i| words[i]) {
                            (r.v[l], known) = (v, known | 1 << l);
                        }
                    }
                    r.known = known;
                }
                Op::Bin { at, op } => {
                    let (x, rest) = self.regs[at as usize..].split_first_mut().expect("slot");
                    x.known &= rest[0].known & mask;
                    bin_on(op, &mut x.v, &rest[0].v, 0..W);
                }
                Op::Un { at, op } => {
                    let x = &mut self.regs[at as usize];
                    x.known &= mask;
                    un_on(op, &mut x.v, 0..W);
                }
                Op::Select { at } => self.regs[at as usize].known = 0,
            }
        }
    }

    /// Forgets, on the lanes of `mask` of warp `w`, every local `body` may
    /// write; and every shared array it may store, for the whole block.
    fn forget(&mut self, w: u32, mask: Mask, body: Body) {
        let flat = self.flat;
        each_assigned(flat, body, &mut |l| self.local(l, w).known &= !mask);
        each_stmt(flat, body, &mut |s| {
            if let Kind::SmemStore { off, len, .. } = s.kind {
                self.smem[off as usize..(off + len) as usize].fill(None);
            }
        });
    }

    /// What the interval walk charged statement `i` (see [`Charged`]), on
    /// warp `w`'s lanes of `mask` (every warp of the block when `w` is
    /// `None`), after which it forgets what the statement writes when
    /// `forget` is set. `false` where the interval walk stopped before it.
    fn charged(
        &mut self,
        i: u32,
        w: Option<u32>,
        mask: Mask,
        forget: bool,
        c: &mut Counts,
    ) -> bool {
        let Some((once, go_on)) = self.charged[i as usize].once else {
            return false;
        };
        *c = c.plus(once);
        if forget {
            let warps = w.map_or(0..self.kernel.warps, |w| w..w + 1);
            for w in warps {
                self.forget(w, mask, (i, i + 1));
            }
        }
        go_on
    }

    /// Warp `w` running `body` on exactly the lanes of `mask` (nonzero), as
    /// `exec_warp` does: adds its floor to `c`; `false` once a lane may
    /// have left through a `Break`, after which nothing counts.
    fn seq(&mut self, data: &Inputs<'_>, body: Body, w: u32, mask: Mask, c: &mut Counts) -> bool {
        (body.0..body.1).all(|i| self.stmt(data, i, w, mask, c))
    }

    fn stmt(&mut self, data: &Inputs<'_>, i: u32, w: u32, mask: Mask, c: &mut Counts) -> bool {
        let s = self.flat.stmts[i as usize];
        match self.plan[i as usize].expect("a statement of the kernel") {
            Step::Fixed(fixed, writes) => {
                *c = c.plus(fixed);
                if writes {
                    self.write(data, s.kind, w, mask);
                }
                true
            }
            Step::Charged(forget) => self.charged(i, Some(w), mask, forget, c),
            Step::Lanes(_) => match s.kind {
                Kind::For { .. } => {
                    *c = c.plus(Counts {
                        instr: s.charge,
                        ..Counts::default()
                    });
                    self.warp_loop(data, i, w, mask, c);
                    true
                }
                Kind::If { cond, then, els } => {
                    let mut own = Counts {
                        instr: s.charge,
                        ..Counts::default()
                    };
                    self.eval(data, cond, w, mask, &mut own);
                    let cv = &self.regs[0];
                    if cv.known & mask != mask {
                        return self.charged(i, Some(w), mask, true, c);
                    }
                    let t = lanes_where(mask, |l| cv.v[l] != 0.0);
                    let e = mask & !t;
                    *c = c.plus(own);
                    let then_ok = t == 0 || self.seq(data, then, w, t, c);
                    let els_ok = e == 0 || self.seq(data, els, w, e, c);
                    then_ok && els_ok
                }
                _ => unreachable!("only loops and branches are followed lane by lane"),
            },
        }
    }

    /// The relevant local or shared words a straight-line statement
    /// writes, on the lanes of `mask` of warp `w`.
    fn write(&mut self, data: &Inputs<'_>, kind: Kind, w: u32, mask: Mask) {
        let mut unused = Counts::default();
        match kind {
            Kind::Assign { dst, value } => {
                self.eval(data, value, w, mask, &mut unused);
                let at = (dst * self.kernel.warps + w) as usize;
                let (x, v) = (&mut self.locals[at], &self.regs[0]);
                if mask == Mask::MAX {
                    *x = *v;
                } else {
                    for l in lanes(mask) {
                        x.v[l] = v.v[l];
                    }
                    x.known = (x.known & !mask) | (v.known & mask);
                }
            }
            Kind::Atomic {
                capture: Some(l), ..
            } => self.local(l, w).known &= !mask,
            Kind::SmemStore {
                off,
                len,
                value,
                idx,
            } => {
                self.eval(data, value, w, mask, &mut unused);
                self.eval(data, idx, w, mask, &mut unused);
                let (v, ix) = (&self.regs[0], &self.regs[1]);
                // Lowest lane first, as the executor stores them.
                let words = &mut self.smem[off as usize..(off + len) as usize];
                for l in lanes(mask) {
                    if ix.known & 1 << l == 0 {
                        words.fill(None);
                    } else if let Some(at) = index(ix.v[l], words.len()) {
                        words[at] = (v.known & 1 << l != 0).then_some(v.v[l]);
                    }
                }
            }
            _ => {}
        }
    }

    /// Loop statement `i` of warp `w` on exactly the lanes of `mask`: its
    /// checks, and its slowest lane's trips times the interval walk's floor
    /// of one trip.
    fn warp_loop(&mut self, data: &Inputs<'_>, i: u32, w: u32, mask: Mask, c: &mut Counts) {
        let Kind::For {
            var,
            start,
            end,
            step,
            body,
        } = self.flat.stmts[i as usize].kind
        else {
            unreachable!("statement {i} is a loop");
        };
        self.eval(data, start, w, mask, c);
        let from = self.regs[0];
        // Bounds evaluated later see whatever the body leaves: forget it
        // (and the variable) first. Only relevant locals and arrays are
        // ever known.
        if let Some(Step::Lanes(true)) = self.plan[i as usize] {
            self.forget(w, mask, body);
        }
        self.local(var, w).known &= !mask;
        let mut check = Counts {
            instr: end.nodes + 1,
            ..Counts::default()
        };
        self.eval(data, end, w, mask, &mut check);
        let to = self.regs[0];
        let mut advance = Counts {
            instr: step.nodes,
            ..Counts::default()
        };
        self.eval(data, step, w, mask, &mut advance);
        let by = &self.regs[0];
        *c = c.plus(check);
        if let Some(trip) = self.charged[i as usize].trip {
            let known = mask & from.known & to.known & by.known;
            *c = c.plus(trip.times(warp_trips(&from.v, &to.v, &by.v, known)));
        }
    }

    /// Top-level statement `i` of a lockstep block, as `exec_block` runs
    /// it: once per block, as the interval walk charged it, when it holds a
    /// `__syncthreads`; else on every warp's full mask, where a `Break` ends
    /// only the statement.
    fn block_stmt(&mut self, data: &Inputs<'_>, i: u32, total: &mut Counts) {
        let k = self.kernel;
        if self.flat.stmts[i as usize].sync {
            let forget = matches!(self.plan[i as usize], Some(Step::Charged(true)));
            self.charged(i, None, Mask::MAX, forget, total);
            return;
        }
        for w in 0..k.warps {
            let mask = full_mask(k.threads, w);
            if !self.stmt(data, i, w, mask, total) {
                self.forget(w, mask, (i, i + 1));
            }
        }
    }
}

/// Whether `body` holds a statement `lanes` marks, nested bodies included.
fn holds(flat: &Flat<'_>, body: Body, lanes: &[bool]) -> bool {
    let mut found = false;
    each_index(flat, body, &mut |i| found |= lanes[i as usize]);
    found
}

/// Whether `body` may write a local or shared array marked relevant.
fn writes(flat: &Flat<'_>, body: Body, local: &[bool], array: &[bool]) -> bool {
    let mut found = false;
    each_assigned(flat, body, &mut |l| found |= local[l as usize]);
    each_stmt(flat, body, &mut |s| {
        if let Kind::SmemStore { off, .. } = s.kind {
            found |= array[off as usize];
        }
    });
    found
}
