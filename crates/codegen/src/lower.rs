//! Lowering: pattern nest × mapping decision → kernels (Section IV-E).
//!
//! Each nest level's loop structure is selected by its span:
//!
//! * `Span(1)` — one index per thread: `idx = blockIdx*blockDim + threadIdx`
//!   with a bounds guard;
//! * `Span(n)` — `n` indices per thread, block-strided so lanes stay
//!   coalesced;
//! * `Span(all)` — one block covers the dimension:
//!   `for (idx = threadIdx; idx < extent; idx += blockDim)` (Figure 9
//!   line 8);
//! * `Split(k)` — the `Span(all)` loop restricted to section
//!   `blockIdx`, with per-section partials merged by a follow-up
//!   *combiner kernel*.
//!
//! Reductions parallelized within a block combine per-thread partials with
//! a shared-memory tree (Figure 9 line 13); stores at non-innermost levels
//! are guarded by `threadIdx.d == 0` of the inner parallel dimensions
//! (Figure 9 line 15). The Section V optimizations (temporary
//! preallocation with mapping-directed layout; shared-memory prefetch of
//! outer-level reads) are applied here, controlled by [`CodegenOptions`].

use crate::kernel::{
    has_sync, Axis, BufId, BufferDecl, BufferInit, KExpr, Kernel, KernelProgram, LocalId, SmemDecl,
    Stmt,
};
use multidim_ir::{
    ArrayId, ArrayRole, BinOp, Body, Effect, Expr, Pattern, PatternKind, Program, ReadSrc,
    ReduceOp, Size, UnOp, VarId,
};
use multidim_mapping::{LevelMapping, MappingDecision, Span};
use std::collections::HashMap;
use std::fmt;

/// Physical layout of a preallocated temporary (Figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TempLayout {
    /// `addr = uid * N + j` — instance-major (Figure 11a: offset `m·N`,
    /// stride 1); coalesced when the *inner* index is on dimension x.
    RowMajor,
    /// `addr = j * U + uid` — element-interleaved (Figure 11b: offset `m`,
    /// stride `N`); coalesced when the *outer* index is on dimension x.
    ColMajor,
}

/// How temporary layouts are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LayoutPolicy {
    /// Choose from the mapping (Section V-A): whichever of the producing
    /// pattern's indices sits on dimension x gets stride 1.
    #[default]
    Auto,
    /// Always instance-major (the fixed strategy of Figure 16's middle
    /// bar).
    ForceRowMajor,
    /// Always interleaved.
    ForceColMajor,
}

/// Code-generation switches (the Section V optimizations).
#[derive(Debug, Clone, PartialEq)]
pub struct CodegenOptions {
    /// Temporary layout policy.
    pub layout: LayoutPolicy,
    /// Model a per-thread device `malloc` for each temporary instance
    /// instead of preallocation (Figure 16's worst-case baseline).
    pub device_malloc: bool,
    /// Stage stride-1 outer-level reads through shared memory
    /// (Section V-B).
    pub smem_prefetch: bool,
    /// Per-block shared-memory budget in bytes. A prefetch that would push
    /// the kernel's footprint past the budget is skipped (with a traced
    /// reason) instead of producing a kernel the device cannot launch —
    /// the driver sets this from the target's `smem_per_sm`, turning the
    /// analyzer's footprint proof into a lowering decision. `None` =
    /// unlimited.
    pub smem_budget: Option<u32>,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions {
            layout: LayoutPolicy::Auto,
            device_malloc: false,
            smem_prefetch: true,
            smem_budget: None,
        }
    }
}

/// Lowering failure (unsupported shape for code generation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError(pub String);

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering error: {}", self.0)
    }
}

impl std::error::Error for LowerError {}

/// Lower `program` under `mapping` into a [`KernelProgram`].
///
/// # Errors
///
/// Returns [`LowerError`] for shapes outside the generator's coverage:
/// nests deeper than three parallel levels, collection-valued expressions
/// that are not `let`-bound, temporaries under dynamic extents, or `Filter`
/// / `GroupBy` patterns below the root.
pub fn lower(
    program: &Program,
    mapping: &MappingDecision,
    opts: &CodegenOptions,
) -> Result<KernelProgram, LowerError> {
    if mapping.depth() > 3 {
        return Err(LowerError(format!(
            "nest depth {} exceeds the 3 hardware dimensions",
            mapping.depth()
        )));
    }
    // `Split(k)` is only executable when the reduce's result goes straight
    // to an output (the combiner kernel finishes it). Reduces whose results
    // are consumed by further in-kernel computation are demoted to
    // `Span(all)`.
    let (mapping, demotion_notes) = demote_consumed_splits(program, mapping);
    let mut lo = Lowerer::new(program, mapping.levels(), opts);
    lo.notes.extend(demotion_notes);

    let mut body = Vec::new();
    lo.lower_root(&mut body)?;

    // Prepend the shared-memory prefetch preamble, if any was requested.
    let mut full = std::mem::take(&mut lo.preamble);
    full.extend(body);

    let mut grid = [Size::from(1), Size::from(1), Size::from(1)];
    let mut block = [1u32, 1, 1];
    for (lvl, lm) in mapping.levels().iter().enumerate() {
        let axis = Axis::from_index(lm.dim.0);
        let extent = level_extent_size(program, lvl);
        grid[axis.index()] = match lm.span {
            Span::Span(n) => extent / Size::from(lm.block_size as i64 * n.max(1)),
            Span::All => Size::from(1),
            Span::Split(k) => Size::from(k.max(1)),
        };
        block[axis.index()] = lm.block_size.max(1);
    }

    let main = Kernel {
        name: format!("{}_kernel", program.name),
        grid,
        block,
        smem: std::mem::take(&mut lo.smem),
        locals: lo.next_local,
        body: full,
    };

    let mut kernels = vec![main];
    kernels.append(&mut lo.combiners);

    Ok(KernelProgram {
        name: program.name.clone(),
        buffers: lo.buffers,
        kernels,
        children: vec![],
        notes: lo.notes,
    })
}

/// Replace `Split(k)` with `Span(all)` on levels whose reduce results are
/// consumed in-kernel (anything but a root reduce or a root-map-chain body
/// reduce).
fn demote_consumed_splits(
    program: &Program,
    mapping: &MappingDecision,
) -> (MappingDecision, Vec<String>) {
    // Levels whose reduce can store straight to the output.
    let mut storeable = Vec::new();
    let mut p = &program.root;
    let mut level = 0usize;
    loop {
        match &p.kind {
            PatternKind::Reduce { .. } => {
                storeable.push(level);
                break;
            }
            PatternKind::Map => match &p.body {
                Body::Value(Expr::Pat(inner)) => {
                    p = inner;
                    level += 1;
                }
                _ => break,
            },
            _ => break,
        }
    }

    let mut out = mapping.clone();
    let mut notes = Vec::new();
    // Find every reduce level in the program.
    let mut reduce_levels = Vec::new();
    program.root.visit_patterns(&mut |pat, lvl| {
        if matches!(pat.kind, PatternKind::Reduce { .. }) {
            reduce_levels.push(lvl);
        }
    });
    for lvl in reduce_levels {
        if lvl < out.depth()
            && matches!(out.level(lvl).span, Span::Split(_))
            && !storeable.contains(&lvl)
        {
            out.level_mut(lvl).span = Span::All;
            notes.push(format!(
                "level {lvl} reduce result consumed in-kernel: split demoted to span(all)"
            ));
        }
    }
    (out, notes)
}

/// Will this program's kernel contain `__syncthreads`? True when some
/// construct that lowers to a block-level exchange (a reduce parallelized
/// within the block, or a materialized temporary) coexists with
/// multi-thread blocks.
fn needs_clamp(program: &Program, levels: &[LevelMapping]) -> bool {
    let mut sync_construct = false;
    program.root.visit_patterns(&mut |p, lvl| {
        if matches!(p.kind, PatternKind::Reduce { .. })
            && levels.get(lvl).is_some_and(|lm| lm.block_size > 1)
        {
            sync_construct = true;
        }
    });
    if !sync_construct {
        // Materialized temporaries insert a sync when their level is
        // block-parallel; detect let-bound maps conservatively.
        let any_block_parallel = levels.iter().any(|lm| lm.block_size > 1);
        if any_block_parallel {
            program.root.visit_exprs(&mut |e| {
                if let Expr::Let(_, val, _) = e {
                    if matches!(&**val, Expr::Pat(p) if matches!(p.kind, PatternKind::Map)) {
                        sync_construct = true;
                    }
                }
            });
        }
    }
    sync_construct
}

/// The representative static extent of a nest level (for grid sizing).
fn level_extent_size(program: &Program, level: usize) -> Size {
    let mut found = None;
    program.root.visit_patterns(&mut |p, lvl| {
        if lvl == level && found.is_none() {
            found = Some(p.size.clone());
        }
    });
    found.unwrap_or(Size::Const(1))
}

#[derive(Debug, Clone)]
struct TempInfo {
    buf: BufId,
    /// Logical inner extent N.
    inner: Size,
    /// Instance id expression (linearized enclosing indices).
    uid: KExpr,
    /// Total instance count U.
    uid_count: Size,
    layout: TempLayout,
}

#[derive(Debug, Clone)]
struct ChainLink {
    var: VarId,
    idx: LocalId,
    extent: Size,
}

/// The code generator's state while it lowers one program: the scalar
/// half (expressions, addresses, lets, effects, buffers) and the nest
/// half (levels under the mapping, reductions, temporaries, prefetch).
/// The consolidated launch-site kernels use the scalar half under no
/// nest levels.
pub(crate) struct Lowerer<'p> {
    pub(crate) program: &'p Program,
    /// The mapping of each nest level, outermost first.
    levels: &'p [LevelMapping],
    opts: &'p CodegenOptions,
    pub(crate) buffers: Vec<BufferDecl>,
    combiners: Vec<Kernel>,
    pub(crate) notes: Vec<String>,
    pub(crate) next_local: u32,
    smem: Vec<SmemDecl>,
    pub(crate) vars: HashMap<VarId, KExpr>,
    temps: HashMap<VarId, TempInfo>,
    /// Enclosing pattern levels at the current lowering point. Where the
    /// root maps' outputs are stored, it holds exactly those maps.
    chain: Vec<ChainLink>,
    /// Arrays already staged through shared memory: array -> smem id.
    prefetched: HashMap<ArrayId, u32>,
    /// Kernel-top statements (prefetch loads + sync).
    preamble: Vec<Stmt>,
    /// When the kernel will contain `__syncthreads`, bounds guards cannot
    /// wrap it (divergent sync is undefined behaviour): out-of-range
    /// threads are instead *clamped* to a valid index and every store is
    /// predicated on the conditions below.
    clamp_mode: bool,
    /// Validity predicates of the enclosing clamped levels.
    valid_conds: Vec<KExpr>,
}

/// One opened nest level: allocated locals and its extent.
struct LevelFrame {
    level: usize,
    idx: LocalId,
    /// Unclamped position local (clamp mode only).
    raw: Option<LocalId>,
    extent: KExpr,
}

impl<'p> Lowerer<'p> {
    /// A lowerer of `program` under the per-level mapping `levels`, with a
    /// device buffer declared for each of the program's arrays.
    pub(crate) fn new(
        program: &'p Program,
        levels: &'p [LevelMapping],
        opts: &'p CodegenOptions,
    ) -> Self {
        let buffers = program
            .arrays
            .iter()
            .map(|decl| BufferDecl {
                name: decl.name.clone(),
                elem_bytes: decl.elem.bytes(),
                len: decl
                    .shape
                    .iter()
                    .fold(Size::from(1), |len, d| len * d.clone()),
                init: match decl.role {
                    ArrayRole::Input => BufferInit::FromArray(decl.id),
                    // Outputs/temps may be seeded by the host (in-place updates).
                    _ => BufferInit::FromArrayOrZero(decl.id),
                },
                array: Some(decl.id),
            })
            .collect();
        Lowerer {
            program,
            levels,
            opts,
            buffers,
            combiners: Vec::new(),
            notes: Vec::new(),
            next_local: 0,
            smem: Vec::new(),
            vars: HashMap::new(),
            temps: HashMap::new(),
            chain: Vec::new(),
            prefetched: HashMap::new(),
            preamble: Vec::new(),
            clamp_mode: needs_clamp(program, levels),
            valid_conds: Vec::new(),
        }
    }

    pub(crate) fn fresh_local(&mut self) -> LocalId {
        let l = self.next_local;
        self.next_local += 1;
        l
    }

    fn fresh_smem(&mut self, name: impl Into<String>, len: u32) -> u32 {
        let id = self.smem.len() as u32;
        self.smem.push(SmemDecl {
            name: name.into(),
            len,
        });
        id
    }

    pub(crate) fn add_buffer(&mut self, name: String, len: Size, init: BufferInit) -> BufId {
        let id = BufId(self.buffers.len() as u32);
        self.buffers.push(BufferDecl {
            name,
            elem_bytes: 8,
            len,
            init,
            array: None,
        });
        id
    }

    fn level_axis(&self, level: usize) -> Axis {
        Axis::from_index(self.levels[level].dim.0)
    }

    fn lower_root(&mut self, sink: &mut Vec<Stmt>) -> Result<(), LowerError> {
        let root = &self.program.root;
        match &root.kind {
            PatternKind::Map => self.lower_map(root, 0, sink),
            PatternKind::Reduce { op } => {
                let out = self.out_buf()?;
                self.lower_reduce_into(root, 0, *op, out, sink)
            }
            PatternKind::Foreach => self.lower_foreach(root, 0, sink),
            PatternKind::Filter { .. } => self.lower_filter_root(root, sink),
            PatternKind::GroupBy { .. } => self.lower_groupby_root(root, sink),
        }
    }

    pub(crate) fn out_buf(&self) -> Result<BufId, LowerError> {
        let out = self
            .program
            .output
            .ok_or_else(|| LowerError("program has no output array".into()))?;
        Ok(BufId(out.0))
    }

    /// The extent of a pattern as a kernel expression (handles dynamic
    /// extents by lowering their defining expression).
    fn extent_expr(&mut self, p: &'p Pattern, sink: &mut Vec<Stmt>) -> Result<KExpr, LowerError> {
        match &p.dyn_extent {
            Some(e) => self.lower_expr(e, sink),
            None => Ok(KExpr::SizeVal(p.size.clone())),
        }
    }

    /// Lower `p`'s loop at nest level `level` over `extent` into `sink`:
    /// open the level, bind `p`'s index variable and push it on the chain,
    /// lower the body with `body` (given the index local), then close the
    /// level around that body and unbind.
    fn in_level(
        &mut self,
        p: &'p Pattern,
        level: usize,
        extent: KExpr,
        sink: &mut Vec<Stmt>,
        body: impl FnOnce(&mut Self, LocalId, &mut Vec<Stmt>) -> Result<(), LowerError>,
    ) -> Result<(), LowerError> {
        let frame = self.begin_level(level, extent);
        let idx = frame.idx;
        self.vars.insert(p.var, KExpr::Local(idx));
        self.chain.push(ChainLink {
            var: p.var,
            idx,
            extent: p.size.clone(),
        });
        let mut stmts = Vec::new();
        body(self, idx, &mut stmts)?;
        let wrapped = self.end_level(frame, stmts)?;
        sink.extend(wrapped);
        self.chain.pop();
        self.vars.remove(&p.var);
        Ok(())
    }

    /// Open nest level `level`: allocate its index local (and, in clamp
    /// mode, the raw-position local whose validity predicate guards every
    /// store generated while the level is open).
    fn begin_level(&mut self, level: usize, extent: KExpr) -> LevelFrame {
        let idx = self.fresh_local();
        let lm = &self.levels[level];
        let raw = if self.clamp_mode && matches!(lm.span, Span::Span(_)) {
            let r = self.fresh_local();
            self.valid_conds
                .push(KExpr::lt(KExpr::Local(r), extent.clone()));
            Some(r)
        } else {
            None
        };
        LevelFrame {
            level,
            idx,
            raw,
            extent,
        }
    }

    /// Close a level opened with [`Self::begin_level`], wrapping `body` in
    /// the span's loop structure.
    fn end_level(&mut self, frame: LevelFrame, body: Vec<Stmt>) -> Result<Vec<Stmt>, LowerError> {
        if frame.raw.is_some() {
            self.valid_conds.pop();
        }
        let lm = self.levels[frame.level].clone();
        let axis = Axis::from_index(lm.dim.0);
        // A span(all)/split loop with block_size > 1 starts at threadIdx —
        // lane-dependent bounds, so a __syncthreads inside would deadlock.
        // With block_size == 1 the loop is uniform (threadIdx is always 0
        // on that axis) and syncs from deeper levels are fine.
        if matches!(lm.span, Span::All | Span::Split(_)) && lm.block_size > 1 && has_sync(&body) {
            return Err(LowerError(
                "block synchronization nested inside a parallel span(all)/split loop is unsupported"
                    .into(),
            ));
        }
        let (idx, extent) = (frame.idx, frame.extent);
        // idx = min(raw, max(extent-1, 0)) — out-of-range threads compute a
        // duplicate valid index so they can participate in block syncs;
        // their stores are predicated off by the validity condition.
        let clamp = |raw: LocalId| {
            KExpr::min(
                KExpr::Local(raw),
                KExpr::max(KExpr::sub(extent.clone(), KExpr::imm(1)), KExpr::imm(0)),
            )
        };
        Ok(match lm.span {
            Span::Span(1) => match frame.raw {
                Some(raw) => {
                    let mut out = vec![
                        Stmt::Assign {
                            dst: raw,
                            value: KExpr::global_tid(axis),
                        },
                        Stmt::Assign {
                            dst: idx,
                            value: clamp(raw),
                        },
                    ];
                    out.extend(body);
                    out
                }
                None => vec![
                    Stmt::Assign {
                        dst: idx,
                        value: KExpr::global_tid(axis),
                    },
                    Stmt::If {
                        cond: KExpr::lt(KExpr::Local(idx), extent),
                        then: body,
                        els: vec![],
                    },
                ],
            },
            Span::Span(n) => {
                // Block-strided: block b covers [b*B*n, (b+1)*B*n); thread t
                // handles positions t, B+t, 2B+t, … within the chunk.
                let i = self.fresh_local();
                let base = KExpr::mul(
                    KExpr::Bid(axis),
                    KExpr::mul(KExpr::Bdim(axis), KExpr::imm(n)),
                );
                let pos = KExpr::add(
                    KExpr::add(base, KExpr::mul(KExpr::Local(i), KExpr::Bdim(axis))),
                    KExpr::Tid(axis),
                );
                let inner = match frame.raw {
                    Some(raw) => {
                        let mut v = vec![
                            Stmt::Assign {
                                dst: raw,
                                value: pos,
                            },
                            Stmt::Assign {
                                dst: idx,
                                value: clamp(raw),
                            },
                        ];
                        v.extend(body);
                        v
                    }
                    None => vec![
                        Stmt::Assign {
                            dst: idx,
                            value: pos,
                        },
                        Stmt::If {
                            cond: KExpr::lt(KExpr::Local(idx), extent),
                            then: body,
                            els: vec![],
                        },
                    ],
                };
                vec![Stmt::For {
                    var: i,
                    start: KExpr::imm(0),
                    end: KExpr::imm(n),
                    step: KExpr::imm(1),
                    body: inner,
                }]
            }
            Span::All => {
                // With one thread on this axis the loop is plain
                // sequential iteration; emit constant bounds so validation
                // (and real hardware) can see it is uniform.
                let (start, step) = if lm.block_size <= 1 {
                    (KExpr::imm(0), KExpr::imm(1))
                } else {
                    (KExpr::Tid(axis), KExpr::Bdim(axis))
                };
                vec![Stmt::For {
                    var: idx,
                    start,
                    end: extent,
                    step,
                    body,
                }]
            }
            Span::Split(k) => {
                // Section s covers [s*S, min((s+1)*S, extent)) where
                // S = ceil(extent / k); k is the grid size on this axis.
                let section = match extent {
                    KExpr::SizeVal(ref s) => KExpr::SizeVal(s.clone() / Size::from(k.max(1))),
                    ref other => {
                        // ceil(e / k) for a runtime extent.
                        let kk = KExpr::imm(k.max(1));
                        KExpr::Un(
                            UnOp::Floor,
                            Box::new(KExpr::div(
                                KExpr::add(other.clone(), KExpr::sub(kk.clone(), KExpr::imm(1))),
                                kk,
                            )),
                        )
                    }
                };
                let lane = if lm.block_size <= 1 {
                    KExpr::imm(0)
                } else {
                    KExpr::Tid(axis)
                };
                let start = KExpr::add(KExpr::mul(KExpr::Bid(axis), section.clone()), lane);
                let end = KExpr::min(
                    KExpr::mul(KExpr::add(KExpr::Bid(axis), KExpr::imm(1)), section),
                    extent,
                );
                vec![Stmt::For {
                    var: idx,
                    start,
                    end,
                    step: KExpr::Bdim(axis),
                    body,
                }]
            }
        })
    }

    /// `threadIdx.d == 0` guards for every parallel level strictly deeper
    /// than `level` (Figure 9 line 15).
    fn inner_guard(&self, level: usize) -> Option<KExpr> {
        let mut cond: Option<KExpr> = None;
        for lm in self.levels.iter().skip(level + 1) {
            if lm.block_size > 1 {
                let axis = Axis::from_index(lm.dim.0);
                let c = KExpr::eq(KExpr::Tid(axis), KExpr::imm(0));
                cond = Some(match cond {
                    Some(prev) => KExpr::and(prev, c),
                    None => c,
                });
            }
        }
        cond
    }

    /// Predicate `stmts` (stores/atomics) on: deeper parallel dimensions'
    /// lane-0 guards *and* the validity conditions of every enclosing
    /// clamped level.
    fn guarded(&self, level: usize, stmts: Vec<Stmt>) -> Vec<Stmt> {
        let mut cond = self.inner_guard(level);
        for c in &self.valid_conds {
            cond = Some(match cond {
                Some(prev) => KExpr::and(prev, c.clone()),
                None => c.clone(),
            });
        }
        match cond {
            Some(cond) => vec![Stmt::If {
                cond,
                then: stmts,
                els: vec![],
            }],
            None => stmts,
        }
    }

    // ------------------------------------------------------------------
    // Map
    // ------------------------------------------------------------------

    fn lower_map(
        &mut self,
        p: &'p Pattern,
        level: usize,
        sink: &mut Vec<Stmt>,
    ) -> Result<(), LowerError> {
        let extent = self.extent_expr(p, sink)?;
        self.in_level(p, level, extent, sink, |this, _, body| {
            let Body::Value(value) = &p.body else {
                return Err(LowerError("map with effect body".into()));
            };
            if let Expr::Pat(inner) = value {
                match &inner.kind {
                    // Directly nested map: extend the output chain.
                    PatternKind::Map => return this.lower_map(inner, level + 1, body),
                    // Direct reduce body: store via the split-capable path
                    // so `ControlDOP`'s `Split(k)` choice is honored
                    // (sumRows/sumCols).
                    PatternKind::Reduce { op } => {
                        let out = this.out_buf()?;
                        return this.lower_reduce_into(inner, level + 1, *op, out, body);
                    }
                    _ => {}
                }
            }
            let v = this.lower_expr(value, body)?;
            this.store_root(level, v, body)
        })
    }

    /// Store a scalar at the current root-map position.
    fn store_root(
        &mut self,
        level: usize,
        value: KExpr,
        sink: &mut Vec<Stmt>,
    ) -> Result<(), LowerError> {
        let out = self.out_buf()?;
        let idx = linearize(&self.chain);
        let st = vec![Stmt::Store {
            buf: out,
            idx,
            value,
        }];
        let guarded = self.guarded(level, st);
        sink.extend(guarded);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Reduce
    // ------------------------------------------------------------------

    /// Lower a reduce whose (broadcast) result is consumed in-kernel.
    fn lower_reduce_value(
        &mut self,
        p: &'p Pattern,
        level: usize,
        op: ReduceOp,
        sink: &mut Vec<Stmt>,
    ) -> Result<KExpr, LowerError> {
        // `demote_consumed_splits` guarantees consumed reduces never split.
        debug_assert!(
            !matches!(self.levels[level].span, Span::Split(_)),
            "consumed reduce at level {level} still has Split"
        );
        Ok(KExpr::Local(self.reduce_local(p, level, op, sink)?))
    }

    /// Lower a reduce stored directly to `out` at the root-map position
    /// (root reduce or root-map body); supports `Split(k)` via a combiner
    /// kernel.
    fn lower_reduce_into(
        &mut self,
        p: &'p Pattern,
        level: usize,
        op: ReduceOp,
        out: BufId,
        sink: &mut Vec<Stmt>,
    ) -> Result<(), LowerError> {
        let reduced = self.reduce_local(p, level, op, sink)?;
        let lm = self.levels[level].clone();
        let axis = self.level_axis(level);
        let (buf, idx) = match lm.span {
            Span::Split(k) => {
                // Per-section partials, then a combiner kernel.
                let k = k.max(1);
                let uid_count = chain_count(&self.chain);
                let partial = self.add_buffer(
                    format!("{}_partials", self.program.name),
                    uid_count.clone() * Size::from(k),
                    BufferInit::Fill(op.identity()),
                );
                self.emit_combiner(op, partial, out, uid_count.clone(), k);
                let uid = linearize(&self.chain);
                (
                    partial,
                    KExpr::add(KExpr::mul(uid, KExpr::imm(k)), KExpr::Bid(axis)),
                )
            }
            _ => (out, linearize(&self.chain)),
        };
        let store = vec![Stmt::Store {
            buf,
            idx,
            value: KExpr::Local(reduced),
        }];
        // One lane of the reduce dimension stores; deeper parallel dims
        // and enclosing validity are handled by guarded().
        let stmts = if lm.block_size > 1 {
            vec![Stmt::If {
                cond: KExpr::eq(KExpr::Tid(axis), KExpr::imm(0)),
                then: store,
                els: vec![],
            }]
        } else {
            store
        };
        let guarded = self.guarded(level, stmts);
        sink.extend(guarded);
        Ok(())
    }

    /// A reduce's per-thread accumulation and, when its level is
    /// block-parallel, the block's tree combine: the local holding the
    /// result.
    fn reduce_local(
        &mut self,
        p: &'p Pattern,
        level: usize,
        op: ReduceOp,
        sink: &mut Vec<Stmt>,
    ) -> Result<LocalId, LowerError> {
        let acc = self.accumulate_local(p, level, op, sink)?;
        Ok(if self.levels[level].block_size > 1 {
            self.block_tree_reduce(level, op, acc, sink)
        } else {
            acc
        })
    }

    /// The per-thread accumulation loop of a reduce.
    fn accumulate_local(
        &mut self,
        p: &'p Pattern,
        level: usize,
        op: ReduceOp,
        sink: &mut Vec<Stmt>,
    ) -> Result<LocalId, LowerError> {
        let extent = self.extent_expr(p, sink)?;
        let acc = self.fresh_local();
        sink.push(Stmt::Assign {
            dst: acc,
            value: KExpr::Imm(op.identity()),
        });
        self.in_level(p, level, extent, sink, |this, _, body| {
            let Body::Value(value) = &p.body else {
                return Err(LowerError("reduce with effect body".into()));
            };
            let v = this.lower_expr(value, body)?;
            body.push(Stmt::Assign {
                dst: acc,
                value: combine(op, KExpr::Local(acc), v),
            });
            Ok(())
        })?;
        Ok(acc)
    }

    /// Shared-memory tree combine across the block dimension of `level`
    /// (Figure 9 line 13); returns a local holding the broadcast result.
    fn block_tree_reduce(
        &mut self,
        level: usize,
        op: ReduceOp,
        acc: LocalId,
        sink: &mut Vec<Stmt>,
    ) -> LocalId {
        let lm = self.levels[level].clone();
        let axis = Axis::from_index(lm.dim.0);
        let block_threads: u32 = self.levels.iter().map(|l| l.block_size).product();
        let smem = self.fresh_smem(format!("red_l{level}"), block_threads.max(1));

        // Warp-synchronous shortcut (the paper's "well known warp
        // synchronous programming technique", Figure 9's omitted body):
        // when the combine stays within one warp — the reduce dimension is
        // x with at most 32 lanes — no block barrier is needed.
        let warp_sync = axis == Axis::X && lm.block_size <= 32;
        let sync = |sink: &mut Vec<Stmt>| {
            if !warp_sync {
                sink.push(Stmt::Sync);
            }
        };

        // Flat slot = tid.x + tid.y*Bx + tid.z*Bx*By over the *mapped* axes.
        let (slot, stride_d) = self.flat_slot_and_stride(axis);

        sink.push(Stmt::SmemStore {
            arr: smem,
            idx: slot.clone(),
            value: KExpr::Local(acc),
        });
        sync(sink);

        let mut s = lm.block_size / 2;
        while s >= 1 {
            let partner = KExpr::add(slot.clone(), KExpr::imm((s * stride_d) as i64));
            sink.push(Stmt::If {
                cond: KExpr::lt(KExpr::Tid(axis), KExpr::imm(s as i64)),
                then: vec![Stmt::SmemStore {
                    arr: smem,
                    idx: slot.clone(),
                    value: combine(
                        op,
                        KExpr::SmemLoad {
                            arr: smem,
                            idx: Box::new(slot.clone()),
                        },
                        KExpr::SmemLoad {
                            arr: smem,
                            idx: Box::new(partner),
                        },
                    ),
                }],
                els: vec![],
            });
            sync(sink);
            s /= 2;
        }

        // Broadcast: every thread reads the slot with tid_d = 0.
        let base = KExpr::sub(
            slot,
            KExpr::mul(KExpr::Tid(axis), KExpr::imm(stride_d as i64)),
        );
        let res = self.fresh_local();
        sink.push(Stmt::Assign {
            dst: res,
            value: KExpr::SmemLoad {
                arr: smem,
                idx: Box::new(base),
            },
        });
        res
    }

    /// Flattened thread slot within the block and the flat stride of
    /// `axis` (x fastest).
    fn flat_slot_and_stride(&self, axis: Axis) -> (KExpr, u32) {
        let mut dims = [1u32; 3];
        for lm in self.levels {
            dims[Axis::from_index(lm.dim.0).index()] = lm.block_size.max(1);
        }
        let (bx, by) = (dims[0], dims[1]);
        let slot = KExpr::add(
            KExpr::Tid(Axis::X),
            KExpr::add(
                KExpr::mul(KExpr::Tid(Axis::Y), KExpr::imm(bx as i64)),
                KExpr::mul(KExpr::Tid(Axis::Z), KExpr::imm((bx * by) as i64)),
            ),
        );
        let stride = match axis {
            Axis::X => 1,
            Axis::Y => bx,
            Axis::Z => bx * by,
        };
        (slot, stride)
    }

    /// Combiner kernel: `out[u] = op-fold of partial[u*k .. u*k+k]`.
    fn emit_combiner(&mut self, op: ReduceOp, partial: BufId, out: BufId, uid_count: Size, k: i64) {
        let u = 0; // local ids are per-kernel
        let j = 1;
        let acc = 2;
        let body = vec![
            Stmt::Assign {
                dst: u,
                value: KExpr::global_tid(Axis::X),
            },
            Stmt::If {
                cond: KExpr::lt(KExpr::Local(u), KExpr::SizeVal(uid_count.clone())),
                then: vec![
                    Stmt::Assign {
                        dst: acc,
                        value: KExpr::Imm(op.identity()),
                    },
                    Stmt::For {
                        var: j,
                        start: KExpr::imm(0),
                        end: KExpr::imm(k),
                        step: KExpr::imm(1),
                        body: vec![Stmt::Assign {
                            dst: acc,
                            value: combine(
                                op,
                                KExpr::Local(acc),
                                KExpr::Load {
                                    buf: partial,
                                    idx: Box::new(KExpr::add(
                                        KExpr::mul(KExpr::Local(u), KExpr::imm(k)),
                                        KExpr::Local(j),
                                    )),
                                },
                            ),
                        }],
                    },
                    Stmt::Store {
                        buf: out,
                        idx: KExpr::Local(u),
                        value: KExpr::Local(acc),
                    },
                ],
                els: vec![],
            },
        ];
        self.combiners.push(Kernel {
            name: format!("{}_combine", self.program.name),
            grid: [uid_count / Size::from(256), Size::from(1), Size::from(1)],
            block: [256, 1, 1],
            smem: vec![],
            locals: 3,
            body,
        });
    }

    // ------------------------------------------------------------------
    // Foreach / Filter / GroupBy
    // ------------------------------------------------------------------

    fn lower_foreach(
        &mut self,
        p: &'p Pattern,
        level: usize,
        sink: &mut Vec<Stmt>,
    ) -> Result<(), LowerError> {
        let extent = self.extent_expr(p, sink)?;
        self.in_level(p, level, extent, sink, |this, _, body| {
            let Body::Effects(effs) = &p.body else {
                return Err(LowerError("foreach requires effects".into()));
            };
            this.lower_effects(effs, level, body)
        })
    }

    /// Lower a foreach body's effects at nest level `level`: each store or
    /// atomic after its value and address, guarded like every store at
    /// that level and under the effect's condition, if any. Scalar lets
    /// stay bound until the last effect is lowered.
    pub(crate) fn lower_effects(
        &mut self,
        effs: &'p [Effect],
        level: usize,
        sink: &mut Vec<Stmt>,
    ) -> Result<(), LowerError> {
        let mut bound = Vec::new();
        for eff in effs {
            let (cond, array, idx, value, op) = match eff {
                Effect::Write {
                    cond,
                    array,
                    idx,
                    value,
                } => (cond, array, idx, value, None),
                Effect::AtomicRmw {
                    cond,
                    array,
                    idx,
                    op,
                    value,
                } => (cond, array, idx, value, Some(*op)),
                Effect::Nested(inner) => {
                    match &inner.kind {
                        PatternKind::Foreach => self.lower_foreach(inner, level + 1, sink)?,
                        other => {
                            return Err(LowerError(format!(
                                "nested {} in foreach effects unsupported",
                                other.name()
                            )))
                        }
                    }
                    continue;
                }
                Effect::LetScalar(v, e) => {
                    let value = self.lower_expr(e, sink)?;
                    self.bind_local(*v, value, sink);
                    bound.push(*v);
                    continue;
                }
            };
            let value = self.lower_expr(value, sink)?;
            let idx = self.array_address(*array, idx, sink)?;
            let buf = BufId(array.0);
            let store = vec![match op {
                None => Stmt::Store { buf, idx, value },
                Some(op) => Stmt::AtomicRmw {
                    buf,
                    idx,
                    op,
                    value,
                    capture: None,
                },
            }];
            let store = self.guarded(level, store);
            match cond {
                Some(c) => {
                    let cond = self.lower_expr(c, sink)?;
                    sink.push(Stmt::If {
                        cond,
                        then: store,
                        els: vec![],
                    });
                }
                None => sink.extend(store),
            }
        }
        for v in bound {
            self.vars.remove(&v);
        }
        Ok(())
    }

    fn lower_filter_root(
        &mut self,
        p: &'p Pattern,
        sink: &mut Vec<Stmt>,
    ) -> Result<(), LowerError> {
        let PatternKind::Filter { pred } = &p.kind else {
            unreachable!()
        };
        let out = self.out_buf()?;
        let counter = self
            .program
            .output_count
            .map(|c| BufId(c.0))
            .ok_or_else(|| LowerError("filter root requires a count array".into()))?;

        let extent = self.extent_expr(p, sink)?;
        self.in_level(p, 0, extent, sink, |this, _, body| {
            let pv = this.lower_expr(pred, body)?;
            let Body::Value(value) = &p.body else {
                return Err(LowerError("filter requires a value body".into()));
            };
            let mut then = Vec::new();
            let v = this.lower_expr(value, &mut then)?;
            let pos = this.fresh_local();
            then.push(Stmt::AtomicRmw {
                buf: counter,
                idx: KExpr::imm(0),
                op: ReduceOp::Add,
                value: KExpr::Imm(1.0),
                capture: Some(pos),
            });
            then.push(Stmt::Store {
                buf: out,
                idx: KExpr::Local(pos),
                value: v,
            });
            let then = this.guarded(0, then);
            body.push(Stmt::If {
                cond: pv,
                then,
                els: vec![],
            });
            Ok(())
        })?;
        self.notes
            .push("filter output order is nondeterministic (atomic compaction)".into());
        Ok(())
    }

    fn lower_groupby_root(
        &mut self,
        p: &'p Pattern,
        sink: &mut Vec<Stmt>,
    ) -> Result<(), LowerError> {
        let PatternKind::GroupBy { key, op, .. } = &p.kind else {
            unreachable!()
        };
        let op = *op;
        let out = self.out_buf()?;
        // The groups accumulate into the output: start from the combine
        // identity.
        self.buffers[out.0 as usize].init = BufferInit::Fill(op.identity());

        let extent = self.extent_expr(p, sink)?;
        self.in_level(p, 0, extent, sink, |this, _, body| {
            let kv = this.lower_expr(key, body)?;
            let Body::Value(value) = &p.body else {
                return Err(LowerError("groupBy requires a value body".into()));
            };
            let v = this.lower_expr(value, body)?;
            let atomic = this.guarded(
                0,
                vec![Stmt::AtomicRmw {
                    buf: out,
                    idx: kv,
                    op,
                    value: v,
                    capture: None,
                }],
            );
            body.extend(atomic);
            Ok(())
        })
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn array_address(
        &mut self,
        array: ArrayId,
        idxs: &'p [Expr],
        sink: &mut Vec<Stmt>,
    ) -> Result<KExpr, LowerError> {
        let shape = self.program.array(array).shape.clone();
        let mut addr = KExpr::imm(0);
        for (k, ie) in idxs.iter().enumerate() {
            let i = self.lower_expr(ie, sink)?;
            let mut stride = Size::from(1);
            for s in &shape[k + 1..] {
                stride = stride * s.clone();
            }
            let term = if matches!(stride, Size::Const(1)) {
                i
            } else {
                KExpr::mul(i, KExpr::SizeVal(stride))
            };
            addr = if k == 0 { term } else { KExpr::add(addr, term) };
        }
        Ok(addr)
    }

    /// Assign `value` to a fresh local and bind `v` to it.
    pub(crate) fn bind_local(&mut self, v: VarId, value: KExpr, sink: &mut Vec<Stmt>) -> LocalId {
        let l = self.fresh_local();
        sink.push(Stmt::Assign { dst: l, value });
        self.vars.insert(v, KExpr::Local(l));
        l
    }

    pub(crate) fn lower_expr(
        &mut self,
        e: &'p Expr,
        sink: &mut Vec<Stmt>,
    ) -> Result<KExpr, LowerError> {
        match e {
            Expr::Lit(v) => Ok(KExpr::Imm(*v)),
            Expr::Var(v) => self
                .vars
                .get(v)
                .cloned()
                .ok_or_else(|| LowerError(format!("unbound variable {v:?} during lowering"))),
            Expr::SizeOf(s) => Ok(KExpr::SizeVal(s.clone())),
            Expr::LengthOf(src, dim) => match src {
                ReadSrc::Array(a) => {
                    let shape = &self.program.array(*a).shape;
                    shape
                        .get(*dim)
                        .map(|s| KExpr::SizeVal(s.clone()))
                        .ok_or_else(|| LowerError("lengthOf out of rank".into()))
                }
                ReadSrc::Var(v) => self
                    .temps
                    .get(v)
                    .map(|t| KExpr::SizeVal(t.inner.clone()))
                    .ok_or_else(|| LowerError("lengthOf unmaterialized collection".into())),
            },
            Expr::Read(ReadSrc::Array(a), idxs) => {
                if let Some(sm) = self.try_prefetch(*a, idxs) {
                    return Ok(sm);
                }
                let addr = self.array_address(*a, idxs, sink)?;
                Ok(KExpr::Load {
                    buf: BufId(a.0),
                    idx: Box::new(addr),
                })
            }
            Expr::Read(ReadSrc::Var(v), idxs) => {
                let t = self
                    .temps
                    .get(v)
                    .cloned()
                    .ok_or_else(|| LowerError(format!("read of unmaterialized temp {v:?}")))?;
                if idxs.len() != 1 {
                    return Err(LowerError("temporaries are rank-1".into()));
                }
                let j = self.lower_expr(&idxs[0], sink)?;
                Ok(KExpr::Load {
                    buf: t.buf,
                    idx: Box::new(temp_addr(&t, j)),
                })
            }
            Expr::Bin(op, a, b) => {
                let x = self.lower_expr(a, sink)?;
                let y = self.lower_expr(b, sink)?;
                Ok(KExpr::Bin(*op, Box::new(x), Box::new(y)))
            }
            Expr::Un(op, a) => {
                let x = self.lower_expr(a, sink)?;
                Ok(KExpr::Un(*op, Box::new(x)))
            }
            Expr::Select(c, t, f) => {
                let cv = self.lower_expr(c, sink)?;
                let tv = self.lower_expr(t, sink)?;
                let fv = self.lower_expr(f, sink)?;
                Ok(KExpr::Select(Box::new(cv), Box::new(tv), Box::new(fv)))
            }
            Expr::Let(v, val, bodye) => {
                if let Expr::Pat(p) = &**val {
                    match &p.kind {
                        PatternKind::Map => {
                            self.materialize_temp(*v, p, sink)?;
                            let r = self.lower_expr(bodye, sink);
                            self.temps.remove(v);
                            return r;
                        }
                        // A reduce is a scalar: lowered below.
                        PatternKind::Reduce { .. } => {}
                        other => {
                            return Err(LowerError(format!(
                                "let-bound {} not supported below the root",
                                other.name()
                            )))
                        }
                    }
                }
                let value = self.lower_expr(val, sink)?;
                self.bind_local(*v, value, sink);
                let r = self.lower_expr(bodye, sink);
                self.vars.remove(v);
                r
            }
            Expr::Iterate {
                max,
                inits,
                cond,
                updates,
                result,
            } => {
                let maxv = self.lower_expr(max, sink)?;
                let mut state = Vec::with_capacity(inits.len());
                for (v, init) in inits {
                    let iv = self.lower_expr(init, sink)?;
                    state.push(self.bind_local(*v, iv, sink));
                }
                let counter = self.fresh_local();
                let mut body = Vec::new();
                let cv = self.lower_expr(cond, &mut body)?;
                let mut cont = Vec::new();
                // Compute all updates before assigning (parallel semantics).
                let mut fresh = Vec::with_capacity(updates.len());
                for u in updates {
                    let uv = self.lower_expr(u, &mut cont)?;
                    let l = self.fresh_local();
                    cont.push(Stmt::Assign { dst: l, value: uv });
                    fresh.push(l);
                }
                for (s, f) in state.iter().zip(&fresh) {
                    cont.push(Stmt::Assign {
                        dst: *s,
                        value: KExpr::Local(*f),
                    });
                }
                body.push(Stmt::If {
                    cond: cv,
                    then: cont,
                    els: vec![Stmt::Break],
                });
                sink.push(Stmt::For {
                    var: counter,
                    start: KExpr::imm(0),
                    end: maxv,
                    step: KExpr::imm(1),
                    body,
                });
                let r = self.lower_expr(result, sink);
                for (v, _) in inits {
                    self.vars.remove(v);
                }
                r
            }
            Expr::Pat(p) => match &p.kind {
                PatternKind::Reduce { op } => {
                    let level = self.chain.len();
                    self.lower_reduce_value(p, level, *op, sink)
                }
                other => Err(LowerError(format!(
                    "{} in value position must be let-bound",
                    other.name()
                ))),
            },
        }
    }

    // ------------------------------------------------------------------
    // Section V-A: temporary preallocation + layout
    // ------------------------------------------------------------------

    fn materialize_temp(
        &mut self,
        v: VarId,
        p: &'p Pattern,
        sink: &mut Vec<Stmt>,
    ) -> Result<(), LowerError> {
        if p.size.is_dynamic() {
            return Err(LowerError(
                "temporaries with dynamic extents unsupported".into(),
            ));
        }
        for link in &self.chain {
            if link.extent.is_dynamic() {
                return Err(LowerError(
                    "temporaries under dynamic levels unsupported".into(),
                ));
            }
        }
        let level = self.chain.len();
        let inner = p.size.clone();
        let uid_count = chain_count(&self.chain);
        let uid = linearize(&self.chain);

        let layout = match self.opts.layout {
            LayoutPolicy::ForceRowMajor => TempLayout::RowMajor,
            LayoutPolicy::ForceColMajor => TempLayout::ColMajor,
            LayoutPolicy::Auto => {
                // If the temp's own (inner) level sits on dimension x,
                // stride 1 in the inner index coalesces: row-major.
                // Otherwise interleave so the enclosing x-index gets
                // stride 1 (Figure 11).
                if self.levels.get(level).is_some_and(|lm| lm.dim.is_x()) {
                    TempLayout::RowMajor
                } else {
                    TempLayout::ColMajor
                }
            }
        };
        self.notes
            .push(format!("temp v{} layout: {:?}", v.0, layout));

        let buf = self.add_buffer(
            format!("{}_temp_v{}", self.program.name, v.0),
            uid_count.clone() * inner.clone(),
            BufferInit::Zero,
        );
        let info = TempInfo {
            buf,
            inner: inner.clone(),
            uid,
            uid_count,
            layout,
        };

        if self.opts.device_malloc {
            // Figure 16's baseline: every outer-pattern thread pays a
            // device malloc for its temporary (one call per outer
            // iteration — the inner pattern's lanes share it).
            // Guard so only one lane of the inner dimensions calls it.
            let m = self.guarded(
                level.saturating_sub(1),
                vec![Stmt::DeviceMalloc {
                    bytes: KExpr::mul(KExpr::SizeVal(inner.clone()), KExpr::imm(8)),
                }],
            );
            sink.extend(m);
        }

        // Producer loop: map into the temp at the chosen layout.
        let extent = self.extent_expr(p, sink)?;
        self.in_level(p, level, extent, sink, |this, idx, body| {
            let Body::Value(value) = &p.body else {
                return Err(LowerError("temp map with effects".into()));
            };
            let val = this.lower_expr(value, body)?;
            let store = this.guarded(
                level,
                vec![Stmt::Store {
                    buf: info.buf,
                    idx: temp_addr(&info, KExpr::Local(idx)),
                    value: val,
                }],
            );
            body.extend(store);
            Ok(())
        })?;

        // Consumers at the same block-parallel level read other threads'
        // elements: synchronize.
        if self.levels.get(level).is_some_and(|lm| lm.block_size > 1) {
            sink.push(Stmt::Sync);
        }

        self.temps.insert(v, info);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Section V-B: shared-memory prefetch of outer-level reads
    // ------------------------------------------------------------------

    /// If this read is a rank-1, stride-1 access at the *outer* level of a
    /// deeper nest whose outer dimension is not x, stage the block's chunk
    /// through shared memory and read from there.
    fn try_prefetch(&mut self, array: ArrayId, idxs: &'p [Expr]) -> Option<KExpr> {
        // Notes the reason a candidate read was not staged, once per array
        // and reason, so the record explains "why did the Section V-B
        // optimization not fire here".
        let skip = |this: &mut Self, reason: &'static str| {
            let note = format!(
                "prefetch of `{}` skipped: {reason}",
                this.program.array(array).name
            );
            if !this.notes.contains(&note) {
                this.notes.push(note);
            }
            None
        };
        if !self.opts.smem_prefetch {
            return None; // disabled by options: not a per-read decision
        }
        if self.levels.len() < 2 {
            return skip(self, "nest has a single level");
        }
        // At outer level only (chain = [outer]).
        if self.chain.len() != 1 {
            return skip(self, "read is not at the outer nest level");
        }
        let outer_var = self.chain[0].var;
        let outer_extent = self.chain[0].extent.clone();
        let lm = &self.levels[0];
        if lm.dim.is_x() {
            return skip(self, "outer level already on dimension x (coalesced)");
        }
        if !matches!(lm.span, Span::Span(1)) || lm.block_size < 2 {
            return skip(self, "outer level not block-parallel with span(1)");
        }
        // Exactly `a[outer_var]`.
        if idxs.len() != 1 || idxs[0] != Expr::Var(outer_var) {
            return skip(self, "access is not stride-1 in the outer index");
        }
        let axis = Axis::from_index(lm.dim.0);
        let b_outer = lm.block_size;
        if let Some(budget) = self.opts.smem_budget {
            let current: u64 = self.smem.iter().map(|d| u64::from(d.len) * 8).sum();
            if !self.prefetched.contains_key(&array)
                && current + u64::from(b_outer) * 8 > u64::from(budget)
            {
                return skip(self, "shared-memory budget exhausted");
            }
        }

        let sm = match self.prefetched.get(&array) {
            Some(&sm) => sm,
            None => {
                let sm = self.fresh_smem(format!("pf_{}", self.program.array(array).name), b_outer);
                // Preamble: threads with flat id < B_outer cooperatively
                // load the block's chunk (coalesced: consecutive flat ids
                // touch consecutive addresses).
                let (flat, _) = self.flat_slot_and_stride(Axis::X);
                let lt = self.fresh_local();
                let base = KExpr::mul(KExpr::Bid(axis), KExpr::imm(b_outer as i64));
                let addr = KExpr::add(base, KExpr::Local(lt));
                let in_chunk = KExpr::lt(KExpr::Local(lt), KExpr::imm(b_outer as i64));
                let extent = KExpr::SizeVal(outer_extent.clone());
                // In clamp mode a padding thread runs on with its row
                // clamped to the last one and reads its slot, so every slot
                // is loaded, past the end from that last row; otherwise
                // padding threads never reach the read.
                let (cond, addr) = if self.clamp_mode {
                    let last = KExpr::max(KExpr::sub(extent, KExpr::imm(1)), KExpr::imm(0));
                    (in_chunk, KExpr::min(addr, last))
                } else {
                    (KExpr::and(in_chunk, KExpr::lt(addr.clone(), extent)), addr)
                };
                self.preamble.push(Stmt::Assign {
                    dst: lt,
                    value: flat,
                });
                self.preamble.push(Stmt::If {
                    cond,
                    then: vec![Stmt::SmemStore {
                        arr: sm,
                        idx: KExpr::Local(lt),
                        value: KExpr::Load {
                            buf: BufId(array.0),
                            idx: Box::new(addr),
                        },
                    }],
                    els: vec![],
                });
                self.preamble.push(Stmt::Sync);
                self.notes.push(format!(
                    "prefetching `{}` through shared memory ({b_outer} words)",
                    self.program.array(array).name
                ));
                self.prefetched.insert(array, sm);
                sm
            }
        };
        Some(KExpr::SmemLoad {
            arr: sm,
            idx: Box::new(KExpr::Tid(axis)),
        })
    }
}

/// `op(a, b)` as a kernel expression.
pub(crate) fn combine(op: ReduceOp, a: KExpr, b: KExpr) -> KExpr {
    let bo = match op {
        ReduceOp::Add => BinOp::Add,
        ReduceOp::Mul => BinOp::Mul,
        ReduceOp::Min => BinOp::Min,
        ReduceOp::Max => BinOp::Max,
    };
    KExpr::Bin(bo, Box::new(a), Box::new(b))
}

/// Address inside a temporary under its layout.
fn temp_addr(t: &TempInfo, j: KExpr) -> KExpr {
    match t.layout {
        TempLayout::RowMajor => KExpr::add(
            KExpr::mul(t.uid.clone(), KExpr::SizeVal(t.inner.clone())),
            j,
        ),
        TempLayout::ColMajor => KExpr::add(
            KExpr::mul(j, KExpr::SizeVal(t.uid_count.clone())),
            t.uid.clone(),
        ),
    }
}

/// Linearized index over the chain: `((i0)·E1 + i1)·E2 + …`.
fn linearize(chain: &[ChainLink]) -> KExpr {
    let Some((first, rest)) = chain.split_first() else {
        return KExpr::imm(0);
    };
    rest.iter().fold(KExpr::Local(first.idx), |acc, link| {
        KExpr::add(
            KExpr::mul(acc, KExpr::SizeVal(link.extent.clone())),
            KExpr::Local(link.idx),
        )
    })
}

/// Product of the chain's extents.
fn chain_count(chain: &[ChainLink]) -> Size {
    chain
        .iter()
        .fold(Size::from(1), |acc, link| acc * link.extent.clone())
}
