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
    Axis, BufId, BufferDecl, BufferInit, KExpr, Kernel, KernelProgram, LocalId, SmemDecl, Stmt,
};
use multidim_ir::{
    ArrayId, ArrayRole, BinOp, Body, Effect, Expr, Pattern, PatternKind, Program, ReadSrc,
    ReduceOp, Size, UnOp, VarId,
};
use multidim_mapping::{MappingDecision, Span};
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
    let mapping = &mapping;
    let mut lo = Lowerer {
        program,
        mapping,
        opts,
        buffers: Vec::new(),
        combiners: Vec::new(),
        notes: Vec::new(),
        next_local: 0,
        smem: Vec::new(),
        vars: HashMap::new(),
        temps: HashMap::new(),
        chain: Vec::new(),
        out_chain: Vec::new(),
        prefetched: HashMap::new(),
        preamble: Vec::new(),
        clamp_mode: needs_clamp(program, mapping),
        valid_conds: Vec::new(),
    };
    lo.notes.extend(demotion_notes);

    // Device buffers for the program's arrays.
    for decl in &program.arrays {
        let mut len = Size::from(1);
        for d in &decl.shape {
            len = len * d.clone();
        }
        let init = match decl.role {
            ArrayRole::Input => BufferInit::FromArray(decl.id),
            // Outputs/temps may be seeded by the host (in-place updates).
            _ => BufferInit::FromArrayOrZero(decl.id),
        };
        lo.buffers.push(BufferDecl {
            name: decl.name.clone(),
            elem_bytes: decl.elem.bytes(),
            len,
            init,
            array: Some(decl.id),
        });
    }
    // GroupBy roots accumulate into the output: initialize with the
    // combine identity.
    if let PatternKind::GroupBy { op, .. } = &program.root.kind {
        let out = program.output.expect("groupBy root has an output");
        lo.buffers[out.0 as usize].init = BufferInit::Fill(op.identity());
    }

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
fn needs_clamp(program: &Program, mapping: &MappingDecision) -> bool {
    let mut sync_construct = false;
    program.root.visit_patterns(&mut |p, lvl| {
        if matches!(p.kind, PatternKind::Reduce { .. })
            && lvl < mapping.depth()
            && mapping.level(lvl).block_size > 1
        {
            sync_construct = true;
        }
    });
    if !sync_construct {
        // Materialized temporaries insert a sync when their level is
        // block-parallel; detect let-bound maps conservatively.
        let any_block_parallel = (0..mapping.depth()).any(|l| mapping.level(l).block_size > 1);
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

struct Lowerer<'p> {
    program: &'p Program,
    mapping: &'p MappingDecision,
    opts: &'p CodegenOptions,
    buffers: Vec<BufferDecl>,
    combiners: Vec<Kernel>,
    notes: Vec<String>,
    next_local: u32,
    smem: Vec<SmemDecl>,
    vars: HashMap<VarId, KExpr>,
    temps: HashMap<VarId, TempInfo>,
    /// Enclosing pattern levels at the current lowering point.
    chain: Vec<ChainLink>,
    /// Root-map chain for output indexing: (index expr, extent).
    out_chain: Vec<(KExpr, Size)>,
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

fn has_sync(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Sync => true,
        Stmt::For { body, .. } => has_sync(body),
        Stmt::If { then, els, .. } => has_sync(then) || has_sync(els),
        _ => false,
    })
}

impl<'p> Lowerer<'p> {
    fn fresh_local(&mut self) -> LocalId {
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

    fn add_buffer(&mut self, name: String, len: Size, init: BufferInit) -> BufId {
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
        Axis::from_index(self.mapping.level(level).dim.0)
    }

    fn lower_root(&mut self, sink: &mut Vec<Stmt>) -> Result<(), LowerError> {
        let root = &self.program.root;
        match &root.kind {
            PatternKind::Map => self.lower_map(root, 0, sink),
            PatternKind::Reduce { op } => {
                let op = *op;
                let out = self.out_buf()?;
                self.lower_reduce_into(root, 0, op, out, KExpr::imm(0), sink)
            }
            PatternKind::Foreach => self.lower_foreach(root, 0, sink),
            PatternKind::Filter { .. } => self.lower_filter_root(root, sink),
            PatternKind::GroupBy { .. } => self.lower_groupby_root(root, sink),
        }
    }

    fn out_buf(&self) -> Result<BufId, LowerError> {
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

    /// Open nest level `level`: allocate its index local (and, in clamp
    /// mode, the raw-position local whose validity predicate guards every
    /// store generated while the level is open).
    fn begin_level(&mut self, level: usize, extent: &KExpr) -> LevelFrame {
        let idx = self.fresh_local();
        let lm = self.mapping.level(level);
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
            extent: extent.clone(),
        }
    }

    /// Close a level opened with [`Self::begin_level`], wrapping `body` in
    /// the span's loop structure.
    fn end_level(&mut self, frame: LevelFrame, body: Vec<Stmt>) -> Result<Vec<Stmt>, LowerError> {
        if frame.raw.is_some() {
            self.valid_conds.pop();
        }
        let lm = self.mapping.level(frame.level).clone();
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
            KExpr::Bin(
                BinOp::Min,
                Box::new(KExpr::Local(raw)),
                Box::new(KExpr::Bin(
                    BinOp::Max,
                    Box::new(KExpr::sub(extent.clone(), KExpr::imm(1))),
                    Box::new(KExpr::imm(0)),
                )),
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
                let end = KExpr::Bin(
                    BinOp::Min,
                    Box::new(KExpr::mul(
                        KExpr::add(KExpr::Bid(axis), KExpr::imm(1)),
                        section,
                    )),
                    Box::new(extent),
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
        for l in (level + 1)..self.mapping.depth() {
            let lm = self.mapping.level(l);
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
        let frame = self.begin_level(level, &extent);
        let idx = frame.idx;
        self.vars.insert(p.var, KExpr::Local(idx));
        self.chain.push(ChainLink {
            var: p.var,
            idx,
            extent: p.size.clone(),
        });
        self.out_chain.push((KExpr::Local(idx), p.size.clone()));

        let mut body = Vec::new();
        let value = match &p.body {
            Body::Value(e) => e,
            Body::Effects(_) => return Err(LowerError("map with effect body".into())),
        };
        match value {
            // Directly nested map: extend the output chain.
            Expr::Pat(inner) if matches!(inner.kind, PatternKind::Map) => {
                self.lower_map(inner, level + 1, &mut body)?;
            }
            // Direct reduce body: store via the split-capable path so
            // `ControlDOP`'s `Split(k)` choice is honored (sumRows/sumCols).
            Expr::Pat(inner) => {
                if let PatternKind::Reduce { op } = &inner.kind {
                    let op = *op;
                    let out = self.out_buf()?;
                    self.lower_reduce_into(inner, level + 1, op, out, KExpr::imm(0), &mut body)?;
                } else {
                    let v = self.lower_expr(value, &mut body)?;
                    self.store_root(level, v, &mut body)?;
                }
            }
            _ => {
                let v = self.lower_expr(value, &mut body)?;
                self.store_root(level, v, &mut body)?;
            }
        }

        let wrapped = self.end_level(frame, body)?;
        sink.extend(wrapped);

        self.out_chain.pop();
        self.chain.pop();
        self.vars.remove(&p.var);
        Ok(())
    }

    /// Store a scalar at the current root-map position.
    fn store_root(
        &mut self,
        level: usize,
        value: KExpr,
        sink: &mut Vec<Stmt>,
    ) -> Result<(), LowerError> {
        let out = self.out_buf()?;
        let idx = linearize_chain(&self.out_chain);
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
        let lm = self.mapping.level(level).clone();
        // `demote_consumed_splits` guarantees consumed reduces never split.
        debug_assert!(
            !matches!(lm.span, Span::Split(_)),
            "consumed reduce at level {level} still has Split"
        );
        let acc = self.accumulate_local(p, level, op, sink)?;
        if lm.block_size > 1 {
            let res = self.block_tree_reduce(level, op, acc, sink);
            Ok(KExpr::Local(res))
        } else {
            Ok(KExpr::Local(acc))
        }
    }

    /// Lower a reduce stored directly to `out[out_base]` (root reduce or
    /// root-map body); supports `Split(k)` via a combiner kernel.
    fn lower_reduce_into(
        &mut self,
        p: &'p Pattern,
        level: usize,
        op: ReduceOp,
        out: BufId,
        _out_base: KExpr,
        sink: &mut Vec<Stmt>,
    ) -> Result<(), LowerError> {
        let lm = self.mapping.level(level).clone();
        let acc = self.accumulate_local(p, level, op, sink)?;
        let reduced = if lm.block_size > 1 {
            self.block_tree_reduce(level, op, acc, sink)
        } else {
            acc
        };
        let axis = self.level_axis(level);

        match lm.span {
            Span::Split(k) => {
                // Per-section partials, then a combiner kernel.
                let k = k.max(1);
                let uid_count = chain_count(&self.out_chain);
                let partial_len = uid_count.clone() * Size::from(k);
                let partial = self.add_buffer(
                    format!("{}_partials", self.program.name),
                    partial_len,
                    BufferInit::Fill(op.identity()),
                );
                let uid = linearize_chain(&self.out_chain);
                let pidx = KExpr::add(KExpr::mul(uid, KExpr::imm(k)), KExpr::Bid(axis));
                let store = vec![Stmt::Store {
                    buf: partial,
                    idx: pidx,
                    value: KExpr::Local(reduced),
                }];
                // One lane of the reduce dimension stores; deeper parallel
                // dims and enclosing validity handled by guarded().
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
                self.emit_combiner(op, partial, out, uid_count, k);
            }
            _ => {
                let uid = linearize_chain(&self.out_chain);
                let store = vec![Stmt::Store {
                    buf: out,
                    idx: uid,
                    value: KExpr::Local(reduced),
                }];
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
            }
        }
        Ok(())
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

        let frame = self.begin_level(level, &extent);
        let idx = frame.idx;
        self.vars.insert(p.var, KExpr::Local(idx));
        self.chain.push(ChainLink {
            var: p.var,
            idx,
            extent: p.size.clone(),
        });

        let mut body = Vec::new();
        let value = match &p.body {
            Body::Value(e) => e,
            Body::Effects(_) => return Err(LowerError("reduce with effect body".into())),
        };
        let v = self.lower_expr(value, &mut body)?;
        body.push(Stmt::Assign {
            dst: acc,
            value: combine(op, KExpr::Local(acc), v),
        });

        let wrapped = self.end_level(frame, body)?;
        sink.extend(wrapped);

        self.chain.pop();
        self.vars.remove(&p.var);
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
        let lm = self.mapping.level(level).clone();
        let axis = Axis::from_index(lm.dim.0);
        let block_threads: u32 = (0..self.mapping.depth())
            .map(|l| self.mapping.level(l).block_size)
            .product();
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
        for l in 0..self.mapping.depth() {
            let lm = self.mapping.level(l);
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
        let frame = self.begin_level(level, &extent);
        let idx = frame.idx;
        self.vars.insert(p.var, KExpr::Local(idx));
        self.chain.push(ChainLink {
            var: p.var,
            idx,
            extent: p.size.clone(),
        });

        let mut body = Vec::new();
        let effs = match &p.body {
            Body::Effects(effs) => effs,
            Body::Value(_) => return Err(LowerError("foreach requires effects".into())),
        };
        let mut bound = Vec::new();
        for eff in effs {
            match eff {
                Effect::Write {
                    cond,
                    array,
                    idx: ai,
                    value,
                } => {
                    let v = self.lower_expr(value, &mut body)?;
                    let addr = self.array_address(*array, ai, &mut body)?;
                    let store = vec![Stmt::Store {
                        buf: BufId(array.0),
                        idx: addr,
                        value: v,
                    }];
                    let store = self.guarded(level, store);
                    match cond {
                        Some(c) => {
                            let cv = self.lower_expr(c, &mut body)?;
                            body.push(Stmt::If {
                                cond: cv,
                                then: store,
                                els: vec![],
                            });
                        }
                        None => body.extend(store),
                    }
                }
                Effect::AtomicRmw {
                    cond,
                    array,
                    idx: ai,
                    op,
                    value,
                } => {
                    let v = self.lower_expr(value, &mut body)?;
                    let addr = self.array_address(*array, ai, &mut body)?;
                    let st = vec![Stmt::AtomicRmw {
                        buf: BufId(array.0),
                        idx: addr,
                        op: *op,
                        value: v,
                        capture: None,
                    }];
                    let st = self.guarded(level, st);
                    match cond {
                        Some(c) => {
                            let cv = self.lower_expr(c, &mut body)?;
                            body.push(Stmt::If {
                                cond: cv,
                                then: st,
                                els: vec![],
                            });
                        }
                        None => body.extend(st),
                    }
                }
                Effect::Nested(inner) => match &inner.kind {
                    PatternKind::Foreach => self.lower_foreach(inner, level + 1, &mut body)?,
                    other => {
                        return Err(LowerError(format!(
                            "nested {} in foreach effects unsupported",
                            other.name()
                        )))
                    }
                },
                Effect::LetScalar(v, e) => {
                    let val = self.lower_expr(e, &mut body)?;
                    let l = self.fresh_local();
                    body.push(Stmt::Assign { dst: l, value: val });
                    self.vars.insert(*v, KExpr::Local(l));
                    bound.push(*v);
                }
            }
        }
        for v in bound {
            self.vars.remove(&v);
        }

        let wrapped = self.end_level(frame, body)?;
        sink.extend(wrapped);
        self.chain.pop();
        self.vars.remove(&p.var);
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
        let frame = self.begin_level(0, &extent);
        let idx = frame.idx;
        self.vars.insert(p.var, KExpr::Local(idx));
        self.chain.push(ChainLink {
            var: p.var,
            idx,
            extent: p.size.clone(),
        });

        let mut body = Vec::new();
        let pv = self.lower_expr(pred, &mut body)?;
        let value = match &p.body {
            Body::Value(e) => e,
            Body::Effects(_) => return Err(LowerError("filter requires a value body".into())),
        };
        let mut then = Vec::new();
        let v = self.lower_expr(value, &mut then)?;
        let pos = self.fresh_local();
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
        let then = self.guarded(0, then);
        body.push(Stmt::If {
            cond: pv,
            then,
            els: vec![],
        });

        let wrapped = self.end_level(frame, body)?;
        sink.extend(wrapped);
        self.chain.pop();
        self.vars.remove(&p.var);
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

        let extent = self.extent_expr(p, sink)?;
        let frame = self.begin_level(0, &extent);
        let idx = frame.idx;
        self.vars.insert(p.var, KExpr::Local(idx));
        self.chain.push(ChainLink {
            var: p.var,
            idx,
            extent: p.size.clone(),
        });

        let mut body = Vec::new();
        let kv = self.lower_expr(key, &mut body)?;
        let value = match &p.body {
            Body::Value(e) => e,
            Body::Effects(_) => return Err(LowerError("groupBy requires a value body".into())),
        };
        let v = self.lower_expr(value, &mut body)?;
        let atomic = self.guarded(
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

        let wrapped = self.end_level(frame, body)?;
        sink.extend(wrapped);
        self.chain.pop();
        self.vars.remove(&p.var);
        Ok(())
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
        if idxs.is_empty() {
            addr = KExpr::imm(0);
        }
        Ok(addr)
    }

    fn lower_expr(&mut self, e: &'p Expr, sink: &mut Vec<Stmt>) -> Result<KExpr, LowerError> {
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
            Expr::Let(v, val, bodye) => match &**val {
                Expr::Pat(p) => match &p.kind {
                    PatternKind::Map => {
                        self.materialize_temp(*v, p, sink)?;
                        let r = self.lower_expr(bodye, sink);
                        self.temps.remove(v);
                        r
                    }
                    PatternKind::Reduce { op } => {
                        let level = self.chain.len();
                        let rv = self.lower_reduce_value(p, level, *op, sink)?;
                        let l = self.fresh_local();
                        sink.push(Stmt::Assign { dst: l, value: rv });
                        self.vars.insert(*v, KExpr::Local(l));
                        let r = self.lower_expr(bodye, sink);
                        self.vars.remove(v);
                        r
                    }
                    other => Err(LowerError(format!(
                        "let-bound {} not supported below the root",
                        other.name()
                    ))),
                },
                scalar => {
                    let sv = self.lower_expr(scalar, sink)?;
                    let l = self.fresh_local();
                    sink.push(Stmt::Assign { dst: l, value: sv });
                    self.vars.insert(*v, KExpr::Local(l));
                    let r = self.lower_expr(bodye, sink);
                    self.vars.remove(v);
                    r
                }
            },
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
                    let l = self.fresh_local();
                    sink.push(Stmt::Assign { dst: l, value: iv });
                    self.vars.insert(*v, KExpr::Local(l));
                    state.push(l);
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
        let uid_count = chain_count_links(&self.chain);
        let uid = linearize_links(&self.chain);

        let layout = match self.opts.layout {
            LayoutPolicy::ForceRowMajor => TempLayout::RowMajor,
            LayoutPolicy::ForceColMajor => TempLayout::ColMajor,
            LayoutPolicy::Auto => {
                // If the temp's own (inner) level sits on dimension x,
                // stride 1 in the inner index coalesces: row-major.
                // Otherwise interleave so the enclosing x-index gets
                // stride 1 (Figure 11).
                if level < self.mapping.depth() && self.mapping.level(level).dim.is_x() {
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
        let frame = self.begin_level(level, &extent);
        let idx = frame.idx;
        self.vars.insert(p.var, KExpr::Local(idx));
        self.chain.push(ChainLink {
            var: p.var,
            idx,
            extent: p.size.clone(),
        });
        let mut body = Vec::new();
        let value = match &p.body {
            Body::Value(e) => e,
            Body::Effects(_) => return Err(LowerError("temp map with effects".into())),
        };
        let val = self.lower_expr(value, &mut body)?;
        let store = self.guarded(
            level,
            vec![Stmt::Store {
                buf: info.buf,
                idx: temp_addr(&info, KExpr::Local(idx)),
                value: val,
            }],
        );
        body.extend(store);
        let wrapped = self.end_level(frame, body)?;
        sink.extend(wrapped);
        self.chain.pop();
        self.vars.remove(&p.var);

        // Consumers at the same block-parallel level read other threads'
        // elements: synchronize.
        if level < self.mapping.depth() && self.mapping.level(level).block_size > 1 {
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
        if self.mapping.depth() < 2 {
            return skip(self, "nest has a single level");
        }
        // At outer level only (chain = [outer]).
        if self.chain.len() != 1 {
            return skip(self, "read is not at the outer nest level");
        }
        let outer_var = self.chain[0].var;
        let outer_extent = self.chain[0].extent.clone();
        let lm = self.mapping.level(0);
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
                self.preamble.push(Stmt::Assign {
                    dst: lt,
                    value: flat,
                });
                self.preamble.push(Stmt::If {
                    cond: KExpr::and(
                        KExpr::lt(KExpr::Local(lt), KExpr::imm(b_outer as i64)),
                        KExpr::lt(addr.clone(), KExpr::SizeVal(outer_extent.clone())),
                    ),
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
fn combine(op: ReduceOp, a: KExpr, b: KExpr) -> KExpr {
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

/// Linearized index over the (index, extent) chain: `((i0)·E1 + i1)·E2 + …`.
fn linearize_chain(chain: &[(KExpr, Size)]) -> KExpr {
    if chain.is_empty() {
        return KExpr::imm(0);
    }
    let mut acc = chain[0].0.clone();
    for (idx, extent) in &chain[1..] {
        acc = KExpr::add(KExpr::mul(acc, KExpr::SizeVal(extent.clone())), idx.clone());
    }
    acc
}

/// Product of chain extents.
fn chain_count(chain: &[(KExpr, Size)]) -> Size {
    chain
        .iter()
        .fold(Size::from(1), |acc, (_, e)| acc * e.clone())
}

fn chain_count_links(chain: &[ChainLink]) -> Size {
    chain
        .iter()
        .fold(Size::from(1), |acc, l| acc * l.extent.clone())
}

fn linearize_links(chain: &[ChainLink]) -> KExpr {
    if chain.is_empty() {
        return KExpr::imm(0);
    }
    let mut acc = KExpr::Local(chain[0].idx);
    for link in &chain[1..] {
        acc = KExpr::add(
            KExpr::mul(acc, KExpr::SizeVal(link.extent.clone())),
            KExpr::Local(link.idx),
        );
    }
    acc
}
