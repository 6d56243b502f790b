//! Dynamic-parallelism launch consolidation.
//!
//! Nests whose inner extent is *data-dependent* (`Pattern::dyn_extent`,
//! e.g. a CSR row's nonzero count) cannot influence the launch
//! configuration, so the baseline lowering inlines them as `Span(all)`
//! loops. Device-side child launches (CUDA dynamic parallelism) are the
//! alternative: the parent kernel launches one child grid per outer index.
//! Naively that pays one launch overhead *per outer element* — the classic
//! CDP pitfall — so a consolidation stage chooses per launch site between:
//!
//! * **thresholding** — inner nests below a work cutoff stay inlined
//!   (the existing `Span(all)` serial-per-block path);
//! * **coarsening** — a single kernel where each block handles `k`
//!   consecutive outer indices with one warp striding the inner extent;
//! * **aggregation** — the inner extents are prefix-summed into a work
//!   queue (`off[]`) by a three-kernel scan, and *one* consolidated child
//!   grid over the queue's total executes every inner element, locating
//!   its outer index by binary search over `off[]`.
//!
//! This module owns the plan types ([`DynParPlan`], [`LaunchStrategy`]),
//! launch-site discovery ([`find_site`]), and the strategy lowerings
//! ([`lower_planned`]). The strategies lay out their kernels' launch
//! shapes, loops, scans and searches themselves; the site's bodies —
//! outer lets, the inner extent, the reduce value or the write and atomic
//! effects — and the program's buffers come from the code generator's own
//! `Lowerer`, run under no nest levels and without prefetch, so a body
//! lowers here exactly as it does inline. The cost-model *chooser* that
//! builds a plan lives in the `multidim-dynpar` crate.

use crate::kernel::{
    Axis, BufId, BufferInit, KExpr, Kernel, KernelProgram, LocalId, SmemDecl, Stmt,
};
use crate::lower::{combine, lower, CodegenOptions, LowerError, Lowerer};
use multidim_ir::{
    Body, Effect, Expr, Pattern, PatternKind, Program, ReadSrc, ReduceOp, Size, UnOp, VarId,
};
use multidim_mapping::MappingDecision;
use multidim_trace as trace;

/// How one dynamic-extent launch site is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaunchStrategy {
    /// Keep the baseline lowering: the inner nest is a serial
    /// (`Span(all)`) loop inside the parent kernel.
    Inline,
    /// One device-side child launch per outer element (the unconsolidated
    /// baseline; pays per-element launch overhead).
    Naive,
    /// One kernel; each block owns `k` consecutive outer elements, one
    /// warp strides each inner extent.
    Coarsen(u32),
    /// Prefix-sum the inner extents into a work queue and launch a single
    /// consolidated child grid over the total.
    Aggregate,
}

impl LaunchStrategy {
    /// Short name for reports and traces.
    pub fn name(&self) -> &'static str {
        match self {
            LaunchStrategy::Inline => "inline",
            LaunchStrategy::Naive => "naive",
            LaunchStrategy::Coarsen(_) => "coarsen",
            LaunchStrategy::Aggregate => "aggregate",
        }
    }
}

/// The consolidation decision for one launch site (recorded in the
/// compiled executable's metadata and in traces).
#[derive(Debug, Clone, PartialEq)]
pub struct SiteDecision {
    /// `PatternId` of the inner (dynamic-extent) pattern.
    pub pattern: u32,
    /// The chosen strategy.
    pub strategy: LaunchStrategy,
    /// Outer extent `P` evaluated under the launch bindings.
    pub outer: i64,
    /// Estimated mean inner extent (from the workload's size hint).
    pub estimate: i64,
    /// Modeled seconds per strategy, `(name, seconds)`, for reports.
    pub modeled: Vec<(String, f64)>,
    /// One-line human rationale.
    pub reason: String,
}

/// The per-program consolidation plan. `site: None` means the program has
/// no supported dynamic-parallelism launch site (lowering proceeds
/// unchanged).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DynParPlan {
    /// The single supported site's decision, if any.
    pub site: Option<SiteDecision>,
}

impl DynParPlan {
    /// Does this plan change lowering at all?
    pub fn consolidates(&self) -> bool {
        self.site
            .as_ref()
            .is_some_and(|s| s.strategy != LaunchStrategy::Inline)
    }
}

/// What the site's inner pattern does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteShape {
    /// `map(P) { reduce_dyn(d(i), op) { body(i, j) } }` — e.g. SpMV.
    MapReduce(ReduceOp),
    /// `foreach(P) { lets…; foreach_dyn(d(i)) { effects(i, j) } }` —
    /// e.g. a BFS step or a ragged filter-then-map.
    ForeachForeach,
}

/// A discovered launch site: borrowed views into the program's nest.
#[derive(Debug, Clone)]
pub struct LaunchSite<'p> {
    /// The outer (static-extent) pattern.
    pub outer: &'p Pattern,
    /// The inner (dynamic-extent) pattern.
    pub inner: &'p Pattern,
    /// Outer-scope scalar lets preceding the inner pattern (shape B).
    pub lets: Vec<(VarId, &'p Expr)>,
    /// Which shape matched.
    pub shape: SiteShape,
}

/// Expressions a launch site's bodies may hold: scalar math over literals,
/// bound variables, and *array* reads. Patterns, `Iterate`, and collection
/// temporaries are out (those sites fall back to `Inline`).
fn expr_ok(e: &Expr) -> bool {
    match e {
        Expr::Lit(_) | Expr::Var(_) | Expr::SizeOf(_) => true,
        Expr::LengthOf(ReadSrc::Array(_), _) => true,
        Expr::LengthOf(ReadSrc::Var(_), _) => false,
        Expr::Read(ReadSrc::Array(_), idxs) => idxs.iter().all(expr_ok),
        Expr::Read(ReadSrc::Var(_), _) => false,
        Expr::Bin(_, a, b) => expr_ok(a) && expr_ok(b),
        Expr::Un(_, a) => expr_ok(a),
        Expr::Select(c, t, f) => expr_ok(c) && expr_ok(t) && expr_ok(f),
        Expr::Let(_, v, b) => !matches!(**v, Expr::Pat(_)) && expr_ok(v) && expr_ok(b),
        Expr::Iterate { .. } | Expr::Pat(_) => false,
    }
}

/// Find the program's dynamic-parallelism launch site, if its nest matches
/// one of the supported shapes (see [`SiteShape`]). Anything else returns
/// `None` and keeps the baseline lowering.
pub fn find_site(program: &Program) -> Option<LaunchSite<'_>> {
    let root = &program.root;
    if root.size.is_dynamic() || root.dyn_extent.is_some() {
        return None;
    }
    match &root.kind {
        // Shape A: map whose body is directly a dynamic reduce with a
        // pattern-free body, storing to the program output.
        PatternKind::Map => {
            let Body::Value(Expr::Pat(inner)) = &root.body else {
                return None;
            };
            let PatternKind::Reduce { op } = &inner.kind else {
                return None;
            };
            let dyn_e = inner.dyn_extent.as_ref()?;
            let Body::Value(body) = &inner.body else {
                return None;
            };
            program.output?;
            if !expr_ok(dyn_e) || !expr_ok(body) {
                return None;
            }
            Some(LaunchSite {
                outer: root,
                inner,
                lets: Vec::new(),
                shape: SiteShape::MapReduce(*op),
            })
        }
        // Shape B: foreach whose effects are scalar lets followed by
        // exactly one nested dynamic foreach of plain write/atomic
        // effects.
        PatternKind::Foreach => {
            let Body::Effects(effs) = &root.body else {
                return None;
            };
            let mut lets = Vec::new();
            let mut nested: Option<&Pattern> = None;
            for eff in effs {
                match eff {
                    Effect::LetScalar(v, e) if nested.is_none() => {
                        if !expr_ok(e) {
                            return None;
                        }
                        lets.push((*v, e));
                    }
                    Effect::Nested(p) if nested.is_none() => nested = Some(p),
                    _ => return None,
                }
            }
            let inner = nested?;
            if !matches!(inner.kind, PatternKind::Foreach) {
                return None;
            }
            let dyn_e = inner.dyn_extent.as_ref()?;
            if !expr_ok(dyn_e) {
                return None;
            }
            let Body::Effects(inner_effs) = &inner.body else {
                return None;
            };
            for eff in inner_effs {
                match eff {
                    Effect::Write {
                        cond, idx, value, ..
                    }
                    | Effect::AtomicRmw {
                        cond, idx, value, ..
                    } => {
                        if cond.as_ref().is_some_and(|c| !expr_ok(c))
                            || idx.iter().any(|i| !expr_ok(i))
                            || !expr_ok(value)
                        {
                            return None;
                        }
                    }
                    Effect::LetScalar(_, e) => {
                        if !expr_ok(e) {
                            return None;
                        }
                    }
                    Effect::Nested(_) => return None,
                }
            }
            Some(LaunchSite {
                outer: root,
                inner,
                lets,
                shape: SiteShape::ForeachForeach,
            })
        }
        _ => None,
    }
}

/// Lower `program` honoring a consolidation `plan`. With no site (or an
/// `Inline` decision) this is exactly [`lower`]; otherwise the site's nest
/// is compiled into the chosen consolidated kernel structure and the
/// mapping decision is ignored (the kernels are launch-shaped by the
/// strategy, not by the per-level span analysis).
///
/// The `codegen/lower` span names the program, the mapping and the
/// temporaries' layout policy and allocation mode and, when lowering
/// succeeds, counts the kernels and buffers and carries the
/// [`KernelProgram::notes`] joined by `; `.
///
/// # Errors
///
/// Returns [`LowerError`] if the planned site no longer matches the
/// program (stale plan) or a body expression is outside the supported
/// subset.
pub fn lower_planned(
    program: &Program,
    mapping: &MappingDecision,
    opts: &CodegenOptions,
    plan: &DynParPlan,
) -> Result<KernelProgram, LowerError> {
    let mut sp = trace::span("codegen", "lower");
    if let Some(s) = sp.as_mut() {
        s.arg("program", program.name.as_str());
        s.arg("mapping", mapping.to_string());
        s.arg("layout_policy", format!("{:?}", opts.layout));
        s.arg("device_malloc", opts.device_malloc);
    }
    let kernels = match plan.site.as_ref() {
        Some(site) if site.strategy != LaunchStrategy::Inline => consolidate(program, site)?,
        _ => lower(program, mapping, opts)?,
    };
    if let Some(s) = sp.as_mut() {
        s.arg("kernels", kernels.kernels.len());
        s.arg("buffers", kernels.buffers.len());
        s.arg("notes", kernels.notes.join("; "));
    }
    Ok(kernels)
}

/// Compile the planned site's nest into the consolidated kernel structure
/// `site_decision` chose.
fn consolidate(
    program: &Program,
    site_decision: &SiteDecision,
) -> Result<KernelProgram, LowerError> {
    let site = find_site(program).ok_or_else(|| {
        LowerError("dynpar plan refers to a launch site the program no longer has".into())
    })?;
    if site.inner.id.0 != site_decision.pattern {
        return Err(LowerError(format!(
            "dynpar plan targets pattern {} but the site is pattern {}",
            site_decision.pattern, site.inner.id.0
        )));
    }
    // The site's kernels are shaped by the strategy, not by a mapping:
    // lowered under no nest levels and without prefetch, every store is
    // unguarded and every read a plain load.
    let opts = CodegenOptions {
        smem_prefetch: false,
        ..CodegenOptions::default()
    };
    let mut lo = Lowerer::new(program, &[], &opts);
    lo.notes.push(format!(
        "dynpar: {} consolidation at level 1 (P={}, ~{} inner)",
        site_decision.strategy.name(),
        site_decision.outer,
        site_decision.estimate
    ));
    // Reduce-shape accumulation is order-free only from the identity:
    // seed the output with it (rows the site never touches stay identity).
    if let SiteShape::MapReduce(op) = site.shape {
        let out = lo.out_buf()?;
        lo.buffers[out.0 as usize].init = BufferInit::Fill(op.identity());
    }
    let mut b = SiteBuilder { site: &site, lo };
    let (kernels, children) = match site_decision.strategy {
        LaunchStrategy::Naive => b.naive()?,
        LaunchStrategy::Coarsen(k) => b.coarsen(k.max(1))?,
        LaunchStrategy::Aggregate => b.aggregate()?,
        LaunchStrategy::Inline => unreachable!("lower_planned lowers inline sites"),
    };
    Ok(KernelProgram {
        name: program.name.clone(),
        buffers: b.lo.buffers,
        kernels,
        children,
        notes: b.lo.notes,
    })
}

/// Builds the consolidated kernels for one site.
struct SiteBuilder<'p> {
    site: &'p LaunchSite<'p>,
    /// The code generator, for the bodies' expressions, lets and effects,
    /// the program's buffers and the notes.
    lo: Lowerer<'p>,
}

/// Block width of the naive child and the aggregated worker launches
/// (and of the naive launcher).
pub const CHILD_BLOCK: u32 = 128;
/// Width of the per-site scan blocks (also the chunk count of the serial
/// block-sum scan, so one block always suffices for the second phase).
const SCAN_B: u32 = 128;
/// Warp width used by the coarsened kernel.
const WARP: u32 = 32;
/// Binary-search iteration cap: supports outer extents up to 2^47.
const SEARCH_ITERS: i64 = 48;

impl<'p> SiteBuilder<'p> {
    fn outer_size(&self) -> Size {
        self.site.outer.size.clone()
    }

    /// Start a kernel body: no variables bound, locals numbered from
    /// `first` (a child's launch arguments occupy the locals below it).
    fn begin_kernel(&mut self, first: LocalId) {
        self.lo.vars.clear();
        self.lo.next_local = first;
    }

    /// Bind the outer index to `i` and lower the site's outer scalar lets
    /// (each bound for the remainder of the kernel body).
    fn bind_outer(&mut self, i: KExpr, sink: &mut Vec<Stmt>) -> Result<(), LowerError> {
        self.lo.vars.insert(self.site.outer.var, i);
        for &(v, e) in &self.site.lets {
            let value = self.lo.lower_expr(e, sink)?;
            self.lo.bind_local(v, value, sink);
        }
        Ok(())
    }

    /// The inner-element body at `(i, j)`: accumulate-or-effects,
    /// appended to `sink`. `i`/`j` are the outer/inner index expressions.
    fn element_body(&mut self, i: KExpr, j: KExpr, sink: &mut Vec<Stmt>) -> Result<(), LowerError> {
        self.bind_outer(i.clone(), sink)?;
        self.lo.vars.insert(self.site.inner.var, j);
        match self.site.shape {
            SiteShape::MapReduce(op) => {
                let Body::Value(body) = &self.site.inner.body else {
                    return Err(LowerError("shape A inner body is not a value".into()));
                };
                let v = self.lo.lower_expr(body, sink)?;
                sink.push(Stmt::AtomicRmw {
                    buf: self.lo.out_buf()?,
                    idx: i,
                    op,
                    value: v,
                    capture: None,
                });
            }
            SiteShape::ForeachForeach => {
                let Body::Effects(effs) = &self.site.inner.body else {
                    return Err(LowerError("shape B inner body is not effects".into()));
                };
                // The inner pattern is nest level 1; with no level mapped,
                // no store is guarded.
                self.lo.lower_effects(effs, 1, sink)?;
            }
        }
        Ok(())
    }

    /// The clamped inner extent `max(d(i), 0)` assigned to a fresh local.
    fn extent_local(&mut self, i: KExpr, sink: &mut Vec<Stmt>) -> Result<LocalId, LowerError> {
        self.bind_outer(i, sink)?;
        let dyn_e = self
            .site
            .inner
            .dyn_extent
            .as_ref()
            .expect("site has a dynamic extent");
        let d = self.lo.lower_expr(dyn_e, sink)?;
        let l = self.lo.fresh_local();
        sink.push(Stmt::Assign {
            dst: l,
            value: KExpr::max(d, KExpr::imm(0)),
        });
        Ok(l)
    }

    // ------------------------------------------------------------------
    // Naive: one child launch per outer element.
    // ------------------------------------------------------------------

    fn naive(&mut self) -> Result<(Vec<Kernel>, Vec<Kernel>), LowerError> {
        let p = self.outer_size();
        let name = &self.lo.program.name;

        // Parent: i = gtid; if i < P { d = extent(i); launch(child, d, [d, i]) }
        self.begin_kernel(0);
        let i = self.lo.fresh_local();
        let mut then = Vec::new();
        let d = self.extent_local(KExpr::Local(i), &mut then)?;
        then.push(Stmt::ChildLaunch {
            kernel: 0,
            extent: KExpr::Local(d),
            args: vec![KExpr::Local(d), KExpr::Local(i)],
        });
        let parent = Kernel {
            name: format!("{name}_launcher"),
            grid: [
                p.clone() / Size::from(i64::from(CHILD_BLOCK)),
                Size::from(1),
                Size::from(1),
            ],
            block: [CHILD_BLOCK, 1, 1],
            smem: vec![],
            locals: self.lo.next_local,
            body: vec![
                Stmt::Assign {
                    dst: i,
                    value: KExpr::global_tid(Axis::X),
                },
                Stmt::If {
                    cond: KExpr::lt(KExpr::Local(i), KExpr::SizeVal(p)),
                    then,
                    els: vec![],
                },
            ],
        };

        // Child: locals 0 = d, 1 = i (launch args); j = gtid; body(i, j).
        self.begin_kernel(2);
        let j = self.lo.fresh_local();
        let mut cthen = Vec::new();
        self.element_body(KExpr::Local(1), KExpr::Local(j), &mut cthen)?;
        let child = Kernel {
            name: format!("{name}_child"),
            grid: [Size::from(1), Size::from(1), Size::from(1)],
            block: [CHILD_BLOCK, 1, 1],
            smem: vec![],
            locals: self.lo.next_local,
            body: vec![
                Stmt::Assign {
                    dst: j,
                    value: KExpr::global_tid(Axis::X),
                },
                Stmt::If {
                    cond: KExpr::lt(KExpr::Local(j), KExpr::Local(0)),
                    then: cthen,
                    els: vec![],
                },
            ],
        };
        self.lo
            .notes
            .push("dynpar naive: one device-side child grid per outer element".into());
        Ok((vec![parent], vec![child]))
    }

    // ------------------------------------------------------------------
    // Coarsen(k): one kernel, each block serially owns k outer elements,
    // one warp strides each inner extent (warp-synchronous combine).
    // ------------------------------------------------------------------

    fn coarsen(&mut self, k: u32) -> Result<(Vec<Kernel>, Vec<Kernel>), LowerError> {
        let p = self.outer_size();
        self.begin_kernel(0);
        let s = self.lo.fresh_local();
        let i = self.lo.fresh_local();

        let mut per_i = vec![Stmt::Assign {
            dst: i,
            value: KExpr::add(
                KExpr::mul(KExpr::Bid(Axis::X), KExpr::imm(i64::from(k))),
                KExpr::Local(s),
            ),
        }];
        let mut then = Vec::new();
        let d = self.extent_local(KExpr::Local(i), &mut then)?;

        // The loop over the inner extent binds the inner index to `j`; the
        // outer index and lets stay bound from the extent.
        let mut smem = Vec::new();
        match self.site.shape {
            SiteShape::MapReduce(op) => {
                // acc = identity; for (j = tid; j < d; j += 32) acc ⊕= body;
                // then a warp-synchronous shared-memory tree, lane 0 stores.
                let acc = self.lo.fresh_local();
                then.push(Stmt::Assign {
                    dst: acc,
                    value: KExpr::Imm(op.identity()),
                });
                let j = self.lo.fresh_local();
                let mut loop_body = Vec::new();
                let Body::Value(body) = &self.site.inner.body else {
                    return Err(LowerError("shape A inner body is not a value".into()));
                };
                self.lo.vars.insert(self.site.inner.var, KExpr::Local(j));
                let v = self.lo.lower_expr(body, &mut loop_body)?;
                loop_body.push(Stmt::Assign {
                    dst: acc,
                    value: combine(op, KExpr::Local(acc), v),
                });
                then.push(Stmt::For {
                    var: j,
                    start: KExpr::Tid(Axis::X),
                    end: KExpr::Local(d),
                    step: KExpr::imm(i64::from(WARP)),
                    body: loop_body,
                });
                let red = smem.len() as u32;
                smem.push(SmemDecl {
                    name: "red".into(),
                    len: WARP,
                });
                then.push(Stmt::SmemStore {
                    arr: red,
                    idx: KExpr::Tid(Axis::X),
                    value: KExpr::Local(acc),
                });
                let slot = |e: KExpr| KExpr::SmemLoad {
                    arr: red,
                    idx: Box::new(e),
                };
                let mut stride = WARP / 2;
                while stride >= 1 {
                    then.push(Stmt::If {
                        cond: KExpr::lt(KExpr::Tid(Axis::X), KExpr::imm(i64::from(stride))),
                        then: vec![Stmt::SmemStore {
                            arr: red,
                            idx: KExpr::Tid(Axis::X),
                            value: combine(
                                op,
                                slot(KExpr::Tid(Axis::X)),
                                slot(KExpr::add(
                                    KExpr::Tid(Axis::X),
                                    KExpr::imm(i64::from(stride)),
                                )),
                            ),
                        }],
                        els: vec![],
                    });
                    stride /= 2;
                }
                then.push(Stmt::If {
                    cond: KExpr::eq(KExpr::Tid(Axis::X), KExpr::imm(0)),
                    then: vec![Stmt::Store {
                        buf: self.lo.out_buf()?,
                        idx: KExpr::Local(i),
                        value: slot(KExpr::imm(0)),
                    }],
                    els: vec![],
                });
            }
            SiteShape::ForeachForeach => {
                let j = self.lo.fresh_local();
                let mut loop_body = Vec::new();
                let Body::Effects(effs) = &self.site.inner.body else {
                    return Err(LowerError("shape B inner body is not effects".into()));
                };
                self.lo.vars.insert(self.site.inner.var, KExpr::Local(j));
                self.lo.lower_effects(effs, 1, &mut loop_body)?;
                then.push(Stmt::For {
                    var: j,
                    start: KExpr::Tid(Axis::X),
                    end: KExpr::Local(d),
                    step: KExpr::imm(i64::from(WARP)),
                    body: loop_body,
                });
            }
        }
        per_i.push(Stmt::If {
            cond: KExpr::lt(KExpr::Local(i), KExpr::SizeVal(p.clone())),
            then,
            els: vec![],
        });

        let kernel = Kernel {
            name: format!("{}_coarsen", self.lo.program.name),
            grid: [p / Size::from(i64::from(k)), Size::from(1), Size::from(1)],
            block: [WARP, 1, 1],
            smem,
            locals: self.lo.next_local,
            body: vec![Stmt::For {
                var: s,
                start: KExpr::imm(0),
                end: KExpr::imm(i64::from(k)),
                step: KExpr::imm(1),
                body: per_i,
            }],
        };
        self.lo.notes.push(format!(
            "dynpar coarsen: {k} outer elements per block, one warp per inner extent"
        ));
        Ok((vec![kernel], vec![]))
    }

    // ------------------------------------------------------------------
    // Aggregate: three-kernel prefix scan of the inner extents into a
    // work queue, then ONE consolidated child grid over the total.
    // ------------------------------------------------------------------

    fn aggregate(&mut self) -> Result<(Vec<Kernel>, Vec<Kernel>), LowerError> {
        let p = self.outer_size();
        let name = &self.lo.program.name;
        let off = self.lo.add_buffer(
            format!("{name}_off"),
            p.clone() + Size::from(1),
            BufferInit::Zero,
        );
        let nblocks = p.clone() / Size::from(i64::from(SCAN_B));
        let bs = self.lo.add_buffer(
            format!("{name}_blocksums"),
            nblocks.clone(),
            BufferInit::Zero,
        );

        // k1: per-block exclusive scan of the extents. Each block loads
        // its SCAN_B extents into shared memory, thread 0 serially
        // prefix-sums them (blocks run concurrently, so the serial walk is
        // hidden by occupancy), every thread writes its exclusive prefix
        // to off[i], and thread 0 stores the block total to bs[bid].
        self.begin_kernel(0);
        let i1 = self.lo.fresh_local();
        let d1 = self.lo.fresh_local();
        let mut body1 = vec![
            Stmt::Assign {
                dst: i1,
                value: KExpr::global_tid(Axis::X),
            },
            Stmt::Assign {
                dst: d1,
                value: KExpr::imm(0),
            },
        ];
        let mut ext1 = Vec::new();
        let dl = self.extent_local(KExpr::Local(i1), &mut ext1)?;
        ext1.push(Stmt::Assign {
            dst: d1,
            value: KExpr::Local(dl),
        });
        body1.push(Stmt::If {
            cond: KExpr::lt(KExpr::Local(i1), KExpr::SizeVal(p.clone())),
            then: ext1,
            els: vec![],
        });
        let sums = 0u32;
        body1.push(Stmt::SmemStore {
            arr: sums,
            idx: KExpr::Tid(Axis::X),
            value: KExpr::Local(d1),
        });
        body1.push(Stmt::Sync);
        let run1 = self.lo.fresh_local();
        let cvar1 = self.lo.fresh_local();
        let tmp1 = self.lo.fresh_local();
        body1.push(lane0_scan(run1, cvar1, tmp1, bs, KExpr::Bid(Axis::X)));
        body1.push(Stmt::Sync);
        body1.push(Stmt::If {
            cond: KExpr::lt(KExpr::Local(i1), KExpr::SizeVal(p.clone())),
            then: vec![Stmt::Store {
                buf: off,
                idx: KExpr::Local(i1),
                value: KExpr::SmemLoad {
                    arr: sums,
                    idx: Box::new(KExpr::Tid(Axis::X)),
                },
            }],
            els: vec![],
        });
        let k1 = Kernel {
            name: format!("{name}_scan_blocks"),
            grid: [nblocks.clone(), Size::from(1), Size::from(1)],
            block: [SCAN_B, 1, 1],
            smem: vec![SmemDecl {
                name: "sums".into(),
                len: SCAN_B,
            }],
            locals: self.lo.next_local,
            body: body1,
        };

        // k2: one SCAN_B-thread block turns bs[] into exclusive prefixes
        // of the block totals (chunked three-phase scan) and stores the
        // grand total at off[P].
        let k2 = self.scan_block_sums(bs, off, &nblocks, &p);

        // k3: off[i] += bs[bid] finalizes the global exclusive prefix;
        // thread 0 launches the single consolidated worker grid over the
        // total (children execute after this kernel completes).
        self.begin_kernel(0);
        let i3 = self.lo.fresh_local();
        let t3 = self.lo.fresh_local();
        let body3 = vec![
            Stmt::Assign {
                dst: i3,
                value: KExpr::global_tid(Axis::X),
            },
            Stmt::If {
                cond: KExpr::lt(KExpr::Local(i3), KExpr::SizeVal(p.clone())),
                then: vec![Stmt::Store {
                    buf: off,
                    idx: KExpr::Local(i3),
                    value: KExpr::add(
                        KExpr::Load {
                            buf: off,
                            idx: Box::new(KExpr::Local(i3)),
                        },
                        KExpr::Load {
                            buf: bs,
                            idx: Box::new(KExpr::Bid(Axis::X)),
                        },
                    ),
                }],
                els: vec![],
            },
            Stmt::If {
                cond: KExpr::eq(KExpr::global_tid(Axis::X), KExpr::imm(0)),
                then: vec![
                    Stmt::Assign {
                        dst: t3,
                        value: KExpr::Load {
                            buf: off,
                            idx: Box::new(KExpr::SizeVal(p.clone())),
                        },
                    },
                    Stmt::ChildLaunch {
                        kernel: 0,
                        extent: KExpr::Local(t3),
                        args: vec![KExpr::Local(t3)],
                    },
                ],
                els: vec![],
            },
        ];
        let k3 = Kernel {
            name: format!("{name}_scan_apply"),
            grid: [nblocks, Size::from(1), Size::from(1)],
            block: [SCAN_B, 1, 1],
            smem: vec![],
            locals: self.lo.next_local,
            body: body3,
        };

        let worker = self.aggregate_worker(off, &p)?;
        self.lo
            .notes
            .push("dynpar aggregate: prefix-summed work queue, one consolidated child grid".into());
        Ok((vec![k1, k2, k3], vec![worker]))
    }

    /// k2 of the aggregation scan: a single block scans the NB block sums
    /// in place (exclusive) and stores the grand total at `off[P]`.
    /// Three-phase chunked scan: per-thread chunk sums → thread-0 serial
    /// scan of the SCAN_B chunk sums → per-thread chunk rewrite.
    fn scan_block_sums(&mut self, bs: BufId, off: BufId, nblocks: &Size, p: &Size) -> Kernel {
        self.begin_kernel(0);
        let chunk = KExpr::SizeVal(nblocks.clone() / Size::from(i64::from(SCAN_B)));
        let lo = self.lo.fresh_local();
        let hi = self.lo.fresh_local();
        let s = self.lo.fresh_local();
        let iv = self.lo.fresh_local();
        let run = self.lo.fresh_local();
        let cv = self.lo.fresh_local();
        let tmp = self.lo.fresh_local();
        let run2 = self.lo.fresh_local();
        let i2 = self.lo.fresh_local();
        let dt = self.lo.fresh_local();
        let sums = 0u32;
        let body = vec![
            Stmt::Assign {
                dst: lo,
                value: KExpr::mul(KExpr::Tid(Axis::X), chunk.clone()),
            },
            Stmt::Assign {
                dst: hi,
                value: KExpr::min(
                    KExpr::mul(KExpr::add(KExpr::Tid(Axis::X), KExpr::imm(1)), chunk),
                    KExpr::SizeVal(nblocks.clone()),
                ),
            },
            Stmt::Assign {
                dst: s,
                value: KExpr::imm(0),
            },
            Stmt::For {
                var: iv,
                start: KExpr::Local(lo),
                end: KExpr::Local(hi),
                step: KExpr::imm(1),
                body: vec![Stmt::Assign {
                    dst: s,
                    value: KExpr::add(
                        KExpr::Local(s),
                        KExpr::Load {
                            buf: bs,
                            idx: Box::new(KExpr::Local(iv)),
                        },
                    ),
                }],
            },
            Stmt::SmemStore {
                arr: sums,
                idx: KExpr::Tid(Axis::X),
                value: KExpr::Local(s),
            },
            Stmt::Sync,
            lane0_scan(run, cv, tmp, off, KExpr::SizeVal(p.clone())),
            Stmt::Sync,
            Stmt::Assign {
                dst: run2,
                value: KExpr::SmemLoad {
                    arr: sums,
                    idx: Box::new(KExpr::Tid(Axis::X)),
                },
            },
            Stmt::For {
                var: i2,
                start: KExpr::Local(lo),
                end: KExpr::Local(hi),
                step: KExpr::imm(1),
                body: vec![
                    Stmt::Assign {
                        dst: dt,
                        value: KExpr::Load {
                            buf: bs,
                            idx: Box::new(KExpr::Local(i2)),
                        },
                    },
                    Stmt::Store {
                        buf: bs,
                        idx: KExpr::Local(i2),
                        value: KExpr::Local(run2),
                    },
                    Stmt::Assign {
                        dst: run2,
                        value: KExpr::add(KExpr::Local(run2), KExpr::Local(dt)),
                    },
                ],
            },
        ];
        Kernel {
            name: format!("{}_scan_sums", self.lo.program.name),
            grid: [Size::from(1), Size::from(1), Size::from(1)],
            block: [SCAN_B, 1, 1],
            smem: vec![SmemDecl {
                name: "sums".into(),
                len: SCAN_B,
            }],
            locals: self.lo.next_local,
            body,
        }
    }

    /// The consolidated worker: thread `t` of the single child grid binary
    /// searches `off[]` for the largest `i` with `off[i] <= t`, recovers
    /// `j = t - off[i]`, and executes the element body.
    fn aggregate_worker(&mut self, off: BufId, p: &Size) -> Result<Kernel, LowerError> {
        self.begin_kernel(1); // local 0 = T (launch arg)
        let t = self.lo.fresh_local();
        let lo = self.lo.fresh_local();
        let hi = self.lo.fresh_local();
        let mid = self.lo.fresh_local();
        let it = self.lo.fresh_local();
        let i = self.lo.fresh_local();
        let j = self.lo.fresh_local();
        let offload = |e: KExpr| KExpr::Load {
            buf: off,
            idx: Box::new(e),
        };
        let mut then = vec![
            Stmt::Assign {
                dst: lo,
                value: KExpr::imm(0),
            },
            Stmt::Assign {
                dst: hi,
                value: KExpr::sub(KExpr::SizeVal(p.clone()), KExpr::imm(1)),
            },
            Stmt::For {
                var: it,
                start: KExpr::imm(0),
                end: KExpr::imm(SEARCH_ITERS),
                step: KExpr::imm(1),
                body: vec![
                    Stmt::If {
                        cond: KExpr::ge(KExpr::Local(lo), KExpr::Local(hi)),
                        then: vec![Stmt::Break],
                        els: vec![],
                    },
                    Stmt::Assign {
                        dst: mid,
                        value: KExpr::Un(
                            UnOp::Floor,
                            Box::new(KExpr::div(
                                KExpr::add(
                                    KExpr::add(KExpr::Local(lo), KExpr::Local(hi)),
                                    KExpr::imm(1),
                                ),
                                KExpr::imm(2),
                            )),
                        ),
                    },
                    Stmt::If {
                        cond: KExpr::le(offload(KExpr::Local(mid)), KExpr::Local(t)),
                        then: vec![Stmt::Assign {
                            dst: lo,
                            value: KExpr::Local(mid),
                        }],
                        els: vec![Stmt::Assign {
                            dst: hi,
                            value: KExpr::sub(KExpr::Local(mid), KExpr::imm(1)),
                        }],
                    },
                ],
            },
            Stmt::Assign {
                dst: i,
                value: KExpr::Local(lo),
            },
            Stmt::Assign {
                dst: j,
                value: KExpr::sub(KExpr::Local(t), offload(KExpr::Local(i))),
            },
        ];
        self.element_body(KExpr::Local(i), KExpr::Local(j), &mut then)?;
        Ok(Kernel {
            name: format!("{}_worker", self.lo.program.name),
            grid: [Size::from(1), Size::from(1), Size::from(1)],
            block: [CHILD_BLOCK, 1, 1],
            smem: vec![],
            locals: self.lo.next_local,
            body: vec![
                Stmt::Assign {
                    dst: t,
                    value: KExpr::global_tid(Axis::X),
                },
                Stmt::If {
                    cond: KExpr::lt(KExpr::Local(t), KExpr::Local(0)),
                    then,
                    els: vec![],
                },
            ],
        })
    }
}

/// Thread 0's pass over the block's `SCAN_B` shared `sums` (array 0):
/// each slot becomes its exclusive prefix, and the total is stored at
/// `total[at]`. `run`, `c` and `tmp` are its locals.
fn lane0_scan(run: LocalId, c: LocalId, tmp: LocalId, total: BufId, at: KExpr) -> Stmt {
    let sums = 0u32;
    Stmt::If {
        cond: KExpr::eq(KExpr::Tid(Axis::X), KExpr::imm(0)),
        then: vec![
            Stmt::Assign {
                dst: run,
                value: KExpr::imm(0),
            },
            Stmt::For {
                var: c,
                start: KExpr::imm(0),
                end: KExpr::imm(i64::from(SCAN_B)),
                step: KExpr::imm(1),
                body: vec![
                    Stmt::Assign {
                        dst: tmp,
                        value: KExpr::SmemLoad {
                            arr: sums,
                            idx: Box::new(KExpr::Local(c)),
                        },
                    },
                    Stmt::SmemStore {
                        arr: sums,
                        idx: KExpr::Local(c),
                        value: KExpr::Local(run),
                    },
                    Stmt::Assign {
                        dst: run,
                        value: KExpr::add(KExpr::Local(run), KExpr::Local(tmp)),
                    },
                ],
            },
            Stmt::Store {
                buf: total,
                idx: at,
                value: KExpr::Local(run),
            },
        ],
        els: vec![],
    }
}
