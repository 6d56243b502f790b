//! Static locality analysis (the paper's Section II premise, made a proof).
//!
//! The mapping analysis *scores* locality; the simulator *measures* it.
//! This module sits between the two: from the affine access summaries in
//! `multidim_ir` it derives, **per candidate mapping**, facts that are
//! sound against the simulator's memory model:
//!
//! * a coalescing class for every global access — coalesced / strided(k) /
//!   broadcast / scattered — with a [`Verdict`] saying whether the class
//!   is proven (all coefficients exactly known) or heuristic;
//! * a **transaction lower bound**: the simulated run must issue at least
//!   this many 128-byte DRAM transactions, no matter what the lowered code
//!   looks like (see "Soundness" below);
//! * a **seconds lower bound**: the simulator's own floor of each kernel
//!   ([`multidim_sim::seconds_floor`]: its issue, latency and bandwidth
//!   terms over the counters a static walk proves, plus launch and
//!   dispatch), raised to the roofline memory floor of the transaction
//!   bound where that is larger — the pruning hook used by
//!   [`multidim_mapping::tune_pruned`], also computed alone by
//!   [`seconds_lower_bound`];
//! * per-kernel shared-memory **footprint proofs** (overflow = `Error`
//!   before the simulator ever faults) and per-access **bank-conflict
//!   degrees**, proven by enumerating the real block's warps — once per
//!   distinct lane-coefficient vector of a kernel, since the degree
//!   depends on nothing else;
//! * per-nest-level **reuse summaries** (which reads touch each element
//!   more than once, and whether the Section V-B prefetch stages them).
//!
//! # Soundness of the transaction bound
//!
//! Every warp-level request has at most 32 participating lanes and costs
//! at least one transaction, so a site executed by at least `E` lanes
//! contributes at least `⌈E / C⌉` transactions whenever at most `C` lanes
//! of one warp can ever share one 128-byte segment. `C = 32` needs no
//! addressing knowledge at all; when the address is affine with exactly
//! known coefficients we refine `C` by enumerating the block's warps and
//! sliding a 127-byte window over each warp's per-lane byte offsets. `C`
//! depends only on the block dims and the per-axis byte coefficients, so
//! each distinct coefficient vector of a mapping is enumerated once.
//! Sites whose execution count is *not* guaranteed (conditional branches,
//! filter bodies, sequential `Iterate` trip estimates, atomics, reads the
//! prefetch may stage through shared memory) contribute zero — dropping a
//! site only lowers the bound, so it is always sound.
//!
//! # Soundness of the seconds bound
//!
//! A kernel's simulated time is its largest pipe (issue, latency,
//! bandwidth) plus its malloc and launch overhead, and each term of the
//! kernel's static floor is at most the simulator's. Over all kernels,
//! `Σ_k max(pipes_k) ≥ max(Σ_k issue_k, Σ_k latency_k, Σ_k bandwidth_k)`,
//! so both the sum of the floors' largest pipes and the memory floor of
//! the whole run's transaction bound sit below the simulated pipes; the
//! larger of the two plus every kernel's overhead is the bound.

use crate::diag::{Code, Diagnostic, Severity, Verdict};
use crate::eval::eval_signed;
use multidim_codegen::{KExpr, Kernel, KernelProgram, LocalId, SmemId, Stmt};
use multidim_device::{GpuSpec, WARP_SIZE};
use multidim_ir::{
    collect_accesses, filter_patterns, AffineForm, BinOp, Bindings, PatternId, Program, UnOp, VarId,
};
use multidim_mapping::{MappingDecision, Span};
use multidim_sim::SimResult;
use std::collections::BTreeMap;

/// Window (bytes) within which two lane addresses can share one aligned
/// 128-byte transaction segment.
const SEGMENT_WINDOW: i128 = 127;

// ---------------------------------------------------------------------------
// Mapping-independent facts
// ---------------------------------------------------------------------------

/// One access site's pre-evaluated facts (see [`LocalityFacts`]).
#[derive(Debug, Clone)]
pub(crate) struct SiteFacts {
    array_name: String,
    has_array: bool,
    flexible: bool,
    elem_bytes: u64,
    is_write: bool,
    /// Innermost enclosing pattern (diagnostic anchor).
    pattern: PatternId,
    /// `true` when every valid index tuple is guaranteed to execute the
    /// access exactly once (no branches, no filter ancestor, no iterate
    /// multiplier, not atomic).
    countable: bool,
    /// Exact product of the chain extents, when all are exactly known.
    executions: Option<u64>,
    nonaffine: bool,
    /// Chain links: `(nest level, var, extent value, extent exact)`.
    chain: Vec<(usize, VarId, i64, bool)>,
    /// Evaluated address coefficient per chain var: `(value, exact)`.
    coeffs: BTreeMap<VarId, (i64, bool)>,
    /// The address mentions a variable outside the pattern chain
    /// (an `Iterate` loop var): per-request-uniform but unmodeled.
    foreign_terms: bool,
    /// Shaped like a Section V-B prefetch candidate (`a[outer]`, read,
    /// single-level chain); whether the prefetch *fires* also depends on
    /// the mapping — see [`locality_of`].
    prefetch_shape: bool,
}

/// Mapping-independent locality facts for one program, pre-evaluated under
/// launch bindings. Compute once, then call [`locality_of`] per candidate
/// mapping — the per-candidate work is a few integer enumerations, cheap
/// enough to run inside the autotune loop.
#[derive(Debug, Clone)]
pub struct LocalityFacts {
    /// Program name (diagnostics).
    pub program: String,
    pub(crate) sites: Vec<SiteFacts>,
}

impl LocalityFacts {
    /// Distill `program`'s access summaries under `bindings`.
    ///
    /// Pass the program that will actually be lowered (i.e. *after*
    /// map→reduce fusion) — the facts describe that program's accesses.
    pub fn of(program: &Program, bindings: &Bindings) -> LocalityFacts {
        let filters = filter_patterns(program);
        let mut sites = Vec::new();
        for a in collect_accesses(program) {
            let under_filter = a.chain.iter().any(|l| filters.contains(&l.pattern));
            let countable =
                a.branch_depth == 0 && a.iterate_factor == 1 && !a.atomic && !under_filter;
            let chain: Vec<(usize, VarId, i64, bool)> = a
                .chain
                .iter()
                .map(|l| {
                    let s = eval_signed(&l.size, bindings);
                    (l.level, l.var, s.value, s.exact)
                })
                .collect();
            let mut executions: Option<u64> = Some(1);
            for &(_, _, v, exact) in &chain {
                executions = match executions {
                    Some(e) if exact && v >= 0 => e.checked_mul(v as u64),
                    _ => None,
                };
            }
            let (coeffs, foreign_terms, nonaffine, const_zero) = match &a.addr {
                AffineForm::Affine { terms, constant } => {
                    let chain_vars: Vec<VarId> = chain.iter().map(|c| c.1).collect();
                    let mut coeffs = BTreeMap::new();
                    let mut foreign = false;
                    for (v, c) in terms {
                        if chain_vars.contains(v) {
                            let s = eval_signed(c, bindings);
                            coeffs.insert(*v, (s.value, s.exact));
                        } else {
                            foreign = true;
                        }
                    }
                    let k = eval_signed(constant, bindings);
                    (coeffs, foreign, false, k.value == 0)
                }
                AffineForm::NonAffine => (BTreeMap::new(), false, true, false),
            };
            // Over-approximates lowering's syntactic `a[outer]` check: a
            // site this flags *might* be staged through shared memory, so
            // the transaction bound must not count it when the prefetch
            // can fire.
            let prefetch_shape = !a.is_write
                && a.array.is_some()
                && chain.len() == 1
                && !nonaffine
                && !foreign_terms
                && const_zero
                && coeffs.len() == 1
                && coeffs.get(&chain[0].1).map(|c| c.0) == Some(1);
            let array_name = match a.array {
                Some(id) => program.array(id).name.clone(),
                None => "<temp>".to_string(),
            };
            sites.push(SiteFacts {
                array_name,
                has_array: a.array.is_some(),
                flexible: a.flexible_layout,
                elem_bytes: a.elem_bytes,
                is_write: a.is_write,
                pattern: a.chain.last().map(|l| l.pattern).unwrap_or(program.root.id),
                countable,
                executions,
                nonaffine,
                chain,
                coeffs,
                foreign_terms,
                prefetch_shape,
            });
        }
        LocalityFacts {
            program: program.name.clone(),
            sites,
        }
    }
}

// ---------------------------------------------------------------------------
// Per-mapping summary
// ---------------------------------------------------------------------------

/// Coalescing class of one global access under one mapping, along the
/// hardware `x` dimension (where coalescing happens).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessClass {
    /// Adjacent `x` lanes touch adjacent elements (stride ±1).
    Coalesced,
    /// Adjacent `x` lanes are `k` elements apart (`|k| ≥ 2`).
    Strided(i64),
    /// The address does not vary with `x` — one segment serves the warp.
    Broadcast,
    /// Data-dependent (non-affine) address: no coalescing provable.
    Scattered,
    /// The stride involves an unbound symbol or dynamic estimate.
    Unknown,
}

impl std::fmt::Display for AccessClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessClass::Coalesced => write!(f, "coalesced"),
            AccessClass::Strided(k) => write!(f, "strided({k})"),
            AccessClass::Broadcast => write!(f, "broadcast"),
            AccessClass::Scattered => write!(f, "scattered"),
            AccessClass::Unknown => write!(f, "unknown"),
        }
    }
}

/// One global access's locality verdict under a candidate mapping.
#[derive(Debug, Clone)]
pub struct AccessLocality {
    /// Array name (`<temp>` for compiler-laid-out temporaries).
    pub array: String,
    /// Innermost enclosing pattern.
    pub pattern: PatternId,
    /// `true` for stores.
    pub is_write: bool,
    /// Coalescing class along `x`.
    pub class: AccessClass,
    /// `Proven` when every coefficient behind the class is exactly known.
    pub verdict: Verdict,
    /// Guaranteed execution count (product of chain extents), if exact.
    pub executions: Option<u64>,
    /// Max lanes of one warp that can share a 128-byte segment here.
    pub segment_capacity: u64,
    /// This site's contribution to [`LocalitySummary::tx_lower_bound`].
    pub transactions_lb: u64,
    /// Why the site contributes zero to the bound, when it does.
    pub dropped: Option<&'static str>,
}

/// Bank-conflict proof for one shared-memory access site.
#[derive(Debug, Clone)]
pub struct BankProof {
    /// Shared array name.
    pub smem: String,
    /// Worst-case serialized passes per request (`1` = conflict-free),
    /// when the lane-affine index could be evaluated.
    pub degree: Option<u64>,
    /// `Proven` = conflict-free for every request; `Refuted` = a full,
    /// unguarded warp provably conflicts; `Unknown` otherwise.
    pub conflict_free: Verdict,
    /// The access sits under a lane-divergent guard or loop.
    pub guarded: bool,
}

/// Shared-memory proof for one kernel: footprint vs. capacity plus the
/// per-site bank-conflict verdicts.
#[derive(Debug, Clone)]
pub struct SmemProof {
    /// Kernel name.
    pub kernel: String,
    /// Static per-block shared-memory footprint (bytes).
    pub bytes: u64,
    /// Device capacity per SM (bytes).
    pub capacity: u64,
    /// Proven overflow: the kernel cannot launch on this device.
    pub overflow: bool,
    /// The footprint limits residency to one block per SM.
    pub pressure: bool,
    /// Bank-conflict proofs, one per static shared-memory access.
    pub banks: Vec<BankProof>,
}

/// Temporal reuse of one read across one nest level.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ReuseSummary {
    /// Array name.
    pub array: String,
    /// Innermost enclosing pattern of the read.
    pub pattern: PatternId,
    /// The nest level whose index the address ignores.
    pub level: usize,
    /// Each element is touched this many times across that level.
    pub factor: u64,
    /// The Section V-B prefetch stages this read through shared memory.
    pub staged: bool,
}

/// Everything the locality analysis proved about one (program, mapping)
/// pair. Produced by [`locality_of`]; consumed by MD010–MD015 diagnostics
/// ([`LocalitySummary::diagnostics`]), the search pruning hook
/// (`seconds_lower_bound`), and the simulator cross-check
/// ([`locality_cross_check`]).
#[derive(Debug, Clone)]
pub struct LocalitySummary {
    /// Program name.
    pub program: String,
    /// Per-global-access classifications, in access-collection order.
    pub accesses: Vec<AccessLocality>,
    /// Per-kernel shared-memory proofs, in kernel order.
    pub smem: Vec<SmemProof>,
    /// Reuse summaries, deduplicated by (array, pattern, level).
    pub reuse: Vec<ReuseSummary>,
    /// Proven lower bound on DRAM transactions for the whole program run.
    pub tx_lower_bound: u64,
    /// Proven lower bound on simulated seconds: `Σ_k overhead_k +
    /// max(Σ_k max(issue_k, latency_k, bandwidth_k), memory floor of
    /// tx_lower_bound)` over the kernels' static floors (see
    /// [`seconds_lower_bound`]); at most the simulated `total_seconds` of
    /// any run that succeeds.
    pub seconds_lower_bound: f64,
}

/// Analyze one candidate mapping.
///
/// * `facts` — [`LocalityFacts::of`] the (fused) program being lowered;
/// * `kernels` — the lowered [`KernelProgram`] for this mapping (grid
///   sizes and shared arrays come from here, so `Split` demotion and
///   prefetch decisions are reflected faithfully);
/// * `smem_prefetch` — the `CodegenOptions::smem_prefetch` flag used for
///   lowering (decides whether prefetch-shaped reads may be staged).
pub fn locality_of(
    facts: &LocalityFacts,
    mapping: &MappingDecision,
    kernels: &KernelProgram,
    bindings: &Bindings,
    gpu: &GpuSpec,
    smem_prefetch: bool,
) -> LocalitySummary {
    let mut layout = Layout::of(mapping, smem_prefetch);
    let x_level: Option<usize> = mapping.levels().iter().position(|l| l.dim.is_x());

    let mut accesses = Vec::new();
    let mut reuse_set: BTreeMap<(String, PatternId, usize), ReuseSummary> = BTreeMap::new();
    let mut tx_lb: u64 = 0;

    for site in &facts.sites {
        // -- classification along x ------------------------------------
        let (class, verdict) = if site.nonaffine {
            (AccessClass::Scattered, Verdict::Proven)
        } else {
            let x_link = site
                .chain
                .iter()
                .find(|(lvl, ..)| x_level == Some(*lvl) && *lvl < mapping.depth());
            match x_link {
                None => (AccessClass::Broadcast, Verdict::Proven),
                Some((_, var, _, _)) => {
                    let (c, exact) = site.coeffs.get(var).copied().unwrap_or((0, true));
                    if !exact {
                        (AccessClass::Unknown, Verdict::Unknown)
                    } else if c == 0 {
                        (AccessClass::Broadcast, Verdict::Proven)
                    } else if c.abs() == 1 {
                        (AccessClass::Coalesced, Verdict::Proven)
                    } else {
                        (AccessClass::Strided(c), Verdict::Proven)
                    }
                }
            }
        };

        // -- reuse (reads only; informational, no exactness needed) ----
        if !site.is_write {
            for &(lvl, var, extent, exact) in &site.chain {
                let coeff_zero =
                    !site.nonaffine && site.coeffs.get(&var).is_none_or(|&(v, e)| e && v == 0);
                if exact && extent >= 2 && coeff_zero {
                    reuse_set
                        .entry((site.array_name.clone(), site.pattern, lvl))
                        .or_insert(ReuseSummary {
                            array: site.array_name.clone(),
                            pattern: site.pattern,
                            level: lvl,
                            factor: extent as u64,
                            staged: site.prefetch_shape && layout.prefetch_active,
                        });
                }
            }
        }

        let bound = layout.transactions(site);
        tx_lb += bound.transactions;
        accesses.push(AccessLocality {
            array: site.array_name.clone(),
            pattern: site.pattern,
            is_write: site.is_write,
            class,
            verdict,
            executions: site.executions,
            segment_capacity: bound.capacity,
            transactions_lb: bound.transactions,
            dropped: bound.dropped,
        });
    }

    // -- per-kernel shared-memory proofs ---------------------------------
    let smem = kernels
        .kernels
        .iter()
        .map(|k| {
            let bytes = u64::from(k.smem_bytes());
            let capacity = u64::from(gpu.smem_per_sm);
            SmemProof {
                kernel: k.name.clone(),
                bytes,
                capacity,
                overflow: bytes > capacity,
                pressure: bytes.saturating_mul(2) > capacity && bytes <= capacity,
                banks: bank_proofs(k, bindings, gpu),
            }
        })
        .collect();

    LocalitySummary {
        program: facts.program.clone(),
        accesses,
        smem,
        reuse: reuse_set.into_values().collect(),
        tx_lower_bound: tx_lb,
        seconds_lower_bound: combined_floor(kernels, bindings, gpu, tx_lb),
    }
}

/// [`locality_of`]`(..).seconds_lower_bound` alone, bit for bit: the
/// per-site transaction bound and the simulator's floor, without the
/// bank-conflict proofs, reuse summaries or access list. The autotuner's
/// pruning bound.
pub fn seconds_lower_bound(
    facts: &LocalityFacts,
    mapping: &MappingDecision,
    kernels: &KernelProgram,
    bindings: &Bindings,
    gpu: &GpuSpec,
    smem_prefetch: bool,
) -> f64 {
    let mut layout = Layout::of(mapping, smem_prefetch);
    let tx_lb = facts
        .sites
        .iter()
        .map(|site| layout.transactions(site).transactions)
        .sum();
    combined_floor(kernels, bindings, gpu, tx_lb)
}

/// The seconds floor of a run that moves at least `tx_lb` transactions:
/// `Σ_k overhead_k + max(Σ_k max(issue_k, latency_k, bandwidth_k),
/// memory_floor(tx_lb))` over [`multidim_sim::seconds_floor`]'s kernels.
/// Each kernel's simulated time is at least `overhead_k` plus its largest
/// pipe, and both the sum of those pipes and the memory floor bound the
/// sum of the simulated ones from below (`Σ max ≥ max Σ`). With a size
/// of the kernels unbound the simulator cannot run the program at all;
/// the floor is then the memory floor plus one launch per kernel.
fn combined_floor(kernels: &KernelProgram, bindings: &Bindings, gpu: &GpuSpec, tx_lb: u64) -> f64 {
    let memory = multidim_sim::memory_floor_seconds(gpu, tx_lb);
    let Ok(floors) = multidim_sim::seconds_floor(kernels, gpu, bindings) else {
        return memory + kernels.kernels.len() as f64 * gpu.kernel_launch_overhead_s;
    };
    let (mut overhead, mut pipes) = (0.0f64, 0.0f64);
    for k in floors {
        overhead += k.time.overhead;
        pipes += k.time.issue.max(k.time.bandwidth).max(k.time.latency);
    }
    overhead + pipes.max(memory)
}

/// What the per-site transaction bound needs of a mapping: the block
/// dims exactly as lowering assigns them, and whether the Section V-B
/// prefetch may fire.
struct Layout {
    depth: usize,
    prefetch_active: bool,
    any_split: bool,
    dims: [u64; 3],
    /// `false` when two levels share a hardware axis or one uses a dim
    /// ≥ 3: the refined capacity is then refused.
    axes_ok: bool,
    level_axis: Vec<Option<usize>>,
    /// [`warp_capacity`] of each byte-coefficient vector met so far: the
    /// capacity depends on nothing else, so each vector is proven once.
    capacities: Vec<([i128; 3], u64)>,
}

/// One site's share of [`LocalitySummary::tx_lower_bound`].
struct SiteBound {
    capacity: u64,
    transactions: u64,
    dropped: Option<&'static str>,
}

impl Layout {
    fn of(mapping: &MappingDecision, smem_prefetch: bool) -> Layout {
        let prefetch_active = smem_prefetch
            && mapping.depth() >= 2
            && !mapping.level(0).dim.is_x()
            && mapping.level(0).span == Span::Span(1)
            && mapping.level(0).block_size >= 2;
        let any_split = mapping
            .levels()
            .iter()
            .any(|l| matches!(l.span, Span::Split(_)));
        let mut dims = [1u64; 3];
        let mut axes_ok = true;
        let mut level_axis = Vec::with_capacity(mapping.depth());
        for lm in mapping.levels() {
            let a = lm.dim.0 as usize;
            if a >= 3 || dims[a] != 1 {
                axes_ok = false;
                level_axis.push(None);
                continue;
            }
            dims[a] = u64::from(lm.block_size.max(1));
            level_axis.push(Some(a));
        }
        Layout {
            depth: mapping.depth(),
            prefetch_active,
            any_split,
            dims,
            axes_ok,
            level_axis,
            capacities: Vec::new(),
        }
    }

    fn transactions(&mut self, site: &SiteFacts) -> SiteBound {
        let mut dropped: Option<&'static str> = None;
        if !site.countable {
            dropped = Some("conditional, filtered, iterated, or atomic execution");
        } else if site.executions.is_none() {
            dropped = Some("execution count not exactly known");
        } else if site.prefetch_shape && self.prefetch_active {
            dropped = Some("may be staged through shared memory");
        }

        let refined_ok = dropped.is_none()
            && !site.nonaffine
            && !site.foreign_terms
            && site.coeffs.values().all(|&(_, exact)| exact)
            && site.chain.iter().all(|&(lvl, ..)| lvl < self.depth)
            && site.has_array
            && !site.flexible
            && !(site.is_write && self.any_split)
            && self.axes_ok
            && self.dims.iter().product::<u64>() <= 1024;

        let mut capacity = u64::from(WARP_SIZE);
        if refined_ok {
            let mut coeff_bytes = [0i128; 3];
            let mut ok = true;
            for &(lvl, var, _, _) in &site.chain {
                match self.level_axis.get(lvl).copied().flatten() {
                    Some(a) => {
                        let c = site.coeffs.get(&var).map(|c| c.0).unwrap_or(0);
                        coeff_bytes[a] += i128::from(c) * i128::from(site.elem_bytes);
                    }
                    None => ok = false,
                }
            }
            if ok {
                capacity = proven_once(&mut self.capacities, coeff_bytes, |c| {
                    warp_capacity(self.dims, c)
                });
            }
        }

        let transactions = match (dropped, site.executions) {
            (None, Some(e)) => e.div_ceil(capacity.max(1)),
            _ => 0,
        };
        SiteBound {
            capacity,
            transactions,
            dropped,
        }
    }
}

/// The result stored in `known` for `key`, proven and stored on first use.
fn proven_once<K: Copy + PartialEq>(
    known: &mut Vec<(K, u64)>,
    key: K,
    prove: impl FnOnce(K) -> u64,
) -> u64 {
    if let Some(&(_, result)) = known.iter().find(|(k, _)| *k == key) {
        return result;
    }
    let result = prove(key);
    known.push((key, result));
    result
}

/// Call `per_warp` with the offsets `coeff · (tx, ty, tz)` of a block's
/// warps, one warp per shape, for a block with the given dims. Lanes are
/// grouped into warps by flat thread id, exactly like the hardware (and
/// the simulator). Two warps share a shape when their lanes' offsets from
/// their first lane agree, so a caller must take a shift-invariant result
/// per warp. One buffer holds every visited warp's offsets in turn.
fn for_each_warp(dims: [u64; 3], coeff: [i128; 3], mut per_warp: impl FnMut(&mut [i128])) {
    let total = (dims[0] * dims[1] * dims[2]).max(1);
    let mut lanes = Vec::with_capacity(WARP_SIZE as usize);
    let mut shapes = Vec::new();
    let mut first = 0u64;
    while first < total {
        let end = (first + u64::from(WARP_SIZE)).min(total);
        // A shape is the first lane's x index if the warp runs into further
        // rows, its y index if those rows wrap into further z planes, and
        // the lane count.
        let x0 = first % dims[0];
        let rows = (x0 + end - first - 1) / dims[0];
        let y0 = first / dims[0] % dims[1];
        let shape = (
            (rows > 0).then_some(x0),
            (y0 + rows >= dims[1]).then_some(y0),
            end - first,
        );
        if !shapes.contains(&shape) {
            shapes.push(shape);
            lanes.clear();
            lanes.extend((first..end).map(|i| {
                let tx = (i % dims[0]) as i128;
                let ty = ((i / dims[0]) % dims[1]) as i128;
                let tz = (i / (dims[0] * dims[1])) as i128;
                coeff[0] * tx + coeff[1] * ty + coeff[2] * tz
            }));
            per_warp(&mut lanes);
        }
        first = end;
    }
}

/// Max lanes of one warp whose byte offsets fit a 127-byte window, over
/// every warp of a block with the given dims.
fn warp_capacity(dims: [u64; 3], coeff_bytes: [i128; 3]) -> u64 {
    let mut best: u64 = 1;
    for_each_warp(dims, coeff_bytes, |deltas| {
        deltas.sort_unstable();
        let mut lo = 0usize;
        for hi in 0..deltas.len() {
            while deltas[hi] - deltas[lo] > SEGMENT_WINDOW {
                lo += 1;
            }
            best = best.max((hi - lo + 1) as u64);
        }
    });
    best
}

// ---------------------------------------------------------------------------
// Lane-affine evaluation of kernel IR (bank-conflict proofs)
// ---------------------------------------------------------------------------

/// A value of the form `base + cx·tid.x + cy·tid.y + cz·tid.z`, uniform
/// across a request up to the thread-index terms. `base = None` means the
/// base is uniform but unknown — bank-conflict structure is invariant
/// under uniform shifts, so proofs survive it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Lane {
    c: [i64; 3],
    base: Option<i64>,
}

impl Lane {
    fn uniform(base: Option<i64>) -> Lane {
        Lane { c: [0; 3], base }
    }
    fn is_uniform(&self) -> bool {
        self.c == [0; 3]
    }
}

type LaneVal = Option<Lane>;

/// The lane value of each of a kernel's locals, indexed by [`LocalId`]; a
/// local not yet assigned is unknown (`None`).
#[derive(Debug, Default)]
struct Locals(Vec<LaneVal>);

impl Locals {
    fn new(kernel: &Kernel) -> Locals {
        Locals(vec![None; kernel.locals as usize])
    }

    fn get(&self, id: LocalId) -> LaneVal {
        self.0.get(id as usize).copied().flatten()
    }

    fn set(&mut self, id: LocalId, v: LaneVal) {
        let i = id as usize;
        if i >= self.0.len() {
            self.0.resize(i + 1, None);
        }
        self.0[i] = v;
    }
}

fn la_eval(e: &KExpr, env: &Locals, kernel: &Kernel, b: &Bindings) -> LaneVal {
    match e {
        KExpr::Imm(v) => {
            if v.fract() == 0.0 && v.abs() < 9e15 {
                Some(Lane::uniform(Some(*v as i64)))
            } else {
                Some(Lane::uniform(None))
            }
        }
        KExpr::Local(id) => env.get(*id),
        KExpr::Tid(axis) => {
            let mut c = [0i64; 3];
            c[axis.index()] = 1;
            Some(Lane { c, base: Some(0) })
        }
        KExpr::Bid(_) | KExpr::Gdim(_) => Some(Lane::uniform(None)),
        KExpr::Bdim(axis) => Some(Lane::uniform(Some(i64::from(
            kernel.block[axis.index()].max(1),
        )))),
        KExpr::SizeVal(s) => {
            let v = eval_signed(s, b);
            Some(Lane::uniform(if v.exact { Some(v.value) } else { None }))
        }
        KExpr::Load { .. } | KExpr::SmemLoad { .. } => None,
        KExpr::Un(op, a) => {
            let a = la_eval(a, env, kernel, b)?;
            match op {
                UnOp::Neg => Some(Lane {
                    c: [
                        a.c[0].checked_neg()?,
                        a.c[1].checked_neg()?,
                        a.c[2].checked_neg()?,
                    ],
                    base: a.base.and_then(i64::checked_neg),
                }),
                _ if a.is_uniform() => Some(Lane::uniform(None)),
                _ => None,
            }
        }
        KExpr::Bin(op, l, r) => {
            let l = la_eval(l, env, kernel, b)?;
            let r = la_eval(r, env, kernel, b)?;
            match op {
                BinOp::Add | BinOp::Sub => {
                    let sign = if *op == BinOp::Add { 1 } else { -1 };
                    let mut c = [0i64; 3];
                    for (ci, (&li, &ri)) in c.iter_mut().zip(l.c.iter().zip(&r.c)) {
                        *ci = li.checked_add(sign * ri)?;
                    }
                    let base = match (l.base, r.base) {
                        (Some(a), Some(b)) => a.checked_add(sign * b),
                        _ => None,
                    };
                    Some(Lane { c, base })
                }
                BinOp::Mul => {
                    // One side must be a uniform known constant to stay
                    // affine in the thread indices.
                    let scaled = |v: Lane, k: i64| -> LaneVal {
                        let mut c = [0i64; 3];
                        for (ci, &vi) in c.iter_mut().zip(&v.c) {
                            *ci = vi.checked_mul(k)?;
                        }
                        Some(Lane {
                            c,
                            base: v.base.and_then(|x| x.checked_mul(k)),
                        })
                    };
                    match (l.is_uniform(), r.is_uniform()) {
                        (true, true) => Some(Lane::uniform(match (l.base, r.base) {
                            (Some(a), Some(b)) => a.checked_mul(b),
                            _ => None,
                        })),
                        (true, false) => l.base.and_then(|k| scaled(r, k)),
                        (false, true) => r.base.and_then(|k| scaled(l, k)),
                        (false, false) => None,
                    }
                }
                _ => {
                    if l.is_uniform() && r.is_uniform() {
                        Some(Lane::uniform(None))
                    } else {
                        None
                    }
                }
            }
        }
        KExpr::Select(c, t, e) => {
            let c = la_eval(c, env, kernel, b)?;
            let t = la_eval(t, env, kernel, b)?;
            let e = la_eval(e, env, kernel, b)?;
            if c.is_uniform() && t.is_uniform() && e.is_uniform() {
                Some(Lane::uniform(None))
            } else if t == e {
                Some(t)
            } else {
                None
            }
        }
    }
}

/// One statically found shared-memory access.
struct SmemSite {
    arr: SmemId,
    idx: LaneVal,
    guarded: bool,
    in_loop: bool,
}

/// Locals assigned anywhere in `stmts` (recursively).
fn assigned_locals(stmts: &[Stmt], out: &mut Vec<LocalId>) {
    for s in stmts {
        match s {
            Stmt::Assign { dst, .. } => out.push(*dst),
            Stmt::AtomicRmw {
                capture: Some(dst), ..
            } => out.push(*dst),
            Stmt::For { var, body, .. } => {
                out.push(*var);
                assigned_locals(body, out);
            }
            Stmt::If { then, els, .. } => {
                assigned_locals(then, out);
                assigned_locals(els, out);
            }
            _ => {}
        }
    }
}

/// Record every `SmemLoad` inside `e` as a site.
fn scan_expr_sites(
    e: &KExpr,
    env: &Locals,
    kernel: &Kernel,
    b: &Bindings,
    guard: u32,
    loops: u32,
    sites: &mut Vec<SmemSite>,
) {
    match e {
        KExpr::SmemLoad { arr, idx } => {
            sites.push(SmemSite {
                arr: *arr,
                idx: la_eval(idx, env, kernel, b),
                guarded: guard > 0,
                in_loop: loops > 0,
            });
            scan_expr_sites(idx, env, kernel, b, guard, loops, sites);
        }
        KExpr::Load { idx, .. } => scan_expr_sites(idx, env, kernel, b, guard, loops, sites),
        KExpr::Un(_, a) => scan_expr_sites(a, env, kernel, b, guard, loops, sites),
        KExpr::Bin(_, l, r) => {
            scan_expr_sites(l, env, kernel, b, guard, loops, sites);
            scan_expr_sites(r, env, kernel, b, guard, loops, sites);
        }
        KExpr::Select(c, t, el) => {
            scan_expr_sites(c, env, kernel, b, guard, loops, sites);
            scan_expr_sites(t, env, kernel, b, guard, loops, sites);
            scan_expr_sites(el, env, kernel, b, guard, loops, sites);
        }
        _ => {}
    }
}

#[allow(clippy::too_many_arguments)]
fn walk_stmts(
    stmts: &[Stmt],
    env: &mut Locals,
    kernel: &Kernel,
    b: &Bindings,
    guard: u32,
    loops: u32,
    sites: &mut Vec<SmemSite>,
) {
    for s in stmts {
        match s {
            Stmt::Assign { dst, value } => {
                scan_expr_sites(value, env, kernel, b, guard, loops, sites);
                let v = la_eval(value, env, kernel, b);
                env.set(*dst, v);
            }
            Stmt::Store { idx, value, .. } => {
                scan_expr_sites(idx, env, kernel, b, guard, loops, sites);
                scan_expr_sites(value, env, kernel, b, guard, loops, sites);
            }
            Stmt::AtomicRmw {
                idx,
                value,
                capture,
                ..
            } => {
                scan_expr_sites(idx, env, kernel, b, guard, loops, sites);
                scan_expr_sites(value, env, kernel, b, guard, loops, sites);
                if let Some(dst) = capture {
                    env.set(*dst, None);
                }
            }
            Stmt::SmemStore { arr, idx, value } => {
                sites.push(SmemSite {
                    arr: *arr,
                    idx: la_eval(idx, env, kernel, b),
                    guarded: guard > 0,
                    in_loop: loops > 0,
                });
                scan_expr_sites(idx, env, kernel, b, guard, loops, sites);
                scan_expr_sites(value, env, kernel, b, guard, loops, sites);
            }
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
            } => {
                scan_expr_sites(start, env, kernel, b, guard, loops, sites);
                scan_expr_sites(end, env, kernel, b, guard, loops, sites);
                scan_expr_sites(step, env, kernel, b, guard, loops, sites);
                // Entry state sound for *every* iteration: poison all
                // locals the body assigns, then model the loop var as
                // start's lane coefficients with an unknown uniform base
                // (valid when the step is uniform).
                let mut assigned = vec![*var];
                assigned_locals(body, &mut assigned);
                for &id in &assigned {
                    env.set(id, None);
                }
                let start_v = la_eval(start, env, kernel, b);
                let step_uniform =
                    matches!(la_eval(step, env, kernel, b), Some(s) if s.is_uniform());
                let var_model = match (start_v, step_uniform) {
                    (Some(l), true) => Some(Lane { c: l.c, base: None }),
                    _ => None,
                };
                env.set(*var, var_model);
                walk_stmts(body, env, kernel, b, guard, loops + 1, sites);
                for &id in &assigned {
                    env.set(id, None);
                }
            }
            Stmt::If { cond, then, els } => {
                scan_expr_sites(cond, env, kernel, b, guard, loops, sites);
                let divergent = !matches!(la_eval(cond, env, kernel, b), Some(c) if c.is_uniform());
                let g = guard + u32::from(divergent);
                // Both arms start from the entry state. An arm changes
                // only the locals it assigns, so keep their entry values,
                // walk `then`, note its results, restore, walk `els` and
                // merge.
                let mut assigned = Vec::new();
                assigned_locals(then, &mut assigned);
                assigned_locals(els, &mut assigned);
                let entry: Vec<LaneVal> = assigned.iter().map(|&id| env.get(id)).collect();
                walk_stmts(then, env, kernel, b, g, loops, sites);
                let after_then: Vec<LaneVal> = assigned.iter().map(|&id| env.get(id)).collect();
                for (&id, &v) in assigned.iter().zip(&entry) {
                    env.set(id, v);
                }
                walk_stmts(els, env, kernel, b, g, loops, sites);
                for (&id, &t) in assigned.iter().zip(&after_then) {
                    let e = env.get(id);
                    env.set(id, if t == e { t } else { None });
                }
            }
            Stmt::DeviceMalloc { bytes } => {
                scan_expr_sites(bytes, env, kernel, b, guard, loops, sites);
            }
            // Child kernels have no shared memory in our lowering and run
            // as separate grids; the launch's operand expressions cannot
            // touch shared memory either (they are scalar index math), but
            // scan them anyway for soundness.
            Stmt::ChildLaunch { extent, args, .. } => {
                scan_expr_sites(extent, env, kernel, b, guard, loops, sites);
                for a in args {
                    scan_expr_sites(a, env, kernel, b, guard, loops, sites);
                }
            }
            Stmt::Break | Stmt::Sync => {}
        }
    }
}

/// Worst-case serialized passes of one shared-memory request whose word
/// index has lane coefficients `coeff`, over every warp of a block with
/// the given dims. The uniform base only shifts every lane's bank by the
/// same amount — conflict structure is invariant — so each warp is
/// evaluated with base 0 and its words offset to non-negative.
fn conflict_degree(dims: [u64; 3], coeff: [i64; 3], banks: u32) -> u64 {
    let mut worst: u64 = 0;
    let mut words = Vec::with_capacity(WARP_SIZE as usize);
    for_each_warp(dims, coeff.map(i128::from), |raw| {
        let min = raw.iter().copied().min().unwrap_or(0);
        words.clear();
        words.extend(raw.iter().map(|w| (w - min) as u64));
        worst = worst.max(multidim_sim::bank_conflicts(banks, &words));
    });
    worst + 1
}

/// Prove bank-conflict degrees for every shared-memory access of `kernel`
/// by enumerating the block's real warps, once per distinct
/// lane-coefficient vector (the degree depends on nothing else).
fn bank_proofs(kernel: &Kernel, bindings: &Bindings, gpu: &GpuSpec) -> Vec<BankProof> {
    let mut env = Locals::new(kernel);
    let mut sites = Vec::new();
    walk_stmts(&kernel.body, &mut env, kernel, bindings, 0, 0, &mut sites);

    let dims = [
        u64::from(kernel.block[0].max(1)),
        u64::from(kernel.block[1].max(1)),
        u64::from(kernel.block[2].max(1)),
    ];
    let mut degrees: Vec<([i64; 3], u64)> = Vec::new();
    sites
        .into_iter()
        .map(|site| {
            let name = kernel
                .smem
                .get(site.arr as usize)
                .map(|d| d.name.clone())
                .unwrap_or_else(|| format!("smem{}", site.arr));
            let degree = site.idx.map(|lane| {
                proven_once(&mut degrees, lane.c, |c| {
                    conflict_degree(dims, c, gpu.smem_banks)
                })
            });
            let conflict_free = match degree {
                Some(1) => Verdict::Proven,
                Some(_) if !site.guarded && !site.in_loop => Verdict::Refuted,
                _ => Verdict::Unknown,
            };
            BankProof {
                smem: name,
                degree,
                conflict_free,
                guarded: site.guarded,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

impl LocalitySummary {
    /// Render the summary as MD010–MD015 diagnostics, deterministically
    /// ordered (access order, then kernel order, then reuse order).
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for a in &self.accesses {
            match a.class {
                AccessClass::Strided(s) if a.verdict == Verdict::Proven && s.abs() >= 2 => {
                    let hot = a.executions.is_some_and(|e| e >= 256);
                    let sev = if hot { Severity::Warn } else { Severity::Info };
                    let kind = if a.is_write { "store" } else { "load" };
                    out.push(
                        Diagnostic::new(
                            Code::UNCOALESCED,
                            sev,
                            format!(
                                "global {kind} of `{}` is strided({s}) along x under this \
                                 mapping: each warp touches {s}x the minimum segments",
                                a.array
                            ),
                        )
                        .with_pattern(a.pattern)
                        .with_array(a.array.clone()),
                    );
                }
                AccessClass::Scattered => {
                    let kind = if a.is_write { "store" } else { "load" };
                    out.push(
                        Diagnostic::new(
                            Code::SCATTERED,
                            Severity::Info,
                            format!(
                                "global {kind} of `{}` has a data-dependent address: \
                                 coalescing cannot be proven for any mapping",
                                a.array
                            ),
                        )
                        .with_pattern(a.pattern)
                        .with_array(a.array.clone()),
                    );
                }
                _ => {}
            }
        }
        for proof in &self.smem {
            if proof.overflow {
                out.push(Diagnostic::new(
                    Code::SMEM_OVERFLOW,
                    Severity::Error,
                    format!(
                        "kernel `{}` needs {} B of shared memory per block; the device \
                         has {} B per SM — the launch is proven impossible",
                        proof.kernel, proof.bytes, proof.capacity
                    ),
                ));
            } else if proof.pressure {
                out.push(Diagnostic::new(
                    Code::SMEM_PRESSURE,
                    Severity::Info,
                    format!(
                        "kernel `{}` uses {} B of shared memory per block (more than \
                         half of the {} B capacity): at most one block per SM is resident",
                        proof.kernel, proof.bytes, proof.capacity
                    ),
                ));
            }
            for bank in &proof.banks {
                if bank.conflict_free == Verdict::Refuted {
                    let d = bank.degree.unwrap_or(0);
                    out.push(Diagnostic::new(
                        Code::BANK_CONFLICT,
                        Severity::Warn,
                        format!(
                            "shared array `{}` in kernel `{}` has a proven {d}-way bank \
                             conflict: every request serializes into {d} passes",
                            bank.smem, proof.kernel
                        ),
                    ));
                }
            }
        }
        for r in &self.reuse {
            if r.factor >= 8 && !r.staged {
                out.push(
                    Diagnostic::new(
                        Code::UNEXPLOITED_REUSE,
                        Severity::Info,
                        format!(
                            "read of `{}` touches each element {}x across nest level {} \
                             but is not staged through shared memory",
                            r.array, r.factor, r.level
                        ),
                    )
                    .with_pattern(r.pattern)
                    .with_array(r.array.clone()),
                );
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Simulator cross-check
// ---------------------------------------------------------------------------

/// Validate a [`LocalitySummary`]'s proven claims against what the
/// simulator actually measured, mirroring [`crate::cross_check`] for the
/// race analysis. Returns one human-readable line per disagreement (empty
/// = the static analysis is consistent with the measurement):
///
/// 1. measured DRAM transactions must be ≥ the proven lower bound;
/// 2. measured total seconds must be ≥ the proven seconds floor;
/// 3. a kernel whose shared-memory accesses are all proven conflict-free
///    must have measured `smem_conflicts == 0`, and when every site has a
///    proven degree the measured conflicts must fit
///    `(max_degree − 1) × smem_accesses`.
pub fn locality_cross_check(summary: &LocalitySummary, sim: &SimResult) -> Vec<String> {
    let mut out = Vec::new();
    let measured_tx = sim.total_cost().transactions;
    if measured_tx < summary.tx_lower_bound {
        out.push(format!(
            "{}: measured {} transactions < proven lower bound {}",
            summary.program, measured_tx, summary.tx_lower_bound
        ));
    }
    if sim.total_seconds < summary.seconds_lower_bound * (1.0 - 1e-9) {
        out.push(format!(
            "{}: measured {:.3e} s < proven floor {:.3e} s",
            summary.program, sim.total_seconds, summary.seconds_lower_bound
        ));
    }
    for (i, proof) in summary.smem.iter().enumerate() {
        let Some(run) = sim.kernels.get(i) else {
            out.push(format!(
                "{}: kernel `{}` has no measured counters",
                summary.program, proof.kernel
            ));
            continue;
        };
        if run.name != proof.kernel {
            out.push(format!(
                "{}: kernel order mismatch at index {i} (static `{}`, measured `{}`)",
                summary.program, proof.kernel, run.name
            ));
            continue;
        }
        let cost = &run.cost;
        let all_proven = proof
            .banks
            .iter()
            .all(|b| b.conflict_free == Verdict::Proven);
        if all_proven && cost.smem_conflicts != 0 {
            out.push(format!(
                "{}: kernel `{}` proven conflict-free but measured {} bank conflicts",
                summary.program, proof.kernel, cost.smem_conflicts
            ));
        }
        if let Some(max_d) = proof
            .banks
            .iter()
            .map(|b| b.degree)
            .collect::<Option<Vec<u64>>>()
            .and_then(|ds| ds.into_iter().max())
        {
            let bound = (max_d - 1).saturating_mul(cost.smem_accesses);
            if cost.smem_conflicts > bound {
                out.push(format!(
                    "{}: kernel `{}` measured {} bank conflicts > proven bound {} \
                     (max degree {max_d} over {} accesses)",
                    summary.program, proof.kernel, cost.smem_conflicts, bound, cost.smem_accesses
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod unit {
    use super::*;
    use multidim_codegen::Axis;

    #[test]
    fn capacity_coalesced_f32() {
        // 32 consecutive 4-byte elements span 128 bytes: all 32 starts fit
        // a 127-byte window.
        assert_eq!(warp_capacity([32, 1, 1], [4, 0, 0]), 32);
    }

    #[test]
    fn capacity_strided() {
        // Stride 2 × 8 bytes = 16-byte spacing: 8 lanes per window.
        assert_eq!(warp_capacity([32, 1, 1], [16, 0, 0]), 8);
        // Stride 32 × 4 bytes: every lane its own segment.
        assert_eq!(warp_capacity([32, 1, 1], [128, 0, 0]), 1);
    }

    #[test]
    fn capacity_broadcast() {
        assert_eq!(warp_capacity([32, 1, 1], [0, 0, 0]), 32);
    }

    #[test]
    fn capacity_y_blocks() {
        // 8×8 block, address varies only in y by 8 bytes: a warp covers 4
        // full y-rows of 8 lanes each, rows 8 bytes apart — all 32 lanes
        // within 24 bytes ≤ 127.
        assert_eq!(warp_capacity([8, 8, 1], [0, 8, 0]), 32);
        // y-stride 512 bytes: only one row (8 lanes) per window.
        assert_eq!(warp_capacity([8, 8, 1], [0, 512, 0]), 8);
    }

    #[test]
    fn lane_eval_tid_arith() {
        let kernel = Kernel {
            name: "t".into(),
            grid: [
                multidim_ir::Size::from(1),
                multidim_ir::Size::from(1),
                multidim_ir::Size::from(1),
            ],
            block: [32, 2, 1],
            smem: vec![],
            locals: 0,
            body: vec![],
        };
        let env = Locals::default();
        let b = Bindings::new();
        // tid.x + tid.y * bdim.x
        let e = KExpr::add(
            KExpr::Tid(Axis::X),
            KExpr::mul(KExpr::Tid(Axis::Y), KExpr::Bdim(Axis::X)),
        );
        let v = la_eval(&e, &env, &kernel, &b).unwrap();
        assert_eq!(v.c, [1, 32, 0]);
        assert_eq!(v.base, Some(0));
    }

    #[test]
    fn both_arms_of_an_if_start_from_the_entry_locals() {
        // l0 = tid.x; if tid.x < 3 { l0 = 2·tid.x; s[l0] } else { s[l0] }; s[l0]
        let store = |idx: KExpr| Stmt::SmemStore {
            arr: 0,
            idx,
            value: KExpr::Imm(0.0),
        };
        let kernel = Kernel {
            name: "t".into(),
            grid: [
                multidim_ir::Size::from(1),
                multidim_ir::Size::from(1),
                multidim_ir::Size::from(1),
            ],
            block: [32, 1, 1],
            smem: vec![multidim_codegen::SmemDecl {
                name: "s".into(),
                len: 64,
            }],
            locals: 1,
            body: vec![
                Stmt::Assign {
                    dst: 0,
                    value: KExpr::Tid(Axis::X),
                },
                Stmt::If {
                    cond: KExpr::Bin(
                        BinOp::Lt,
                        Box::new(KExpr::Tid(Axis::X)),
                        Box::new(KExpr::Imm(3.0)),
                    ),
                    then: vec![
                        Stmt::Assign {
                            dst: 0,
                            value: KExpr::mul(KExpr::Tid(Axis::X), KExpr::Imm(2.0)),
                        },
                        store(KExpr::Local(0)),
                    ],
                    els: vec![store(KExpr::Local(0))],
                },
                store(KExpr::Local(0)),
            ],
        };
        let proofs = bank_proofs(&kernel, &Bindings::new(), &GpuSpec::tesla_k20c());
        let degrees: Vec<Option<u64>> = proofs.iter().map(|p| p.degree).collect();
        // Stride 2 puts two words in each even bank; the else arm still
        // sees l0 = tid.x; after the arms disagree, l0 is unknown.
        assert_eq!(degrees, [Some(2), Some(1), None]);
        assert!(proofs[0].guarded && proofs[1].guarded && !proofs[2].guarded);
    }

    /// xorshift64*: a fixed, dependency-free sequence.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Block dims of at most 1024 threads: 1-D, 2-D or 3-D, with x
        /// extents that are mostly not multiples of the warp width.
        fn dims(&mut self) -> [u64; 3] {
            match self.below(3) {
                0 => [1 + self.below(1024), 1, 1],
                1 => {
                    let x = 1 + self.below(96);
                    [x, 1 + self.below(1024 / x), 1]
                }
                _ => {
                    let (x, y) = (1 + self.below(40), 1 + self.below(8));
                    [x, y, 1 + self.below((1024 / (x * y)).max(1))]
                }
            }
        }

        /// A lane-coefficient vector: zero, negative and positive terms,
        /// drawn from a small pool so that sites repeat vectors.
        fn coeffs(&mut self) -> [i64; 3] {
            const POOL: [i64; 9] = [0, 0, 1, -1, 2, -3, 16, 33, -64];
            [0; 3].map(|_| POOL[self.below(POOL.len() as u64) as usize])
        }
    }

    /// Each warp's lanes as `(tx, ty, tz)`, by flat thread id.
    fn warps(dims: [u64; 3]) -> Vec<Vec<[i128; 3]>> {
        let ids: Vec<u64> = (0..dims.iter().product::<u64>()).collect();
        ids.chunks(WARP_SIZE as usize)
            .map(|warp| {
                warp.iter()
                    .map(|&i| {
                        [
                            i % dims[0],
                            (i / dims[0]) % dims[1],
                            i / (dims[0] * dims[1]),
                        ]
                        .map(i128::from)
                    })
                    .collect()
            })
            .collect()
    }

    fn dot(c: [i128; 3], t: [i128; 3]) -> i128 {
        c[0] * t[0] + c[1] * t[1] + c[2] * t[2]
    }

    /// Max lanes of one warp within a 127-byte window, by counting from
    /// each lane.
    fn capacity_by_warp(dims: [u64; 3], coeff_bytes: [i128; 3]) -> u64 {
        let mut best = 1;
        for warp in warps(dims) {
            let offsets: Vec<i128> = warp.iter().map(|&t| dot(coeff_bytes, t)).collect();
            for &lo in &offsets {
                let n = offsets
                    .iter()
                    .filter(|&&o| o >= lo && o - lo <= SEGMENT_WINDOW)
                    .count();
                best = best.max(n as u64);
            }
        }
        best
    }

    /// Most distinct words any bank serves in one request, over every warp.
    fn degree_by_warp(dims: [u64; 3], coeff: [i64; 3], banks: u32) -> u64 {
        let mut worst = 1;
        for warp in warps(dims) {
            let mut per_bank: BTreeMap<i128, Vec<i128>> = BTreeMap::new();
            for &t in &warp {
                let word = dot(coeff.map(i128::from), t);
                let words = per_bank
                    .entry(word.rem_euclid(i128::from(banks)))
                    .or_default();
                if !words.contains(&word) {
                    words.push(word);
                }
            }
            worst = worst.max(per_bank.values().map(Vec::len).max().unwrap_or(1) as u64);
        }
        worst
    }

    #[test]
    fn memoized_capacity_matches_per_warp_enumeration() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for _ in 0..60 {
            let dims = rng.dims();
            let mut layout = Layout {
                depth: 3,
                prefetch_active: false,
                any_split: false,
                dims,
                axes_ok: true,
                level_axis: vec![Some(0), Some(1), Some(2)],
                capacities: Vec::new(),
            };
            let mut distinct = Vec::new();
            for _ in 0..10 {
                let c = rng.coeffs();
                let elem_bytes = [4, 8][rng.below(2) as usize];
                let site = SiteFacts {
                    array_name: "a".into(),
                    has_array: true,
                    flexible: false,
                    elem_bytes,
                    is_write: false,
                    pattern: PatternId(0),
                    countable: true,
                    executions: Some(1 << 20),
                    nonaffine: false,
                    chain: (0..3).map(|l| (l, VarId(l as u32), 64, true)).collect(),
                    coeffs: (0..3).map(|l| (VarId(l as u32), (c[l], true))).collect(),
                    foreign_terms: false,
                    prefetch_shape: false,
                };
                let coeff_bytes = c.map(|v| i128::from(v) * i128::from(elem_bytes));
                if !distinct.contains(&coeff_bytes) {
                    distinct.push(coeff_bytes);
                }
                assert_eq!(
                    layout.transactions(&site).capacity,
                    capacity_by_warp(dims, coeff_bytes),
                    "dims {dims:?}, byte coefficients {coeff_bytes:?}"
                );
            }
            assert_eq!(layout.capacities.len(), distinct.len());
        }
    }

    #[test]
    fn memoized_bank_degree_matches_per_warp_enumeration() {
        let mut rng = Rng(0x243f_6a88_85a3_08d3);
        let mut gpu = GpuSpec::tesla_k20c();
        for trial in 0..60 {
            let dims = rng.dims();
            gpu.smem_banks = [32, 16, 48][trial % 3];
            // One shared store per site: `c · tid + base`, where the base
            // is a known constant or a uniform unknown (the block index).
            let coeffs: Vec<[i64; 3]> = (0..8).map(|_| rng.coeffs()).collect();
            let body = coeffs
                .iter()
                .map(|c| {
                    let tid = [Axis::X, Axis::Y, Axis::Z]
                        .iter()
                        .zip(c)
                        .map(|(&a, &k)| KExpr::mul(KExpr::Tid(a), KExpr::Imm(k as f64)))
                        .reduce(KExpr::add)
                        .unwrap();
                    let base = if rng.below(2) == 0 {
                        KExpr::Imm(rng.below(100) as f64)
                    } else {
                        KExpr::Bid(Axis::X)
                    };
                    Stmt::SmemStore {
                        arr: 0,
                        idx: KExpr::add(tid, base),
                        value: KExpr::Imm(0.0),
                    }
                })
                .collect();
            let kernel = Kernel {
                name: "k".into(),
                grid: [
                    multidim_ir::Size::from(1),
                    multidim_ir::Size::from(1),
                    multidim_ir::Size::from(1),
                ],
                block: dims.map(|d| d as u32),
                smem: vec![multidim_codegen::SmemDecl {
                    name: "s".into(),
                    len: 1 << 16,
                }],
                locals: 0,
                body,
            };
            let proofs = bank_proofs(&kernel, &Bindings::new(), &gpu);
            assert_eq!(proofs.len(), coeffs.len());
            for (proof, &c) in proofs.iter().zip(&coeffs) {
                let want = degree_by_warp(dims, c, gpu.smem_banks);
                assert_eq!(
                    proof.degree,
                    Some(want),
                    "dims {dims:?}, coefficients {c:?}, {} banks",
                    gpu.smem_banks
                );
            }
        }
    }

    /// `warp_capacity` and `conflict_degree` visit one warp per shape; they
    /// must prove what a visit of every warp proves.
    #[test]
    fn one_warp_per_shape_proves_what_every_warp_proves() {
        let mut rng = Rng(0x1357_9bdf_2468_ace1);
        // Odd extents, rows that wrap into a further z plane mid-warp,
        // partial last warps and the 1,024-thread extremes come first.
        let fixed = [
            [3, 7, 5],
            [16, 3, 8],
            [5, 5, 5],
            [33, 31, 1],
            [2, 1, 512],
            [1, 1, 1024],
            [1024, 1, 1],
            [32, 32, 1],
        ];
        for trial in 0..200 {
            let dims = fixed.get(trial).copied().unwrap_or_else(|| rng.dims());
            for _ in 0..6 {
                // The pool's terms, a large one, or a z term that undoes or
                // nearly undoes a row's wrap into the next z plane (so a warp
                // that wraps can pack tighter than one that does not).
                let mut c = rng.coeffs();
                match rng.below(3) {
                    0 => {
                        let large = [1 << 20, -(1 << 31), i64::from(i32::MAX)];
                        c[rng.below(3) as usize] = large[rng.below(3) as usize];
                    }
                    1 => c[2] = c[1] * (dims[1] as i64 - 1) + rng.below(3) as i64 - 1,
                    _ => {}
                }
                let bytes = c.map(i128::from);
                assert_eq!(
                    warp_capacity(dims, bytes),
                    capacity_by_warp(dims, bytes),
                    "dims {dims:?}, byte coefficients {c:?}"
                );
                for banks in [32, 16, 48] {
                    assert_eq!(
                        conflict_degree(dims, c, banks),
                        degree_by_warp(dims, c, banks),
                        "dims {dims:?}, coefficients {c:?}, {banks} banks"
                    );
                }
            }
        }
    }
}
