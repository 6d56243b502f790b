//! Mapping search (Section IV-D, Algorithm 1).
//!
//! Enumerates every candidate `(dimension, block size, span)` assignment per
//! level — dimensions are permutations of levels onto {x, y, z, w, …},
//! block sizes come from `SizeSet = {1, 2, 4, …, 1024}` with the product
//! capped by the device, spans start as `Span(1)`/`Span(all)` — filters by
//! hard constraints, scores by satisfied soft constraints, and finally runs
//! `ControlDOP` to pull the degree of parallelism into the device's
//! `[MIN_DOP, MAX_DOP]` window by rewriting spans
//! (`Span(all) → Split(k)`, `Span(1) → Span(n)`).

use crate::collect::collect_constraints;
use crate::constraint::{ConstraintSet, SpanAllReason, Weights};
use crate::params::{Dim, LevelMapping, MappingDecision, Span};
use multidim_device::GpuSpec;
use multidim_ir::{Bindings, NestInfo, Program};
use multidim_trace as trace;

/// A candidate mapping with its score (for Figure 17's scatter and for
/// auto-tuner integration).
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredMapping {
    /// The candidate.
    pub mapping: MappingDecision,
    /// Raw score (sum of satisfied soft weights).
    pub score: f64,
    /// Score normalized by the largest single soft weight (the paper's
    /// ~0–2.5 plotting range).
    pub normalized_score: f64,
    /// Degree of parallelism under the analysis extents.
    pub dop: u64,
}

/// The complete result of the mapping analysis for one program.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Nest structure.
    pub nest: NestInfo,
    /// Collected constraints.
    pub constraints: ConstraintSet,
    /// The selected mapping (after `ControlDOP`).
    pub decision: MappingDecision,
    /// Raw score of the selected mapping (before `ControlDOP`, which does
    /// not change satisfied constraints' scoring inputs).
    pub score: f64,
    /// Normalized score.
    pub normalized_score: f64,
    /// DOP of the selected mapping after `ControlDOP`.
    pub dop: u64,
    /// Number of candidates that passed the hard filter.
    pub candidates: usize,
    /// Number of candidates rejected by a hard constraint.
    pub pruned: usize,
}

/// Record one finished analysis into an observability registry: total
/// candidates scored, total pruned by hard constraints, and a histogram
/// of the search's prune rate (pruned / enumerated).
pub fn observe_analysis(registry: &multidim_obs::Registry, analysis: &Analysis) {
    registry
        .counter(
            "mapping_candidates_total",
            "mapping candidates that passed the hard constraints, summed over searches",
        )
        .add(analysis.candidates as u64);
    registry
        .counter(
            "mapping_pruned_total",
            "mapping candidates rejected by a hard constraint, summed over searches",
        )
        .add(analysis.pruned as u64);
    let enumerated = analysis.candidates + analysis.pruned;
    if enumerated > 0 {
        registry
            .histogram(
                "mapping_prune_rate",
                "fraction of enumerated candidates pruned per search",
            )
            .record(analysis.pruned as f64 / enumerated as f64);
    }
    registry
        .histogram(
            "mapping_normalized_score",
            "normalized score of the selected mapping per search",
        )
        .record(analysis.normalized_score);
}

/// Run the full mapping analysis (the paper's *MultiDim*) on `program`.
///
/// `bindings` supplies launch sizes where known; missing symbols default to
/// 1000 (Section IV-C).
///
/// # Examples
///
/// ```
/// use multidim_ir::*;
/// use multidim_mapping::{analyze, Dim, Span};
/// use multidim_device::GpuSpec;
///
/// // sumRows: the inner (column) index must land on dimension x.
/// let mut b = ProgramBuilder::new("sumRows");
/// let r = b.sym("R");
/// let c = b.sym("C");
/// let m = b.input("m", ScalarKind::F32, &[Size::sym(r), Size::sym(c)]);
/// let root = b.map(Size::sym(r), |b, row| {
///     b.reduce(Size::sym(c), ReduceOp::Add, |b, col| {
///         b.read(m, &[row.into(), col.into()])
///     })
/// });
/// let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
/// let mut bind = Bindings::new();
/// bind.bind(r, 8192);
/// bind.bind(c, 8192);
/// let analysis = analyze(&p, &bind, &GpuSpec::tesla_k20c());
/// assert!(analysis.decision.level(1).dim.is_x());
/// assert!(matches!(analysis.decision.level(1).span, Span::All | Span::Split(_)));
/// ```
pub fn analyze(program: &Program, bindings: &Bindings, gpu: &GpuSpec) -> Analysis {
    analyze_with(program, bindings, gpu, &Weights::default())
}

/// [`analyze`] with explicit soft-constraint weights.
pub fn analyze_with(
    program: &Program,
    bindings: &Bindings,
    gpu: &GpuSpec,
    weights: &Weights,
) -> Analysis {
    let mut sp = trace::span("search", "analyze");
    if let Some(s) = sp.as_mut() {
        s.arg("program", program.name.as_str());
    }
    let nest = NestInfo::of(program);
    let constraints = collect_constraints(program, &nest, bindings, gpu, weights);
    let extents = analysis_extents(&nest, bindings);

    // Tie-breaking among equal scores (the paper picks the higher DOP,
    // then randomly; we refine deterministically): (1) DOP, *saturated* at
    // the device's MIN_DOP — parallelism beyond full occupancy buys
    // nothing and would push reduce blocks to wasteful widths; (2) fewer
    // threads across synchronized (span-all/split) levels — smaller
    // shared-memory reduction trees; (3) more threads per block — fewer
    // blocks to dispatch.
    let key = |mapping: &MappingDecision| {
        let sat_dop = mapping.dop(&extents).min(gpu.min_dop());
        let sync_threads: u64 = mapping
            .levels()
            .iter()
            .filter(|l| matches!(l.span, Span::All | Span::Split(_)))
            .map(|l| l.block_size as u64)
            .product();
        // Final preference: block sizes near 256 threads (occupancy sweet
        // spot) — expressed as 64 - |log2(threads) - 8|.
        let bt = mapping.block_threads().max(1);
        let log2 = 63 - bt.leading_zeros() as i64;
        let near_256 = 64 - (log2 - 8).unsigned_abs();
        (sat_dop, u64::MAX - sync_threads, near_256)
    };

    // The best and second-best hard-valid candidates under that order.
    let mut best: Option<Ranked> = None;
    let mut runner_up: Option<Ranked> = None;
    let mut candidates = 0usize;
    let pruned_by = for_each_candidate(&nest, &constraints, gpu, &mut |mapping| {
        candidates += 1;
        let score = constraints.score(&mapping);
        let k = key(&mapping);
        if outranks(score, k, &best) {
            runner_up = best.replace((mapping, score, k));
        } else if outranks(score, k, &runner_up) {
            runner_up = Some((mapping, score, k));
        }
    });
    let pruned = pruned_by.iter().sum();
    let (mut decision, score, _) =
        best.expect("at least one candidate must satisfy the hard constraints");

    control_dop(&mut decision, &constraints, &extents, gpu);
    let dop = decision.dop(&extents);
    let normalized_score = constraints.normalized_score(&decision);

    if let Some(s) = sp.as_mut() {
        s.arg("candidates", candidates);
        s.arg("pruned", pruned);
        s.arg("pruned_by", pruned_by_text(&constraints, &pruned_by));
        s.arg("selected", decision.to_string());
        s.arg("score", score);
        s.arg("dop", dop);
        if let Some((mapping, score, _)) = &runner_up {
            s.arg("runner_up", mapping.to_string());
            s.arg("runner_up_score", *score);
        }
    }

    Analysis {
        nest,
        constraints,
        decision,
        score,
        normalized_score,
        dop,
        candidates,
        pruned,
    }
}

/// A candidate with its raw score and its tie-break key.
type Ranked = (MappingDecision, f64, (u64, u64, u64));

/// Does a candidate scoring `score` with tie-break key `key` outrank
/// `other`? Scores within a relative epsilon are ties (weights span many
/// orders of magnitude; micro-weights must not pre-empt the DOP
/// tie-break); a tie goes to the larger key, then to the earlier
/// candidate.
fn outranks(score: f64, key: (u64, u64, u64), other: &Option<Ranked>) -> bool {
    match other {
        None => true,
        Some((_, other_score, other_key)) => {
            let eps = 1e-6 * other_score.abs().max(score.abs()).max(1.0);
            score > other_score + eps || ((score - other_score).abs() <= eps && key > *other_key)
        }
    }
}

/// The per-constraint prune counts as `constraint: count` pairs joined by
/// `; `, for every hard constraint that pruned a candidate.
fn pruned_by_text(constraints: &ConstraintSet, pruned_by: &[usize]) -> String {
    let pairs: Vec<String> = constraints
        .hard
        .iter()
        .zip(pruned_by)
        .filter(|(_, &n)| n > 0)
        .map(|(h, n)| format!("{h}: {n}"))
        .collect();
    pairs.join("; ")
}

/// Enumerate *all* hard-valid candidates with scores (Figure 17's scatter;
/// also usable by external auto-tuners per the paper's discussion).
pub fn enumerate_scored(
    program: &Program,
    bindings: &Bindings,
    gpu: &GpuSpec,
    weights: &Weights,
) -> Vec<ScoredMapping> {
    let nest = NestInfo::of(program);
    let constraints = collect_constraints(program, &nest, bindings, gpu, weights);
    let extents = analysis_extents(&nest, bindings);
    let mut out = Vec::new();
    for_each_candidate(&nest, &constraints, gpu, &mut |mapping| {
        let score = constraints.score(&mapping);
        let normalized_score = constraints.normalized_score(&mapping);
        let dop = mapping.dop(&extents);
        out.push(ScoredMapping {
            mapping,
            score,
            normalized_score,
            dop,
        });
    });
    out
}

/// Representative per-level extents under the analysis bindings.
pub fn analysis_extents(nest: &NestInfo, bindings: &Bindings) -> Vec<i64> {
    nest.levels
        .iter()
        .map(|l| l.representative_size().eval_or_default(bindings))
        .collect()
}

/// The block-size set of Algorithm 1: `{1, 2, 4, …, 1024}`.
pub fn size_set(gpu: &GpuSpec) -> Vec<u32> {
    let mut v = Vec::new();
    let mut s = 1u32;
    while s <= gpu.max_threads_per_block {
        v.push(s);
        s *= 2;
    }
    v
}

/// Call `f` on every hard-valid candidate. Returns how many candidates
/// each hard constraint pruned, indexed like [`ConstraintSet::hard`]; a
/// candidate counts under the first constraint it violates.
fn for_each_candidate(
    nest: &NestInfo,
    constraints: &ConstraintSet,
    gpu: &GpuSpec,
    f: &mut dyn FnMut(MappingDecision),
) -> Vec<usize> {
    let mut pruned_by = vec![0usize; constraints.hard.len()];
    let depth = nest.depth().max(1);
    let sizes = size_set(gpu);
    let forced: Vec<Option<SpanAllReason>> = (0..depth)
        .map(|l| {
            constraints
                .span_all_levels()
                .iter()
                .find(|(lvl, _)| *lvl == l)
                .map(|(_, r)| *r)
        })
        .collect();

    let mut dims: Vec<u8> = (0..depth as u8).collect();
    permutations(&mut dims, 0, &mut |perm| {
        // perm[level] = dimension index for that level.
        let mut level_sizes = vec![1u32; depth];
        size_combos(
            &sizes,
            gpu.max_threads_per_block,
            &mut level_sizes,
            0,
            &mut |bs| {
                let mut spans = vec![Span::ONE; depth];
                span_combos(&forced, &mut spans, 0, &mut |sp| {
                    let levels: Vec<LevelMapping> = (0..depth)
                        .map(|l| LevelMapping {
                            dim: Dim(perm[l]),
                            block_size: bs[l],
                            span: sp[l],
                        })
                        .collect();
                    let mapping = MappingDecision::new(levels);
                    match constraints.first_violation(&mapping) {
                        None => f(mapping),
                        Some(i) => pruned_by[i] += 1,
                    }
                });
            },
        );
    });
    pruned_by
}

fn permutations(items: &mut [u8], k: usize, f: &mut dyn FnMut(&[u8])) {
    if k == items.len() {
        f(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permutations(items, k + 1, f);
        items.swap(k, i);
    }
}

fn size_combos(
    sizes: &[u32],
    budget: u32,
    out: &mut Vec<u32>,
    level: usize,
    f: &mut dyn FnMut(&[u32]),
) {
    if level == out.len() {
        f(out);
        return;
    }
    for &s in sizes {
        if s > budget {
            break;
        }
        out[level] = s;
        size_combos(sizes, budget / s, out, level + 1, f);
    }
}

fn span_combos(
    forced: &[Option<SpanAllReason>],
    out: &mut Vec<Span>,
    level: usize,
    f: &mut dyn FnMut(&[Span]),
) {
    if level == forced.len() {
        f(out);
        return;
    }
    // Span(all) is tied to the levels that *require* it (synchronization /
    // dynamic extent); free levels start at Span(1) and are coarsened to
    // Span(n) by ControlDOP when the DOP overshoots. (Choosing Span(all)
    // on a free level never beats Span(1) under the scoring model, and it
    // would nest block synchronization inside non-uniform loops, which the
    // code generator rejects.)
    out[level] = if forced[level].is_some() {
        Span::All
    } else {
        Span::ONE
    };
    span_combos(forced, out, level + 1, f);
}

/// `ControlDOP` (Algorithm 1 lines 6–12): pull the mapping's DOP into
/// `[min_dop, max_dop]`.
///
/// * Too little parallelism: replace a synchronization-forced `Span(all)`
///   with `Split(k)` (a dynamic-size `Span(all)` cannot be split because
///   the chunking would depend on the unknown extent).
/// * Too much parallelism: replace a `Span(1)` with `Span(n)`.
pub fn control_dop(
    mapping: &mut MappingDecision,
    constraints: &ConstraintSet,
    extents: &[i64],
    gpu: &GpuSpec,
) {
    let min_dop = gpu.min_dop();
    let max_dop = gpu.max_dop();
    let span_reasons = constraints.span_all_levels();

    let dop = mapping.dop(extents);
    // Split pays for an extra (combiner) kernel launch; apply it only when
    // the parallelism deficit is at least 2x — below that the added
    // overhead outweighs the occupancy gain.
    if dop.saturating_mul(2) <= min_dop {
        let k = (min_dop as f64 / dop.max(1) as f64).ceil() as i64;
        // Prefer splitting the level with the largest extent headroom.
        let candidate = (0..mapping.depth())
            .filter(|&l| {
                matches!(mapping.level(l).span, Span::All)
                    && span_reasons
                        .iter()
                        .find(|(lvl, _)| *lvl == l)
                        .is_none_or(|(_, r)| *r == SpanAllReason::Synchronization)
            })
            .max_by_key(|&l| extents[l]);
        if let Some(l) = candidate {
            // Don't split finer than one block worth of work per section.
            // `Split(1)` has the DOP of `Span(all)` plus the combiner
            // launch, so a level that cannot take two sections keeps
            // `Span(all)`.
            let max_k = (extents[l] / mapping.level(l).block_size.max(1) as i64).max(1);
            let k = k.clamp(1, max_k);
            if k > 1 {
                mapping.level_mut(l).span = Span::Split(k);
            }
        }
    } else if dop > max_dop {
        let n = (dop as f64 / max_dop as f64).ceil() as i64;
        let candidate = (0..mapping.depth())
            .filter(|&l| matches!(mapping.level(l).span, Span::Span(1)))
            .max_by_key(|&l| extents[l]);
        if let Some(l) = candidate {
            mapping.level_mut(l).span = Span::Span(n.max(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multidim_ir::{ProgramBuilder, ReduceOp, ScalarKind, Size};

    fn k20c() -> GpuSpec {
        GpuSpec::tesla_k20c()
    }

    fn sum_rows(r: i64, c: i64) -> (Program, Bindings) {
        let mut b = ProgramBuilder::new("sumRows");
        let rs = b.sym("R");
        let cs = b.sym("C");
        let m = b.input("m", ScalarKind::F32, &[Size::sym(rs), Size::sym(cs)]);
        let root = b.map(Size::sym(rs), |b, row| {
            b.reduce(Size::sym(cs), ReduceOp::Add, |b, col| {
                b.read(m, &[row.into(), col.into()])
            })
        });
        let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
        let mut bind = Bindings::new();
        bind.bind(rs, r);
        bind.bind(cs, c);
        (p, bind)
    }

    fn sum_cols(r: i64, c: i64) -> (Program, Bindings) {
        let mut b = ProgramBuilder::new("sumCols");
        let rs = b.sym("R");
        let cs = b.sym("C");
        let m = b.input("m", ScalarKind::F32, &[Size::sym(rs), Size::sym(cs)]);
        let root = b.map(Size::sym(cs), |b, col| {
            b.reduce(Size::sym(rs), ReduceOp::Add, |b, row| {
                b.read(m, &[row.into(), col.into()])
            })
        });
        let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
        let mut bind = Bindings::new();
        bind.bind(rs, r);
        bind.bind(cs, c);
        (p, bind)
    }

    #[test]
    fn sum_rows_maps_inner_to_x() {
        let (p, bind) = sum_rows(8192, 8192);
        let a = analyze(&p, &bind, &k20c());
        assert!(a.decision.level(1).dim.is_x(), "decision: {}", a.decision);
        assert!(!a.decision.level(0).dim.is_x());
        assert!(a.decision.level(1).block_size.is_multiple_of(32));
    }

    #[test]
    fn sum_cols_maps_outer_to_x() {
        let (p, bind) = sum_cols(8192, 8192);
        let a = analyze(&p, &bind, &k20c());
        assert!(a.decision.level(0).dim.is_x(), "decision: {}", a.decision);
        assert!(a.decision.level(0).block_size.is_multiple_of(32));
        // Inner reduce still needs span(all)/split.
        assert!(matches!(
            a.decision.level(1).span,
            Span::All | Span::Split(_)
        ));
    }

    #[test]
    fn skewed_sum_cols_gets_enough_dop() {
        // sumCols on [64K, 1K]: only 1K outer iterations; the inner
        // span(all) must be split (or blocks enlarged) to reach MIN_DOP.
        let (p, bind) = sum_cols(65_536, 128);
        let a = analyze(&p, &bind, &k20c());
        // 512 outer iterations alone cannot reach MIN_DOP: the reduce must
        // have been split.
        assert!(
            matches!(a.decision.level(1).span, Span::Split(_)),
            "expected a split in {}",
            a.decision
        );
        assert!(
            a.dop >= k20c().min_dop() / 2,
            "dop {} far below min {} for {}",
            a.dop,
            k20c().min_dop(),
            a.decision
        );
    }

    #[test]
    fn control_dop_caps_excess() {
        // A huge 1-level map: DOP = extent = 10^9 > MAX_DOP; span(n)
        // coarsening must kick in.
        let mut b = ProgramBuilder::new("big");
        let n = b.sym("N");
        let a = b.input("a", ScalarKind::F32, &[Size::sym(n)]);
        let root = b.map(Size::sym(n), |b, i| b.read(a, &[i.into()]));
        let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
        let mut bind = Bindings::new();
        bind.bind(n, 1_000_000_000);
        let analysis = analyze(&p, &bind, &k20c());
        assert!(analysis.dop <= k20c().max_dop());
        assert!(matches!(analysis.decision.level(0).span, Span::Span(n) if n > 1));
    }

    #[test]
    fn dop_saturates_on_extents_near_the_i64_limit() {
        // One level bound to i64::MAX: `ceil(extent / n)` must not
        // overflow, and ControlDOP still coarsens.
        let mut b = ProgramBuilder::new("huge");
        let n = b.sym("N");
        let a = b.input("a", ScalarKind::F32, &[Size::sym(n)]);
        let root = b.map(Size::sym(n), |b, i| b.read(a, &[i.into()]));
        let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
        let mut bind = Bindings::new();
        bind.bind(n, i64::MAX);
        let analysis = analyze(&p, &bind, &k20c());
        assert!(matches!(analysis.decision.level(0).span, Span::Span(n) if n > 1));

        // A map of maps at 2^40 × 2^40: the per-level DOPs' product
        // exceeds u64 and saturates.
        let mut b = ProgramBuilder::new("huge2d");
        let (rs, cs) = (b.sym("R"), b.sym("C"));
        let m = b.input("m", ScalarKind::F32, &[Size::sym(rs), Size::sym(cs)]);
        let root = b.map(Size::sym(rs), |b, row| {
            b.map(Size::sym(cs), |b, col| b.read(m, &[row.into(), col.into()]))
        });
        let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
        let mut bind = Bindings::new();
        bind.bind(rs, 1 << 40);
        bind.bind(cs, 1 << 40);
        let analysis = analyze(&p, &bind, &k20c());
        assert_eq!(analysis.decision.depth(), 2);
        let one = MappingDecision::new(vec![
            LevelMapping {
                dim: Dim::X,
                block_size: 1,
                span: Span::ONE,
            },
            LevelMapping {
                dim: Dim::Y,
                block_size: 1,
                span: Span::ONE,
            },
        ]);
        assert_eq!(one.dop(&[1 << 40, 1 << 40]), u64::MAX);
        assert_eq!(one.grid_blocks(&[i64::MAX, -5]), vec![i64::MAX as u64, 1]);
    }

    #[test]
    fn one_level_map_prefers_x_warp_multiple() {
        let mut b = ProgramBuilder::new("saxpy");
        let n = b.sym("N");
        let x = b.input("x", ScalarKind::F32, &[Size::sym(n)]);
        let y = b.input("y", ScalarKind::F32, &[Size::sym(n)]);
        let root = b.map(Size::sym(n), |b, i| {
            b.read(x, &[i.into()]) * multidim_ir::Expr::lit(2.0) + b.read(y, &[i.into()])
        });
        let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
        let mut bind = Bindings::new();
        bind.bind(n, 1 << 20);
        let a = analyze(&p, &bind, &k20c());
        assert!(a.decision.level(0).dim.is_x());
        assert_eq!(a.decision.level(0).block_size % 32, 0);
        assert!(a.decision.level(0).block_size >= 64);
    }

    #[test]
    fn dynamic_extent_cannot_be_split() {
        // Outer map over few items with a dynamic inner reduce: DOP is
        // low but Split is not allowed on the dynamic level.
        let mut b = ProgramBuilder::new("dyn");
        let n = b.sym("N");
        let deg = b.input("deg", ScalarKind::I32, &[Size::sym(n)]);
        let root = b.map(Size::sym(n), |b, i| {
            let d = b.read(deg, &[i.into()]);
            b.reduce_dyn(d, 64, ReduceOp::Add, |_, _| multidim_ir::Expr::lit(1.0))
        });
        let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
        let mut bind = Bindings::new();
        bind.bind(n, 64);
        let a = analyze(&p, &bind, &k20c());
        assert!(matches!(a.decision.level(1).span, Span::All));
    }

    #[test]
    fn enumerate_covers_search_space() {
        let (p, bind) = sum_rows(1024, 1024);
        let scored = enumerate_scored(&p, &bind, &k20c(), &Weights::default());
        // 2 dim perms × size combos (product ≤ 1024 over 2 levels = 66)
        // × spans (level 1 forced All, level 0 Span(1)).
        assert_eq!(scored.len(), 2 * 66);
        // The best scored candidate puts the inner level on x.
        let best = scored
            .iter()
            .max_by(|a, b| a.score.partial_cmp(&b.score).unwrap())
            .unwrap();
        assert!(best.mapping.level(1).dim.is_x());
    }

    #[test]
    fn search_is_deterministic() {
        let (p, bind) = sum_rows(4096, 512);
        let a1 = analyze(&p, &bind, &k20c());
        let a2 = analyze(&p, &bind, &k20c());
        assert_eq!(a1.decision, a2.decision);
        assert_eq!(a1.score, a2.score);
    }

    #[test]
    fn size_set_is_powers_of_two() {
        let s = size_set(&k20c());
        assert_eq!(s, vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]);
    }

    /// Run `f` as one request whose trace a fresh store keeps, and return
    /// its result with the kept trace. Tests that install the store
    /// serialize on one lock.
    fn traced<T>(f: impl FnOnce() -> T) -> (T, trace::StoredTrace) {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let config = trace::TailSamplerConfig::keep_all();
        let store = std::sync::Arc::new(trace::TraceStore::new(config));
        let _installed = trace::install_store(store);
        let (out, kept) = trace::collect("test", "search", f);
        (out, kept.expect("kept"))
    }

    /// The `search/analyze` span of a kept trace, as an event.
    fn analyze_span(trace: &trace::StoredTrace) -> trace::Event {
        let span = trace
            .spans
            .iter()
            .find(|s| (s.cat, s.name) == ("search", "analyze"))
            .expect("search/analyze span");
        trace::chrome::span_event(span)
    }

    #[test]
    fn traced_search_names_prune_reasons() {
        // Starve shared memory so large reduce blocks violate SmemCapacity
        // and get pruned (with a reason) instead of scored.
        let (p, bind) = sum_rows(1024, 1024);
        let gpu = GpuSpec {
            smem_per_sm: 512,
            ..k20c()
        };
        let (a, trace) = traced(|| analyze(&p, &bind, &gpu));
        let span = analyze_span(&trace);

        assert!(a.pruned > 0, "tiny smem should prune large reduce blocks");
        assert_eq!(span.get_u64("pruned"), Some(a.pruned as u64));
        // Every prune is counted under the constraint it violates, and
        // the counts add up to the analysis' own bookkeeping.
        let pruned_by = span.get_str("pruned_by").expect("pruned_by");
        let mut counted = 0;
        for pair in pruned_by.split("; ") {
            let (why, n) = pair.rsplit_once(": ").expect("constraint: count");
            assert!(why.contains("smem"), "unexpected reason: {why}");
            counted += n.parse::<usize>().expect("count");
        }
        assert_eq!(counted, a.pruned, "analysis counts its own prunes");
        // Every surviving candidate was scored, and the count matches the
        // analysis' own bookkeeping.
        assert_eq!(span.get_u64("candidates"), Some(a.candidates as u64));
        assert_eq!(
            span.get_str("selected"),
            Some(a.decision.to_string().as_str())
        );
        assert_eq!(span.get_f64("score"), Some(a.score));
        assert_eq!(span.get_u64("dop"), Some(a.dop));
        assert!(span.get_str("runner_up").is_some_and(|r| !r.is_empty()));
        assert!(span.get_f64("runner_up_score").unwrap() <= a.score);
    }

    #[test]
    fn tracing_does_not_change_the_decision() {
        let (p, bind) = sum_rows(4096, 512);
        let untraced = analyze(&p, &bind, &k20c());
        let (traced, _) = traced(|| analyze(&p, &bind, &k20c()));
        assert_eq!(untraced.decision, traced.decision);
        assert_eq!(untraced.candidates, traced.candidates);
        assert_eq!(untraced.pruned, traced.pruned, "both paths count prunes");
        assert_eq!(untraced.score, traced.score);
    }
}
