//! Launch consolidation for data-dependent nest extents.
//!
//! Nested patterns whose inner extent is data-dependent (a CSR row's
//! degree, a ragged segment's length) defeat static launch configuration:
//! the baseline lowering inlines them as `Span(all)` loops, and the naive
//! dynamic-parallelism alternative pays one device-side launch overhead
//! *per outer element*. This crate is the consolidation stage that picks,
//! per launch site, between
//!
//! * **thresholding** ([`LaunchStrategy::Inline`]) — sites whose total
//!   estimated work is below 12 000 inner elements (48 000 when the mean
//!   inner extent is below 16) stay inlined; the overheads of any
//!   consolidated form could never be repaid;
//! * **coarsening** ([`LaunchStrategy::Coarsen`]) — each block of a single
//!   kernel serially owns `k` outer elements, one warp striding each inner
//!   extent; best when the mean inner extent keeps the warp busy;
//! * **aggregation** ([`LaunchStrategy::Aggregate`]) — the inner extents
//!   are prefix-summed into a work queue and *one* consolidated child grid
//!   executes every inner element; perfectly load-balanced, so it wins
//!   when inner extents are tiny (warp lanes would idle under coarsening)
//!   and the total work is large enough to amortize the scan.
//!
//! The choice is driven by the device's launch-overhead model
//! ([`GpuSpec::child_launch_overhead_s`], block dispatch cost) plus simple
//! occupancy arithmetic; every modeled time is recorded in the returned
//! [`SiteDecision`] so reports can show *why* a strategy was picked. The
//! one setting is the [`DynParPolicy`]: `Auto` models and picks, `Force`
//! holds one strategy (`Force(Inline)` keeps the baseline lowering). The
//! thresholds are constants, the coarsening factor comes from
//! [`auto_coarsen`], and child launches use
//! [`multidim_codegen::CHILD_BLOCK`]-thread blocks. The kernel-level
//! lowerings themselves live in `multidim_codegen::dynpar`
//! ([`multidim_codegen::lower_planned`]): each strategy lays out its own
//! launches, loops, scan and search, and lowers the site's bodies with
//! the code generator's one expression-and-effect lowering, so a
//! consolidated body is the statements the inline lowering would emit.
//! The simulator's child-launch support executes and times them.

#![warn(missing_docs)]

use multidim_codegen::{find_site, DynParPlan, LaunchStrategy, SiteDecision, CHILD_BLOCK};
use multidim_device::GpuSpec;
use multidim_ir::{Bindings, Program};
use multidim_trace as trace;

/// How the consolidation stage picks a strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DynParPolicy {
    /// Model each strategy's time and pick the cheapest (with the
    /// threshold rule applied first).
    #[default]
    Auto,
    /// Always use the given strategy at every matched site (reports use
    /// this to hold the naive baseline fixed).
    Force(LaunchStrategy),
}

/// Inner-extent cutoff for thresholding: an estimated mean inner extent
/// below this keeps moderate-work sites inlined.
const THRESHOLD: i64 = 16;
/// Total-work floor (outer × mean inner elements) under which no
/// consolidated form can repay its fixed overheads.
const WORK_FLOOR: i64 = 12_000;
/// Instructions modeled per inner element (loads + multiply-add + index
/// math of a typical gather body).
const BODY_INSTR: f64 = 8.0;
/// Extra instructions per binary-search iteration in the aggregated
/// worker. The search is uniform across a warp (every lane walks the
/// same ~log2(P) levels), so its amortized per-lane cost is small.
const SEARCH_INSTR: f64 = 1.5;
/// Warp width (the coarsened kernel strides inner extents warp-wide).
const WARP: f64 = 32.0;
/// Inline's modeled inefficiency over perfectly balanced work: the
/// baseline `Span(all)` path serializes each outer element on one block
/// with modest occupancy; adequate at small scale, never great.
const INLINE_FACTOR: f64 = 2.0;

/// The coarsening factor: aim for ~16 resident blocks per SM, clamped to
/// `[2, 64]`.
pub fn auto_coarsen(p: i64, gpu: &GpuSpec) -> u32 {
    let target_blocks = (i64::from(gpu.sm_count) * 16).max(1);
    let k = (p + target_blocks - 1) / target_blocks;
    k.clamp(2, 64) as u32
}

/// Sustained concurrent-lane proxy used by the work-time model.
fn width(gpu: &GpuSpec) -> f64 {
    f64::from(gpu.sm_count) * 64.0
}

/// Seconds to issue `n` perfectly parallel inner elements of `instr`
/// instructions each.
fn work_s(gpu: &GpuSpec, n: f64, instr: f64) -> f64 {
    gpu.cycles_to_seconds(n * instr / width(gpu))
}

/// Seconds of dispatch cost for `blocks` thread blocks.
fn dispatch_s(gpu: &GpuSpec, blocks: f64) -> f64 {
    gpu.cycles_to_seconds(blocks * gpu.block_dispatch_cycles / f64::from(gpu.sm_count))
}

/// Model every strategy's seconds for a site with outer extent `p` and
/// mean inner extent `m`, coarsened by `k`. Returned as `(name, seconds)`
/// pairs in a fixed order: inline, naive, coarsen, aggregate.
pub fn model_strategies(p: i64, m: i64, k: u32, gpu: &GpuSpec) -> Vec<(String, f64)> {
    let pf = p.max(1) as f64;
    let mf = m.max(1) as f64;
    let total = pf * mf;
    let cb = f64::from(CHILD_BLOCK);
    let work = work_s(gpu, total, BODY_INSTR);

    let inline_s = work * INLINE_FACTOR + gpu.kernel_launch_overhead_s;

    let naive_s = work
        + pf * gpu.child_launch_overhead_s
        + dispatch_s(gpu, pf * (mf / cb).ceil())
        + gpu.kernel_launch_overhead_s;

    // Coarsening leaves warp lanes idle when the mean inner extent is
    // below the warp width.
    let lane_idle = WARP / mf.min(WARP);
    let coarsen_s = work * lane_idle
        + dispatch_s(gpu, (pf / f64::from(k.max(1))).ceil())
        + gpu.kernel_launch_overhead_s;

    // Aggregation: three scan kernels (two passes over the outer extent
    // plus a single-block scan of the block sums) and a binary search of
    // log2(P) iterations per inner element in the worker.
    let search = 1.0 + SEARCH_INSTR * pf.log2().max(1.0) / BODY_INSTR;
    let nb = (pf / 128.0).ceil();
    let scan_s =
        work_s(gpu, pf, 16.0) + work_s(gpu, nb * 3.0, 16.0) + 3.0 * gpu.kernel_launch_overhead_s;
    let aggregate_s =
        work * search + scan_s + gpu.child_launch_overhead_s + dispatch_s(gpu, (total / cb).ceil());

    vec![
        ("inline".into(), inline_s),
        ("naive".into(), naive_s),
        ("coarsen".into(), coarsen_s),
        ("aggregate".into(), aggregate_s),
    ]
}

/// Build the consolidation plan for `program` under `bindings`.
///
/// Returns a plan with `site: None` when the program has no supported
/// launch site; otherwise the single site's [`SiteDecision`] with the
/// strategy `policy` picks and the full set of modeled times. The
/// `dynpar/choose` span carries a site's strategy, reason, outer extent
/// and inner-extent estimate.
pub fn choose(
    program: &Program,
    bindings: &Bindings,
    gpu: &GpuSpec,
    policy: DynParPolicy,
) -> DynParPlan {
    let mut sp = trace::span("dynpar", "choose");
    let Some(site) = find_site(program) else {
        return DynParPlan::default();
    };
    let p = site.outer.size.eval_or_default(bindings).max(1);
    // `Size::Dynamic` evaluates to its estimate (the workload's mean
    // inner-extent hint).
    let m = site.inner.size.eval_or_default(bindings).max(1);
    let k = auto_coarsen(p, gpu);
    let modeled = model_strategies(p, m, k, gpu);

    let total = p.saturating_mul(m);
    let (strategy, reason) = match policy {
        DynParPolicy::Force(s) => {
            let s = match s {
                LaunchStrategy::Coarsen(0) => LaunchStrategy::Coarsen(k),
                other => other,
            };
            (s, format!("forced by policy ({})", s.name()))
        }
        DynParPolicy::Auto => {
            if total < WORK_FLOOR {
                (
                    LaunchStrategy::Inline,
                    format!(
                        "thresholded: total work {total} (mean inner {m}) below the \
                         consolidation floor"
                    ),
                )
            } else if m < THRESHOLD && total < 4 * WORK_FLOOR {
                (
                    LaunchStrategy::Inline,
                    format!(
                        "thresholded: mean inner {m} below the inner-extent cutoff \
                         {THRESHOLD} at total work {total} (under {})",
                        4 * WORK_FLOOR
                    ),
                )
            } else {
                let coarsen_s = modeled[2].1;
                let aggregate_s = modeled[3].1;
                if aggregate_s < coarsen_s {
                    (
                        LaunchStrategy::Aggregate,
                        format!(
                            "aggregation modeled at {:.1}us vs coarsening {:.1}us \
                             (mean inner {m} idles warp lanes)",
                            aggregate_s * 1e6,
                            coarsen_s * 1e6
                        ),
                    )
                } else {
                    (
                        LaunchStrategy::Coarsen(k),
                        format!(
                            "coarsening x{k} modeled at {:.1}us vs aggregation {:.1}us",
                            coarsen_s * 1e6,
                            aggregate_s * 1e6
                        ),
                    )
                }
            }
        }
    };

    if let Some(s) = sp.as_mut() {
        s.arg("strategy", strategy.name());
        s.arg("reason", reason.as_str());
        s.arg("outer", p as u64);
        s.arg("estimate", m as u64);
    }

    DynParPlan {
        site: Some(SiteDecision {
            pattern: site.inner.id.0,
            strategy,
            outer: p,
            estimate: m,
            modeled,
            reason,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multidim_ir::{Expr, ProgramBuilder, ReduceOp, ScalarKind, Size};

    /// A CSR-shaped map→reduce_dyn program with `rows` rows and mean
    /// inner-extent hint `mean`.
    fn site_program(mean: i64) -> (Program, multidim_ir::SymId, multidim_ir::SymId) {
        let mut b = ProgramBuilder::new("fixture");
        let n = b.sym("N");
        let e = b.sym("E");
        let row_ptr = b.input("row_ptr", ScalarKind::I32, &[Size::sym(n) + Size::from(1)]);
        let vals = b.input("vals", ScalarKind::F32, &[Size::sym(e)]);
        let root = b.map(Size::sym(n), |b, row| {
            let start = b.read(row_ptr, &[row.into()]);
            let end = b.read(row_ptr, &[Expr::var(row) + Expr::lit(1.0)]);
            b.reduce_dyn(end - start.clone(), mean, ReduceOp::Add, |b, j| {
                b.read(vals, &[start.clone() + Expr::var(j)])
            })
        });
        let p = b.finish_map(root, "y", ScalarKind::F32).unwrap();
        (p, n, e)
    }

    fn plan_for(rows: i64, mean: i64, policy: DynParPolicy) -> DynParPlan {
        let (p, n, e) = site_program(mean);
        let mut bind = Bindings::new();
        bind.bind(n, rows);
        bind.bind(e, rows * mean);
        choose(&p, &bind, &GpuSpec::tesla_k20c(), policy)
    }

    #[test]
    fn threshold_boundary_is_exact() {
        // The work floor is 12_000; mean 25 >= threshold 16, so the floor
        // alone decides. 479 * 25 = 11_975 < 12_000 -> inline.
        let below = plan_for(479, 25, DynParPolicy::Auto);
        assert_eq!(
            below.site.unwrap().strategy,
            LaunchStrategy::Inline,
            "work just below the floor must stay inlined"
        );
        // 480 * 25 = 12_000 meets the floor -> consolidated.
        let at = plan_for(480, 25, DynParPolicy::Auto);
        let s = at.site.unwrap().strategy;
        assert_ne!(s, LaunchStrategy::Inline, "at the floor: consolidate");
        assert_ne!(s, LaunchStrategy::Naive, "auto never picks naive");
    }

    #[test]
    fn small_mean_extent_extends_the_threshold() {
        // mean 8 < threshold 16: inline until 4x the floor.
        let mid = plan_for(5_999, 8, DynParPolicy::Auto); // 47_992 < 48_000
        assert_eq!(mid.site.unwrap().strategy, LaunchStrategy::Inline);
        let big = plan_for(6_000, 8, DynParPolicy::Auto); // 48_000 >= 48_000
        assert_ne!(big.site.unwrap().strategy, LaunchStrategy::Inline);
    }

    #[test]
    fn each_threshold_rule_names_itself() {
        let floor = plan_for(192, 14, DynParPolicy::Auto).site.unwrap(); // 2_688
        assert_eq!(
            floor.reason,
            "thresholded: total work 2688 (mean inner 14) below the consolidation floor"
        );
        let cutoff = plan_for(1024, 14, DynParPolicy::Auto).site.unwrap(); // 14_336
        assert_eq!(cutoff.strategy, LaunchStrategy::Inline);
        assert_eq!(
            cutoff.reason,
            "thresholded: mean inner 14 below the inner-extent cutoff 16 at total work \
             14336 (under 48000)"
        );
    }

    #[test]
    fn coarsening_factor_is_derived_from_sm_count() {
        let gpu = GpuSpec::tesla_k20c(); // 13 SMs -> target 208 blocks
        assert_eq!(auto_coarsen(4096, &gpu), 20); // ceil(4096/208)
        assert_eq!(auto_coarsen(100, &gpu), 2); // clamped low
        assert_eq!(auto_coarsen(1 << 20, &gpu), 64); // clamped high
    }

    #[test]
    fn wide_rows_coarsen_and_narrow_rows_aggregate() {
        // Warp-filling rows: coarsening has no lane idle, wins.
        let wide = plan_for(4096, 64, DynParPolicy::Auto).site.unwrap();
        assert!(
            matches!(wide.strategy, LaunchStrategy::Coarsen(_)),
            "wide rows should coarsen, got {:?} ({})",
            wide.strategy,
            wide.reason
        );
        // Tiny rows at large scale: 30/32 lanes would idle under
        // coarsening; the balanced work queue wins.
        let narrow = plan_for(262_144, 2, DynParPolicy::Auto).site.unwrap();
        assert_eq!(
            narrow.strategy,
            LaunchStrategy::Aggregate,
            "narrow rows at scale should aggregate ({})",
            narrow.reason
        );
    }

    #[test]
    fn disabled_or_forced_policies_are_respected() {
        // Forcing inline keeps the baseline lowering.
        let off = plan_for(4096, 64, DynParPolicy::Force(LaunchStrategy::Inline));
        assert_eq!(off.site.as_ref().unwrap().strategy, LaunchStrategy::Inline);
        assert!(!off.consolidates());

        let forced = DynParPolicy::Force(LaunchStrategy::Naive);
        assert_eq!(
            plan_for(64, 4, forced).site.unwrap().strategy,
            LaunchStrategy::Naive
        );
        // Force(Coarsen(0)) resolves the auto factor.
        let forced_k = DynParPolicy::Force(LaunchStrategy::Coarsen(0));
        assert_eq!(
            plan_for(4096, 4, forced_k).site.unwrap().strategy,
            LaunchStrategy::Coarsen(20)
        );
    }

    #[test]
    fn plans_record_the_model_for_reports() {
        let d = plan_for(4096, 64, DynParPolicy::Auto).site.unwrap();
        assert_eq!(d.modeled.len(), 4);
        assert!(d.modeled.iter().all(|(_, s)| *s > 0.0));
        // Naive's per-element launch overhead dominates everything else.
        let naive = d.modeled[1].1;
        assert!(naive > 10.0 * d.modeled[2].1, "naive should model worst");
        assert!(!d.reason.is_empty());
    }
}
