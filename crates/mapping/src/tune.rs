//! Empirical auto-tuning over the mapping space.
//!
//! Section IV-B: "our mapping parameters can be used by other compiler or
//! auto-tuners to explore the mapping space", and the Figure 17 discussion
//! notes the static score has false negatives that only measurement can
//! recover. This module provides that exploration: enumerate the
//! hard-valid candidates, optionally pre-filter by static score ([`plan`]),
//! measure each with a caller-provided cost function ([`tune_pruned`], the
//! one measurement loop), and fold the costs into the empirically best
//! mapping ([`select`]).

use crate::constraint::Weights;
use crate::params::MappingDecision;
use crate::search::{enumerate_scored, ScoredMapping};
use multidim_device::GpuSpec;
use multidim_ir::{Bindings, Program};

/// Tuning configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneOptions {
    /// Only measure candidates whose normalized score is at least this
    /// fraction of the best score (1.0 = only ties with the static
    /// winner; 0.0 = measure everything). Score-guided pruning trades
    /// tuning time against Figure 17's region-C false negatives.
    pub score_floor: f64,
    /// Hard cap on measured candidates (highest-scored first).
    pub max_measurements: usize,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            score_floor: 0.0,
            max_measurements: usize::MAX,
        }
    }
}

/// One measured candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The candidate and its static score.
    pub candidate: ScoredMapping,
    /// Measured cost (seconds, or any monotone figure of merit).
    pub cost: f64,
    /// Position of the candidate in the [`TunePlan`] (score order). Cost
    /// ties are broken on this index, so selection is deterministic no
    /// matter in which order (or on which threads) measurements finished.
    pub index: usize,
}

/// The tuning outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneResult {
    /// Empirically best mapping.
    pub best: MappingDecision,
    /// Its measured cost.
    pub best_cost: f64,
    /// All measurements, sorted by cost ascending.
    pub measured: Vec<Measured>,
    /// Candidates skipped by the cost function (not executable).
    pub skipped: usize,
    /// Candidates discarded *without measurement* because a sound static
    /// lower bound already exceeded the best measured cost (only
    /// [`tune_pruned`] sets this; plain [`select`] reports 0).
    pub pruned: usize,
}

/// The prepared measurement list for one tuning run: hard-valid candidates
/// that survived the score floor, sorted by static score descending.
///
/// Constraint collection and candidate enumeration happen once, in
/// [`plan`]; the measurements themselves are embarrassingly parallel and
/// may run on any thread in any order — [`select`] is order-independent.
#[derive(Debug, Clone, PartialEq)]
pub struct TunePlan {
    /// Candidates to measure, best static score first.
    pub candidates: Vec<ScoredMapping>,
}

/// Enumerate and pre-filter the candidates to measure (the serial phase of
/// tuning). Applies `options.score_floor`; `options.max_measurements`
/// caps *successful* measurements and is enforced by [`tune_pruned`]'s
/// loop (a parallel tuner measures every candidate, then replays the
/// costs through that loop to apply the same cap).
pub fn plan(
    program: &Program,
    bindings: &Bindings,
    gpu: &GpuSpec,
    weights: &Weights,
    options: &TuneOptions,
) -> TunePlan {
    let mut candidates = enumerate_scored(program, bindings, gpu, weights);
    candidates.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let best_score = candidates
        .first()
        .map(|c| c.normalized_score)
        .unwrap_or(0.0);
    candidates.retain(|c| c.normalized_score >= options.score_floor * best_score);
    TunePlan { candidates }
}

/// Fold measurements back into a [`TuneResult`]. `costs[i]` is the
/// measured cost of `plan.candidates[i]` (`None` = not executable, or not
/// attempted). Ties on cost are broken by candidate index, so the outcome
/// does not depend on measurement order: serial and parallel drivers pick
/// the identical mapping.
///
/// Returns `None` when no candidate was measured.
pub fn select(plan: &TunePlan, costs: &[Option<f64>]) -> Option<TuneResult> {
    let mut measured = Vec::new();
    let mut skipped = 0usize;
    for (index, (cand, cost)) in plan.candidates.iter().zip(costs).enumerate() {
        match cost {
            Some(cost) => measured.push(Measured {
                candidate: cand.clone(),
                cost: *cost,
                index,
            }),
            None => skipped += 1,
        }
    }
    measured.sort_by(|a, b| {
        a.cost
            .partial_cmp(&b.cost)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.index.cmp(&b.index))
    });
    let best = measured.first()?;
    Some(TuneResult {
        best: best.candidate.mapping.clone(),
        best_cost: best.cost,
        measured,
        skipped,
        pruned: 0,
    })
}

/// The measurement loop: attempt the plan's candidates in score order,
/// stopping once `max_measurements` of them measured successfully, and
/// fold the costs with [`select`]. `measure` returns a candidate's cost,
/// or `None` when it cannot be compiled/executed.
///
/// Before measuring a candidate, `bound` may return a **sound lower
/// bound** on its cost (e.g. the locality analysis's roofline memory
/// floor); pass `|_| None` to measure every candidate. A candidate whose
/// bound *strictly exceeds* the best measured cost so far is discarded
/// without measurement.
///
/// # Selection is bit-identical to measuring everything
///
/// The best cost only decreases over the run, so a pruned candidate's true
/// cost satisfies `cost ≥ bound > best_so_far ≥ best_final` — it can never
/// win or even tie the final selection ([`select`] breaks cost ties on
/// candidate index, and the inequality is strict). Pruned candidates *do*
/// count against `max_measurements`, mirroring the successful measurement
/// they stand in for; pruned and unpruned runs can only diverge under a
/// finite cap when a pruned candidate would in fact have *failed* to
/// measure (the default cap is unbounded).
///
/// Returns `None` when no candidate was measured.
pub fn tune_pruned(
    plan: &TunePlan,
    max_measurements: usize,
    mut bound: impl FnMut(&ScoredMapping) -> Option<f64>,
    mut measure: impl FnMut(&ScoredMapping) -> Option<f64>,
) -> Option<TuneResult> {
    let mut costs: Vec<Option<f64>> = Vec::new();
    let mut successes = 0usize;
    let mut pruned = 0usize;
    let mut best_so_far = f64::INFINITY;
    for cand in &plan.candidates {
        if successes >= max_measurements {
            break;
        }
        if let Some(lb) = bound(cand) {
            if lb > best_so_far {
                pruned += 1;
                successes += 1;
                costs.push(None);
                continue;
            }
        }
        let cost = measure(cand);
        if let Some(c) = cost {
            successes += 1;
            if c < best_so_far {
                best_so_far = c;
            }
        }
        costs.push(cost);
    }
    let mut result = select(plan, &costs)?;
    // `select` counted pruned candidates as skipped (they have no cost);
    // reclassify them.
    result.skipped -= pruned;
    result.pruned = pruned;
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Span;
    use multidim_ir::{ProgramBuilder, ReduceOp, ScalarKind, Size};

    fn program() -> (Program, Bindings) {
        let mut b = ProgramBuilder::new("t");
        let r = b.sym("R");
        let c = b.sym("C");
        let m = b.input("m", ScalarKind::F32, &[Size::sym(r), Size::sym(c)]);
        let root = b.map(Size::sym(r), |b, row| {
            b.reduce(Size::sym(c), ReduceOp::Add, |b, col| {
                b.read(m, &[row.into(), col.into()])
            })
        });
        let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
        let mut bind = Bindings::new();
        bind.bind(r, 512);
        bind.bind(c, 512);
        (p, bind)
    }

    /// The test program's plan under `options`.
    fn plan_with(options: &TuneOptions) -> TunePlan {
        let (p, bind) = program();
        plan(
            &p,
            &bind,
            &GpuSpec::tesla_k20c(),
            &Weights::default(),
            options,
        )
    }

    /// Measure every candidate of the default plan with `cost`, unpruned
    /// and uncapped.
    fn tune_all(cost: impl FnMut(&ScoredMapping) -> Option<f64>) -> Option<TuneResult> {
        tune_pruned(
            &plan_with(&TuneOptions::default()),
            usize::MAX,
            |_| None,
            cost,
        )
    }

    #[test]
    fn finds_the_synthetic_optimum() {
        // Synthetic cost: block_threads distance from 128 — the tuner must
        // find a 128-thread candidate.
        let r = tune_all(|c| Some((c.mapping.block_threads() as f64 - 128.0).abs())).unwrap();
        assert_eq!(r.best.block_threads(), 128);
        assert_eq!(r.best_cost, 0.0);
        assert!(r.measured.len() > 10);
    }

    #[test]
    fn score_floor_prunes() {
        let full = tune_all(|_| Some(1.0)).unwrap();
        let floored = plan_with(&TuneOptions {
            score_floor: 0.9,
            ..Default::default()
        });
        let pruned = tune_pruned(&floored, usize::MAX, |_| None, |_| Some(1.0)).unwrap();
        assert!(pruned.measured.len() < full.measured.len());
    }

    #[test]
    fn measurement_cap() {
        let plan = plan_with(&TuneOptions::default());
        let r = tune_pruned(&plan, 5, |_| None, |_| Some(1.0)).unwrap();
        assert_eq!(r.measured.len(), 5);
    }

    #[test]
    fn unmeasurable_candidates_are_skipped() {
        let r = tune_all(|c| {
            // Pretend splits are not executable.
            let m = &c.mapping;
            if m.levels().iter().any(|l| matches!(l.span, Span::Split(_))) {
                None
            } else {
                Some(m.block_threads() as f64)
            }
        })
        .unwrap();
        assert!(!r.measured.is_empty());
    }

    #[test]
    fn selection_is_order_independent() {
        // Measure the same candidates through `select` with costs that tie
        // everywhere: the winner must be the lowest-index candidate, the
        // same one the serial loop picks — no matter which thread or order
        // produced the measurements.
        let serial = tune_all(|c| Some((c.mapping.block_threads() % 7) as f64)).unwrap();
        let plan = plan_with(&TuneOptions::default());
        // "Parallel" measurement: compute all costs, in reverse order.
        let mut costs = vec![None; plan.candidates.len()];
        for i in (0..plan.candidates.len()).rev() {
            costs[i] = Some((plan.candidates[i].mapping.block_threads() % 7) as f64);
        }
        let parallel = select(&plan, &costs).unwrap();
        assert_eq!(parallel.best, serial.best);
        assert_eq!(parallel.best_cost, serial.best_cost);
        assert_eq!(parallel.measured.len(), serial.measured.len());
    }

    #[test]
    fn none_when_nothing_measurable() {
        assert!(tune_all(|_| None).is_none());
    }
}
