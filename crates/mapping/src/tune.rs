//! Empirical auto-tuning over the mapping space.
//!
//! Section IV-B: "our mapping parameters can be used by other compiler or
//! auto-tuners to explore the mapping space", and the Figure 17 discussion
//! notes the static score has false negatives that only measurement can
//! recover. This module provides that exploration: enumerate the
//! hard-valid candidates, optionally pre-filter by static score ([`plan`]),
//! measure each with a caller-provided cost function ([`tune_pruned`], the
//! measurement loop, or [`tune_parallel`], the same loop's decisions
//! reached on several threads), and fold the costs into the empirically
//! best mapping ([`select`]). [`tune_parallel`] commits costs that arrive
//! out of order as the measurement loop would, and hands each measurement
//! the best cost committed so far as a ceiling it may stop at.

use crate::constraint::Weights;
use crate::params::MappingDecision;
use crate::search::{enumerate_scored, ScoredMapping};
use multidim_device::GpuSpec;
use multidim_ir::{Bindings, Program};
use multidim_trace as trace;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Tuning configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneOptions {
    /// Only measure candidates whose normalized score is at least this
    /// fraction of the best score (1.0 = only ties with the static
    /// winner; 0.0 = measure everything). Score-guided pruning trades
    /// tuning time against Figure 17's region-C false negatives.
    pub score_floor: f64,
    /// Cap on the candidates the loop gets through, highest-scored first:
    /// it stops once this many have measured successfully or been pruned
    /// (a pruned candidate stands in for the measurement it saved).
    /// Candidates that fail to measure do not count.
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
    /// Measured cost (seconds, or any monotone figure of merit); when
    /// `cut`, a lower bound on it.
    pub cost: f64,
    /// The measurement stopped early, once its cost provably exceeded the
    /// best committed before it: `cost` is then the bound it stopped at,
    /// which exceeds [`TuneResult::best_cost`].
    pub cut: bool,
    /// Position of the candidate in the [`TunePlan`] (score order). Cost
    /// ties are broken on this index, so selection is deterministic no
    /// matter in which order (or on which threads) measurements finished.
    pub index: usize,
}

/// What measuring a candidate against a ceiling found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost {
    /// The candidate's cost; when `cut`, a lower bound on it that exceeds
    /// the ceiling the measurement ran against.
    pub value: f64,
    /// The measurement stopped before it finished.
    pub cut: bool,
}

impl Cost {
    /// A finished measurement's cost.
    pub fn exact(value: f64) -> Cost {
        Cost { value, cut: false }
    }

    /// The lower bound a measurement stopped at.
    pub fn cut(bound: f64) -> Cost {
        Cost {
            value: bound,
            cut: true,
        }
    }
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
    /// [`tune_pruned`] and [`tune_parallel`] set this; plain [`select`]
    /// reports 0).
    pub pruned: usize,
}

/// The prepared measurement list for one tuning run: hard-valid candidates
/// that survived the score floor, sorted by static score descending.
///
/// Constraint collection and candidate enumeration happen once, in
/// [`plan`]; the measurements themselves are independent and may run on
/// any thread in any order — [`select`] is order-independent.
#[derive(Debug, Clone, PartialEq)]
pub struct TunePlan {
    /// Candidates to measure, best static score first.
    pub candidates: Vec<ScoredMapping>,
}

/// Enumerate and pre-filter the candidates to measure (the serial phase of
/// tuning). Applies `options.score_floor`; `options.max_measurements` is
/// enforced by the measurement loop ([`tune_pruned`], or [`tune_parallel`]
/// with the same decisions).
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
                cut: false,
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
/// stopping once `max_measurements` of them measured successfully or were
/// pruned, and fold the costs with [`select`]. `measure` returns a
/// candidate's cost, or `None` when it cannot be compiled/executed.
///
/// Before measuring a candidate, `bound` may return a **sound lower
/// bound** on its cost (e.g. the locality analysis's seconds floor); pass
/// `|_| None` to measure every candidate. A candidate whose bound
/// *strictly exceeds* the best measured cost so far is discarded without
/// measurement. The bound need only hold for candidates that measure
/// successfully, so a pruned candidate may be one whose measurement would
/// have failed: it then counts as pruned rather than skipped (no catalog
/// candidate fails, so pruned and unpruned searches of the catalog both
/// skip none).
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
    let mut ledger = Ledger::new(plan, max_measurements);
    for cand in &plan.candidates {
        if !ledger.open() {
            break;
        }
        let lb = bound(cand);
        ledger.commit(lb, || measure(cand).map(Cost::exact));
    }
    ledger.finish(plan)
}

/// [`tune_pruned`] on `threads` threads: the caller's plus scoped helpers,
/// never more than the plan has candidates. With measurements that finish,
/// the result equals [`tune_pruned`]'s with the same bound and costs,
/// whatever the thread count and the order in which measurements finish:
/// every cost, the measured order, `pruned`, `skipped` and `best`.
///
/// `bound` returns a candidate's lower bound together with what its
/// measurement needs (say, the kernels the bound lowered), and `measure`
/// takes both; the two run on the same thread. Helpers adopt the caller's
/// trace context, so their spans nest under the caller's open span.
///
/// `measure` also gets the ceiling: the best cost of the committed
/// prefix, as `f64` bits, which falls as commits land. A measurement may
/// stop once its cost provably exceeds it and return [`Cost::cut`] with a
/// lower bound above it. That candidate cannot win: it commits as measured with
/// its bound, which exceeds the best at its commit, so `best`,
/// `best_cost`, the measured candidates and the pruned and skipped counts
/// stay the serial loop's; only cut costs, flagged
/// [`Measured::cut`], and the order among the losers differ.
///
/// # Speculation, committed in score order
///
/// Workers claim candidates in score order, bound each, and measure it
/// unless its bound already exceeds the best cost of the *committed
/// prefix*, the candidates before the first unfinished one. Results
/// commit in score order, under one lock, through the prune-and-cap rule
/// [`tune_pruned`] runs on. The committed best only falls as the prefix
/// grows, so a candidate left unmeasured is one the serial loop prunes
/// too. The converse does not hold: a measurement whose bound exceeds the
/// best at its commit is speculation the serial loop would have pruned,
/// and it is thrown away. Once the cap is reached, workers stop claiming,
/// and results past it are dropped.
///
/// Returns `None` when no candidate was measured.
pub fn tune_parallel<T>(
    plan: &TunePlan,
    max_measurements: usize,
    threads: usize,
    bound: impl Fn(&ScoredMapping) -> (Option<f64>, T) + Sync,
    measure: impl Fn(&ScoredMapping, T, &AtomicU64) -> Option<Cost> + Sync,
) -> Option<TuneResult> {
    let threads = threads.min(plan.candidates.len()).max(1);
    let next = AtomicUsize::new(0);
    let ledger = Ledger::new(plan, max_measurements);
    let ceiling = ledger.ceiling();
    let ledger = Mutex::new(ledger);
    let lock = || ledger.lock().expect("tuning ledger lock");
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(cand) = plan.candidates.get(i) else {
            break;
        };
        let (lb, input) = bound(cand);
        let speculate = {
            let ledger = lock();
            if !ledger.open() {
                break;
            }
            !ledger.prunes(lb)
        };
        // A candidate its worker saw pruned is pruned at its commit too:
        // the committed best only falls.
        let cost = speculate.then(|| measure(cand, input, &ceiling)).flatten();
        lock().deliver(i, lb, cost);
    };
    let ctx = trace::current();
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| {
                let _ctx = ctx.map(trace::set_current);
                work();
            });
        }
        work();
    });
    let ledger = ledger.into_inner().expect("tuning ledger lock");
    ledger.finish(plan)
}

/// The measurement loop's decisions, taken one candidate at a time in
/// score order: the prune-and-cap rule [`tune_pruned`] and
/// [`tune_parallel`] share.
///
/// Results arrive with [`Ledger::deliver`], in any order, and commit in
/// score order as far as they run on without a gap. A candidate whose
/// lower bound strictly exceeds the best committed cost is pruned, each
/// successful measurement or pruned candidate counts against the cap, and
/// once the cap is reached later results are dropped. The best committed
/// cost is published as the [`Ledger::ceiling`].
#[derive(Debug)]
struct Ledger {
    cap: usize,
    /// Committed costs, in score order (`None` = pruned or failed).
    costs: Vec<Option<Cost>>,
    /// Delivered results waiting for their turn to commit.
    done: Vec<Option<(Option<f64>, Option<Cost>)>>,
    /// Committed candidates that count against the cap: successful
    /// measurements and pruned candidates.
    counted: usize,
    pruned: usize,
    /// The best committed cost, as `f64` bits.
    best: Arc<AtomicU64>,
}

impl Ledger {
    /// An empty ledger for `plan`'s candidates, closing after `cap`
    /// counted ones.
    fn new(plan: &TunePlan, cap: usize) -> Ledger {
        Ledger {
            cap,
            costs: Vec::new(),
            done: vec![None; plan.candidates.len()],
            counted: 0,
            pruned: 0,
            best: Arc::new(AtomicU64::new(f64::INFINITY.to_bits())),
        }
    }

    /// The best committed cost, as `f64` bits (infinite before the first
    /// measurement). It only falls, and every committed candidate comes
    /// before any still being measured, so a measurement whose cost
    /// provably exceeds it has lost.
    fn ceiling(&self) -> Arc<AtomicU64> {
        self.best.clone()
    }

    fn best(&self) -> f64 {
        f64::from_bits(self.best.load(Ordering::Relaxed))
    }

    /// Whether the loop goes on to the next candidate.
    fn open(&self) -> bool {
        self.counted < self.cap
    }

    /// Whether a candidate with lower bound `bound` is pruned against the
    /// best committed cost.
    fn prunes(&self, bound: Option<f64>) -> bool {
        bound.is_some_and(|lb| lb > self.best())
    }

    /// Deliver candidate `index`'s lower bound and cost (`None` when it
    /// failed, or was not measured because its bound prunes it), and
    /// commit as far as the results run on without a gap, or until the
    /// cap closes the ledger.
    fn deliver(&mut self, index: usize, bound: Option<f64>, cost: Option<Cost>) {
        self.done[index] = Some((bound, cost));
        while self.open() {
            let k = self.costs.len();
            let Some((bound, cost)) = self.done.get_mut(k).and_then(Option::take) else {
                break;
            };
            self.commit(bound, || cost);
        }
    }

    /// Commit the next candidate: pruned on its bound, else costed by
    /// `measure`.
    fn commit(&mut self, bound: Option<f64>, measure: impl FnOnce() -> Option<Cost>) {
        let cost = if self.prunes(bound) {
            self.pruned += 1;
            self.counted += 1;
            None
        } else {
            let cost = measure();
            if let Some(c) = cost {
                self.counted += 1;
                if c.value < self.best() {
                    self.best.store(c.value.to_bits(), Ordering::Relaxed);
                }
            }
            cost
        };
        self.costs.push(cost);
    }

    /// Fold the committed costs with [`select`]; `None` when no candidate
    /// was measured.
    fn finish(self, plan: &TunePlan) -> Option<TuneResult> {
        let values: Vec<Option<f64>> = self.costs.iter().map(|c| c.map(|c| c.value)).collect();
        let mut result = select(plan, &values)?;
        for m in &mut result.measured {
            m.cut = self.costs[m.index].is_some_and(|c| c.cut);
        }
        // `select` counted pruned candidates as skipped (they have no
        // cost); reclassify them.
        result.skipped -= self.pruned;
        result.pruned = self.pruned;
        Some(result)
    }
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

        /// A small whole number, so costs and bounds tie often.
        fn small(&mut self) -> f64 {
            self.below(6) as f64
        }
    }

    /// Per candidate: a cost (`None` = not executable) drawn from a small
    /// pool, a bound that is absent, sound (at or below the cost) or
    /// unsound (above it), and how long its measurement takes.
    struct Case {
        costs: Vec<Option<f64>>,
        bounds: Vec<Option<f64>>,
        delays: Vec<std::time::Duration>,
    }

    impl Case {
        fn draw(rng: &mut Rng, n: usize) -> Case {
            let costs: Vec<Option<f64>> = (0..n)
                .map(|_| (rng.below(5) > 0).then(|| 1.0 + rng.small()))
                .collect();
            let bounds = costs
                .iter()
                .map(|&cost| {
                    let c = cost.unwrap_or_else(|| rng.small());
                    match rng.below(4) {
                        0 => None,
                        1 | 2 => Some(c - rng.below(3) as f64),
                        _ => Some(c + 1.0 + rng.below(3) as f64),
                    }
                })
                .collect();
            let delays = (0..n)
                .map(|_| {
                    let us = if rng.below(3) == 0 { rng.below(300) } else { 0 };
                    std::time::Duration::from_micros(us)
                })
                .collect();
            Case {
                costs,
                bounds,
                delays,
            }
        }
    }

    /// The seeded property: on random plans, costs with ties and `None`s,
    /// and sound, unsound or absent bounds, `tune_parallel` returns exactly
    /// what `tune_pruned` returns, at caps 0, 1, 3 and unbounded, on 1–4
    /// threads, with measurements that finish out of order.
    #[test]
    fn parallel_loop_commits_the_serial_decisions() {
        let base = plan_with(&TuneOptions::default());
        let mut rng = Rng(0x7475_6e65_5f70_6172);
        for seed in 0..24 {
            let n = rng.below(48) as usize;
            let plan = TunePlan {
                candidates: base.candidates.iter().take(n).cloned().collect(),
            };
            let case = Case::draw(&mut rng, n);
            let index = |c: &ScoredMapping| {
                plan.candidates
                    .iter()
                    .position(|x| std::ptr::eq(x, c))
                    .expect("a candidate of the plan")
            };
            for cap in [0, 1, 3, usize::MAX] {
                let serial = tune_pruned(
                    &plan,
                    cap,
                    |c| case.bounds[index(c)],
                    |c| case.costs[index(c)],
                );
                for threads in 1..=4 {
                    let parallel = tune_parallel(
                        &plan,
                        cap,
                        threads,
                        |c| (case.bounds[index(c)], index(c)),
                        |_, i, _| {
                            std::thread::sleep(case.delays[i]);
                            case.costs[i].map(Cost::exact)
                        },
                    );
                    assert_eq!(
                        parallel, serial,
                        "seed {seed}: {n} candidates, cap {cap}, {threads} threads"
                    );
                }
            }
        }
    }

    /// The same property with measurements that honour the ceiling: a
    /// measurement whose cost exceeds the ceiling it reads after its delay
    /// stops with a bound drawn from (ceiling, cost]. Against the serial
    /// loop, `best`, `best_cost`, the counts and the measured candidates
    /// match, exact costs are bit-equal, and each cut cost lies at or below
    /// the true cost and above `best_cost`.
    #[test]
    fn parallel_loop_with_cuts_keeps_the_serial_decisions() {
        let base = plan_with(&TuneOptions::default());
        let mut rng = Rng(0x6365_696c_696e_6721);
        let mut cuts = 0usize;
        for seed in 0..24 {
            let n = rng.below(48) as usize;
            let plan = TunePlan {
                candidates: base.candidates.iter().take(n).cloned().collect(),
            };
            let case = Case::draw(&mut rng, n);
            // Where in (ceiling, cost] each candidate's cut bound falls.
            let shares: Vec<f64> = (0..n).map(|_| (1 + rng.below(4)) as f64 / 4.0).collect();
            let index = |c: &ScoredMapping| {
                plan.candidates
                    .iter()
                    .position(|x| std::ptr::eq(x, c))
                    .expect("a candidate of the plan")
            };
            for cap in [0, 1, 3, usize::MAX] {
                let serial = tune_pruned(
                    &plan,
                    cap,
                    |c| case.bounds[index(c)],
                    |c| case.costs[index(c)],
                );
                for threads in 1..=4 {
                    let parallel = tune_parallel(
                        &plan,
                        cap,
                        threads,
                        |c| (case.bounds[index(c)], index(c)),
                        |_, i, ceiling| {
                            std::thread::sleep(case.delays[i]);
                            let cost = case.costs[i]?;
                            let ceiling = f64::from_bits(ceiling.load(Ordering::Relaxed));
                            Some(if cost > ceiling {
                                Cost::cut(ceiling + (cost - ceiling) * shares[i])
                            } else {
                                Cost::exact(cost)
                            })
                        },
                    );
                    let at = format!("seed {seed}: {n} candidates, cap {cap}, {threads} threads");
                    let (Some(serial), Some(parallel)) = (&serial, parallel) else {
                        assert!(serial.is_none(), "{at}: no result");
                        continue;
                    };
                    assert_eq!(parallel.best, serial.best, "{at}");
                    assert_eq!(
                        parallel.best_cost.to_bits(),
                        serial.best_cost.to_bits(),
                        "{at}"
                    );
                    assert_eq!(parallel.pruned, serial.pruned, "{at}");
                    assert_eq!(parallel.skipped, serial.skipped, "{at}");
                    let indices = |r: &TuneResult| {
                        let mut v: Vec<usize> = r.measured.iter().map(|m| m.index).collect();
                        v.sort_unstable();
                        v
                    };
                    assert_eq!(indices(&parallel), indices(serial), "{at}");
                    for m in &parallel.measured {
                        let cost = case.costs[m.index].expect("a measured candidate has a cost");
                        if m.cut {
                            cuts += 1;
                            assert!(m.cost <= cost, "{at}: cut {} above {cost}", m.cost);
                            assert!(m.cost > parallel.best_cost, "{at}: cut {}", m.cost);
                        } else {
                            assert_eq!(m.cost.to_bits(), cost.to_bits(), "{at}");
                        }
                    }
                }
            }
        }
        assert!(cuts > 0, "no measurement was cut");
    }
}
