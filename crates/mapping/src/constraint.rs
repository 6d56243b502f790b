//! Mapping constraints (Section IV-C, Table II).
//!
//! Constraints are classified along two orthogonal axes:
//!
//! * **weight** — *hard* constraints must hold for correctness (span
//!   requirements, block-size limits); *soft* constraints are scored
//!   performance hints, each with a derived weight = intrinsic weight ×
//!   execution count ÷ branch discount (Figure 8).
//! * **scope** — *local* constraints concern one pattern/level; *global*
//!   constraints relate several (the conservative-span merge, the minimum
//!   total block size).

use crate::params::{MappingDecision, Span};
use std::fmt;

/// Why a level is forced to `Span(all)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanAllReason {
    /// The pattern needs synchronization across its iterations (`Reduce`,
    /// `Filter`, `GroupBy`); `ControlDOP` may upgrade to `Split(k)` because
    /// a combiner kernel can merge partials.
    Synchronization,
    /// The extent is unknown at launch time; the level cannot be chunked,
    /// so `Split` is not applicable either.
    DynamicSize,
}

impl fmt::Display for SpanAllReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanAllReason::Synchronization => write!(f, "synchronization"),
            SpanAllReason::DynamicSize => write!(f, "dynamic size"),
        }
    }
}

/// A hard constraint: must be satisfied by every candidate mapping.
#[derive(Debug, Clone, PartialEq)]
pub enum HardConstraint {
    /// `level` must use `Span(all)` (local; merged per level, which is the
    /// Table II "most conservative span" global rule).
    SpanAll {
        /// Which nest level.
        level: usize,
        /// Why (controls whether `Split` may later replace it).
        reason: SpanAllReason,
    },
    /// Total threads per block may not exceed the device limit (global).
    MaxBlockThreads(u32),
    /// Parallelizing sync-needing levels in-block consumes shared memory
    /// (one slot per block thread); the block may not need more than the
    /// device provides (global).
    SmemCapacity {
        /// Bytes available per block.
        bytes: u32,
        /// Bytes needed per thread of the block when any sync level is
        /// block-parallel.
        bytes_per_thread: u32,
    },
    /// Two *nested* synchronization-requiring levels cannot both be
    /// block-parallel: the inner level's barrier would sit inside the
    /// outer level's lane-dependent loop (undefined behaviour on real
    /// hardware; rejected by the code generator). One of the two must run
    /// sequentially per thread (block size 1).
    NestedSyncExclusive {
        /// The enclosing span-all level.
        outer: usize,
        /// The enclosed span-all level.
        inner: usize,
    },
}

impl fmt::Display for HardConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HardConstraint::SpanAll { level, reason } => {
                write!(f, "L{level} must span all ({reason})")
            }
            HardConstraint::MaxBlockThreads(max) => write!(f, "block ≤ {max} threads"),
            HardConstraint::SmemCapacity {
                bytes,
                bytes_per_thread,
            } => {
                write!(f, "smem ≤ {bytes}B at {bytes_per_thread}B/thread")
            }
            HardConstraint::NestedSyncExclusive { outer, inner } => {
                write!(f, "nested sync L{outer}/L{inner} not both block-parallel")
            }
        }
    }
}

/// The performance hint a soft constraint encodes.
#[derive(Debug, Clone, PartialEq)]
pub enum SoftKind {
    /// This level issues sequential memory requests: give it dimension `x`
    /// (Table II row 3, first half).
    DimX {
        /// Which nest level.
        level: usize,
    },
    /// …and a block size that is a multiple of the warp width, so whole
    /// warps coalesce (Table II row 3, second half).
    WarpMultiple {
        /// Which nest level.
        level: usize,
    },
    /// Combined block size at least `min` threads (Table II row 4).
    MinBlockThreads {
        /// Threshold (64 in the paper).
        min: u32,
    },
    /// A level's block size should not exceed its extent (oversized blocks
    /// idle; one of the "common optimizations GPU experts apply").
    NoIdleThreads {
        /// Which nest level.
        level: usize,
        /// The level's (estimated) extent.
        extent: i64,
    },
    /// Mild preference for a moderate total block size (register/occupancy
    /// sweet spot around 256 threads).
    ModerateBlock,
}

/// A weighted soft constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftConstraint {
    /// What is preferred.
    pub kind: SoftKind,
    /// Derived weight: intrinsic × execution count ÷ branch discount.
    pub weight: f64,
}

impl SoftConstraint {
    /// Does `mapping` satisfy this constraint?
    pub fn satisfied(&self, mapping: &MappingDecision) -> bool {
        match &self.kind {
            SoftKind::DimX { level } => mapping.level(*level).dim.is_x(),
            SoftKind::WarpMultiple { level } => {
                // Compound with the dimension choice (Table II row 3):
                // a warp-multiple block only helps coalescing when the
                // level actually sits on dimension x.
                let lm = mapping.level(*level);
                lm.dim.is_x()
                    && lm.block_size >= multidim_device::WARP_SIZE
                    && lm.block_size.is_multiple_of(multidim_device::WARP_SIZE)
            }
            SoftKind::MinBlockThreads { min } => mapping.block_threads() >= *min as u64,
            SoftKind::NoIdleThreads { level, extent } => {
                mapping.level(*level).block_size as i64 <= (*extent).max(1)
            }
            SoftKind::ModerateBlock => {
                let t = mapping.block_threads();
                (64..=512).contains(&t)
            }
        }
    }
}

impl fmt::Display for SoftConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            SoftKind::DimX { level } => write!(f, "L{level}→DimX (w={:.3})", self.weight),
            SoftKind::WarpMultiple { level } => {
                write!(f, "L{level} block %32==0 (w={:.3})", self.weight)
            }
            SoftKind::MinBlockThreads { min } => {
                write!(f, "block≥{min} (w={:.3})", self.weight)
            }
            SoftKind::NoIdleThreads { level, extent } => {
                write!(f, "L{level} block≤{extent} (w={:.3})", self.weight)
            }
            SoftKind::ModerateBlock => write!(f, "block∈[64,512] (w={:.3})", self.weight),
        }
    }
}

/// Intrinsic weights for the soft-constraint categories.
///
/// The paper: "we assign the highest intrinsic weight on the soft constraint
/// that allows memory coalescing" (bandwidth-bound workloads dominate).
#[derive(Debug, Clone, PartialEq)]
pub struct Weights {
    /// Coalescing (`DimX`): the paper's highest.
    pub coalesce: f64,
    /// Warp-multiple block size for coalescing levels.
    pub warp_multiple: f64,
    /// Minimum total block threads.
    pub min_block: f64,
    /// No idle threads (block ≤ extent).
    pub no_idle: f64,
    /// Moderate block-size preference.
    pub moderate_block: f64,
}

impl Default for Weights {
    fn default() -> Self {
        Weights {
            coalesce: 10.0,
            warp_multiple: 2.0,
            min_block: 3.0,
            no_idle: 1.5,
            moderate_block: 0.05,
        }
    }
}

/// The full constraint set for one program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConstraintSet {
    /// Hard constraints.
    pub hard: Vec<HardConstraint>,
    /// Weighted soft constraints.
    pub soft: Vec<SoftConstraint>,
}

impl ConstraintSet {
    /// The levels forced to `Span(all)`, with the *most restrictive* reason
    /// (dynamic size precludes `Split`).
    pub fn span_all_levels(&self) -> Vec<(usize, SpanAllReason)> {
        let mut out: Vec<(usize, SpanAllReason)> = Vec::new();
        for h in &self.hard {
            if let HardConstraint::SpanAll { level, reason } = h {
                match out.iter_mut().find(|(l, _)| l == level) {
                    Some((_, r)) => {
                        if *reason == SpanAllReason::DynamicSize {
                            *r = SpanAllReason::DynamicSize;
                        }
                    }
                    None => out.push((*level, *reason)),
                }
            }
        }
        out
    }

    /// Check every hard constraint against `mapping`.
    pub fn hard_ok(&self, mapping: &MappingDecision) -> bool {
        self.first_violation(mapping).is_none()
    }

    /// The index in [`ConstraintSet::hard`] of the first hard constraint
    /// `mapping` violates, if any — the prune reason the search counts
    /// per constraint.
    pub fn first_violation(&self, mapping: &MappingDecision) -> Option<usize> {
        self.hard.iter().position(|h| !self.holds(h, mapping))
    }

    fn holds(&self, h: &HardConstraint, mapping: &MappingDecision) -> bool {
        match h {
            HardConstraint::SpanAll { level, .. } => {
                matches!(mapping.level(*level).span, Span::All | Span::Split(_))
            }
            HardConstraint::MaxBlockThreads(max) => mapping.block_threads() <= *max as u64,
            HardConstraint::SmemCapacity {
                bytes,
                bytes_per_thread,
            } => {
                // Only binds when some sync level is parallelized in-block.
                let any_parallel_sync = self
                    .span_all_levels()
                    .iter()
                    .any(|(l, _)| mapping.level(*l).block_size > 1);
                !any_parallel_sync
                    || mapping.block_threads() * *bytes_per_thread as u64 <= *bytes as u64
            }
            HardConstraint::NestedSyncExclusive { outer, inner } => {
                mapping.level(*outer).block_size == 1 || mapping.level(*inner).block_size == 1
            }
        }
    }

    /// Sum of satisfied soft weights (the mapping's raw score).
    pub fn score(&self, mapping: &MappingDecision) -> f64 {
        self.soft
            .iter()
            .filter(|s| s.satisfied(mapping))
            .map(|s| s.weight)
            .sum()
    }

    /// The largest single soft weight (used to normalize scores into the
    /// paper's ~0–2.5 plotting range for Figure 17).
    pub fn max_weight(&self) -> f64 {
        self.soft.iter().map(|s| s.weight).fold(0.0, f64::max)
    }

    /// Score normalized by the maximum single weight.
    pub fn normalized_score(&self, mapping: &MappingDecision) -> f64 {
        let m = self.max_weight();
        if m == 0.0 {
            0.0
        } else {
            self.score(mapping) / m
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Dim, LevelMapping};

    fn mapping(levels: Vec<(Dim, u32, Span)>) -> MappingDecision {
        MappingDecision::new(
            levels
                .into_iter()
                .map(|(dim, block_size, span)| LevelMapping {
                    dim,
                    block_size,
                    span,
                })
                .collect(),
        )
    }

    #[test]
    fn span_all_hard_constraint() {
        let cs = ConstraintSet {
            hard: vec![HardConstraint::SpanAll {
                level: 1,
                reason: SpanAllReason::Synchronization,
            }],
            soft: vec![],
        };
        let ok = mapping(vec![(Dim::Y, 4, Span::ONE), (Dim::X, 32, Span::All)]);
        let split_ok = mapping(vec![(Dim::Y, 4, Span::ONE), (Dim::X, 32, Span::Split(4))]);
        let bad = mapping(vec![(Dim::Y, 4, Span::ONE), (Dim::X, 32, Span::ONE)]);
        assert!(cs.hard_ok(&ok));
        assert!(cs.hard_ok(&split_ok));
        assert!(!cs.hard_ok(&bad));
    }

    #[test]
    fn max_block_threads() {
        let cs = ConstraintSet {
            hard: vec![HardConstraint::MaxBlockThreads(1024)],
            soft: vec![],
        };
        assert!(cs.hard_ok(&mapping(vec![(Dim::X, 1024, Span::ONE)])));
        assert!(!cs.hard_ok(&mapping(vec![
            (Dim::X, 1024, Span::ONE),
            (Dim::Y, 2, Span::ONE)
        ])));
    }

    #[test]
    fn smem_capacity_binds_only_with_parallel_sync() {
        let cs = ConstraintSet {
            hard: vec![
                HardConstraint::SpanAll {
                    level: 0,
                    reason: SpanAllReason::Synchronization,
                },
                HardConstraint::SmemCapacity {
                    bytes: 48 * 1024,
                    bytes_per_thread: 64,
                },
            ],
            soft: vec![],
        };
        // 1024 threads * 64B = 64KB > 48KB: rejected when sync level parallel.
        assert!(!cs.hard_ok(&mapping(vec![(Dim::X, 1024, Span::All)])));
        // Sequential sync level (block 1): no smem needed.
        assert!(cs.hard_ok(&mapping(vec![(Dim::X, 1, Span::All)])));
        // 512 threads * 64B = 32KB: fine.
        assert!(cs.hard_ok(&mapping(vec![(Dim::X, 512, Span::All)])));
    }

    #[test]
    fn soft_scoring_sums_satisfied() {
        let cs = ConstraintSet {
            hard: vec![],
            soft: vec![
                SoftConstraint {
                    kind: SoftKind::DimX { level: 1 },
                    weight: 10.0,
                },
                SoftConstraint {
                    kind: SoftKind::WarpMultiple { level: 1 },
                    weight: 2.0,
                },
                SoftConstraint {
                    kind: SoftKind::MinBlockThreads { min: 64 },
                    weight: 3.0,
                },
            ],
        };
        let good = mapping(vec![(Dim::Y, 4, Span::ONE), (Dim::X, 32, Span::All)]);
        assert_eq!(cs.score(&good), 15.0);
        let bad = mapping(vec![(Dim::X, 4, Span::ONE), (Dim::Y, 8, Span::All)]);
        // DimX{1} unsatisfied, WarpMultiple unsatisfied (8 < 32),
        // MinBlockThreads unsatisfied (32 < 64).
        assert_eq!(cs.score(&bad), 0.0);
    }

    #[test]
    fn no_idle_threads() {
        let c = SoftConstraint {
            kind: SoftKind::NoIdleThreads {
                level: 0,
                extent: 50,
            },
            weight: 1.0,
        };
        assert!(c.satisfied(&mapping(vec![(Dim::Y, 32, Span::ONE)])));
        assert!(!c.satisfied(&mapping(vec![(Dim::Y, 64, Span::ONE)])));
    }

    #[test]
    fn normalized_score_bounded_by_constraint_count() {
        let cs = ConstraintSet {
            hard: vec![],
            soft: vec![
                SoftConstraint {
                    kind: SoftKind::DimX { level: 0 },
                    weight: 100.0,
                },
                SoftConstraint {
                    kind: SoftKind::MinBlockThreads { min: 64 },
                    weight: 10.0,
                },
            ],
        };
        let m = mapping(vec![(Dim::X, 64, Span::ONE)]);
        assert!((cs.normalized_score(&m) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn span_all_levels_prefers_dynamic() {
        let cs = ConstraintSet {
            hard: vec![
                HardConstraint::SpanAll {
                    level: 1,
                    reason: SpanAllReason::Synchronization,
                },
                HardConstraint::SpanAll {
                    level: 1,
                    reason: SpanAllReason::DynamicSize,
                },
            ],
            soft: vec![],
        };
        assert_eq!(cs.span_all_levels(), vec![(1, SpanAllReason::DynamicSize)]);
    }
}
