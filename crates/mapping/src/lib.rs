//! Locality-aware mapping analysis for nested parallel patterns on GPUs.
//!
//! This crate implements the central contribution of *Locality-Aware Mapping
//! of Nested Parallel Patterns on GPUs* (MICRO 2014):
//!
//! 1. **Mapping parameters** (Section IV-A): each nest level gets a logical
//!    [`Dim`]ension, a block size, and a [`Span`]/Split degree-of-parallelism
//!    control.
//! 2. **Constraints** (Section IV-C, Table II): hard constraints encode
//!    correctness (synchronization ⇒ `Span(all)`, device limits), soft
//!    constraints encode weighted performance hints (coalescing wants
//!    dimension x, warp-multiple blocks, minimum occupancy), with weights
//!    derived from access execution counts (Figure 8).
//! 3. **Search** (Section IV-D, Algorithm 1): brute-force enumeration of
//!    the candidate space, hard filtering, soft scoring, DOP tie-breaking,
//!    and the `ControlDOP` post-pass that rewrites spans to reach the
//!    device's `[MIN_DOP, MAX_DOP]` window.
//! 4. **Fixed strategies** (Section IV-B, Figure 7): *1D*,
//!    *thread-block/thread* and *warp-based* mappings expressed as fixed
//!    points of the same parameter space, used as evaluation baselines.
//!
//! # Examples
//!
//! ```
//! use multidim_ir::*;
//! use multidim_mapping::*;
//! use multidim_device::GpuSpec;
//!
//! // sumCols: adjacent *outer* iterations touch adjacent memory, so the
//! // analysis must give level 0 dimension x — the opposite of sumRows.
//! let mut b = ProgramBuilder::new("sumCols");
//! let r = b.sym("R");
//! let c = b.sym("C");
//! let m = b.input("m", ScalarKind::F32, &[Size::sym(r), Size::sym(c)]);
//! let root = b.map(Size::sym(c), |b, col| {
//!     b.reduce(Size::sym(r), ReduceOp::Add, |b, row| {
//!         b.read(m, &[row.into(), col.into()])
//!     })
//! });
//! let p = b.finish_map(root, "sums", ScalarKind::F32).unwrap();
//! let mut bind = Bindings::new();
//! bind.bind(r, 8192);
//! bind.bind(c, 8192);
//!
//! let analysis = analyze(&p, &bind, &GpuSpec::tesla_k20c());
//! assert!(analysis.decision.level(0).dim.is_x());
//! ```

#![warn(missing_docs)]

mod collect;
mod constraint;
mod params;
mod search;
mod strategy;
mod tune;

pub use collect::collect_constraints;
pub use constraint::{
    ConstraintSet, HardConstraint, SoftConstraint, SoftKind, SpanAllReason, Weights,
};
pub use params::{Dim, LevelMapping, MappingDecision, Span};
pub use search::{
    analysis_extents, analyze, analyze_with, control_dop, enumerate_scored, observe_analysis,
    size_set, Analysis, ScoredMapping,
};
pub use strategy::{figure7_dop, fixed_mapping, Strategy};
pub use tune::{plan, select, tune_pruned, Measured, TuneOptions, TunePlan, TuneResult};
