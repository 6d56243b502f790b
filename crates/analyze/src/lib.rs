//! Static analysis for the multidim pattern IR.
//!
//! The mapping analysis (paper Section IV) derives affine address forms
//! for every access but only *scores* them; this crate turns the same
//! facts into legality and determinism verdicts:
//!
//! * **Race detection**: write-write disjointness of `Foreach` and scatter
//!   effects, proven by solving the affine address maps for index
//!   collisions across pattern instances.
//! * **Bounds proving**: every access's reachable address interval checked
//!   against the declared array extent.
//! * **Lints**: floating-point combine order under `Split(k)` mappings,
//!   atomic placement order, and disagreeing sibling extents.
//! * **Locality analysis**: per-candidate-mapping classification of every
//!   global access (coalesced / strided / broadcast / scattered), proven
//!   shared-memory bank-conflict degrees and per-block footprints, reuse
//!   summaries, a sound memory-transaction lower bound, and a seconds
//!   floor that prunes the mapping search ([`locality_of`],
//!   [`LocalitySummary`], [`seconds_lower_bound`]).
//! * **Diagnostics**: stable `MD0xx` codes, severities, a
//!   proven/refuted/unknown verdict lattice, terminal + JSON renderings,
//!   and the comma-joined code list trace spans carry
//!   ([`Report::codes`]).
//! * **Sanitizer cross-check**: dynamic confirmation of every `Proven`
//!   verdict against the simulator's recorded write sets; the locality
//!   stage has an equivalent check ([`locality_cross_check`]) against the
//!   simulator's measured memory counters.
//!
//! # Diagnostic codes
//!
//! The table below is generated from [`CODE_TABLE`] (the single source of
//! truth, kept in sync by a test):
//!
//! | Code | Name | Description |
//! |------|------|-------------|
//! | MD001 | RACE | proven write-write race: two pattern instances store to one address |
//! | MD002 | MAYBE_RACE | possible race: a scatter store whose disjointness cannot be proven |
//! | MD003 | OOB | proven out-of-bounds access |
//! | MD004 | MAYBE_OOB | possible out-of-bounds access (affine but unprovable, or guarded) |
//! | MD005 | SPLIT_NONDET | float reduce combine order depends on a Split(k) mapping |
//! | MD006 | EXTENT_MISMATCH | sibling patterns at one nest level disagree on their extents |
//! | MD007 | ATOMIC_ORDER | atomic float combine order (groupBy/filter placement) is non-deterministic |
//! | MD008 | KERNEL_DEFECT | structural kernel defect reported by codegen::validate |
//! | MD009 | DYNAMIC_INDEX | data-dependent index defeats the static bounds proof |
//! | MD010 | UNCOALESCED | hot global access is provably uncoalesced (strided) under the chosen mapping |
//! | MD011 | BANK_CONFLICT | shared-memory access with a proven bank-conflict degree >= 2 |
//! | MD012 | SMEM_OVERFLOW | proven per-block shared-memory footprint exceeds device capacity |
//! | MD013 | UNEXPLOITED_REUSE | high-reuse read not staged through shared memory |
//! | MD014 | SCATTERED | data-dependent (non-affine) global access: coalescing unprovable |
//! | MD015 | SMEM_PRESSURE | shared-memory footprint above half of capacity limits residency |
//! | MD016 | DYN_ESTIMATE | data-dependent extent: the mapper sizes this level from the workload's estimate |
//!
//! ```
//! use multidim_ir::{ProgramBuilder, ScalarKind, Size, Effect, Expr};
//! use multidim_analyze::{analyze_program, Verdict};
//!
//! let mut b = ProgramBuilder::new("scale");
//! let n = b.sym("N");
//! let x = b.input("x", ScalarKind::F32, &[Size::sym(n)]);
//! let y = b.output("y", ScalarKind::F32, &[Size::sym(n)]);
//! let root = b.foreach(Size::sym(n), |b, i| {
//!     let v = b.read(x, &[i.into()]) * Expr::lit(2.0);
//!     vec![Effect::Write { cond: None, array: y, idx: vec![Expr::var(i)], value: v }]
//! });
//! let p = b.finish_foreach(root).unwrap();
//! let mut bind = multidim_ir::Bindings::new();
//! bind.bind(n, 1024);
//! let report = analyze_program(&p, &bind);
//! assert!(!report.has_errors());
//! assert_eq!(report.race_free(y), Verdict::Proven);
//! ```

#![warn(missing_docs)]

mod bounds;
mod diag;
mod eval;
mod lint;
mod locality;
mod race;
mod sanitizer;

pub use diag::{ArrayVerdicts, Code, CodeRow, Diagnostic, Report, Severity, Verdict, CODE_TABLE};
pub use lint::lint_mapping;
pub use locality::{
    locality_cross_check, locality_of, seconds_lower_bound, AccessClass, AccessLocality, BankProof,
    LocalityFacts, LocalitySummary, ReuseSummary, SmemProof,
};
pub use sanitizer::cross_check;

use multidim_codegen::KernelError;
use multidim_ir::{ArrayId, Bindings, Program};
use std::collections::BTreeMap;

/// Run the mapping-independent analyses (races, bounds, nest lints) over
/// `program` and return the structured report.
pub fn analyze_program(program: &Program, bindings: &Bindings) -> Report {
    let mut diags = Vec::new();
    let mut race_verdicts: BTreeMap<ArrayId, Verdict> = BTreeMap::new();
    let mut bounds_verdicts: BTreeMap<ArrayId, Verdict> = BTreeMap::new();

    race::check(program, bindings, &mut diags, &mut race_verdicts);
    bounds::check(program, bindings, &mut diags, &mut bounds_verdicts);
    lint::nest_lints(program, &mut diags);

    let arrays = program
        .arrays
        .iter()
        .map(|decl| ArrayVerdicts {
            array: decl.id,
            name: decl.name.clone(),
            race_free: race_verdicts
                .get(&decl.id)
                .copied()
                .unwrap_or(Verdict::Proven),
            in_bounds: bounds_verdicts
                .get(&decl.id)
                .copied()
                .unwrap_or(Verdict::Proven),
        })
        .collect();

    Report {
        program: program.name.clone(),
        diagnostics: diags,
        arrays,
    }
}

/// Wrap a structural kernel defect from `codegen::validate` in the
/// diagnostics vocabulary (`MD008`, error).
pub fn kernel_defect(err: &KernelError) -> Diagnostic {
    Diagnostic::new(Code::KERNEL_DEFECT, Severity::Error, err.0.clone())
}

#[cfg(test)]
mod tests;
