//! Structured diagnostics: stable codes, severities, verdicts, and a
//! per-program report with terminal and JSON renderings.

use multidim_ir::{ArrayId, PatternId};
use multidim_trace::json::Json;
use std::fmt;

/// A stable diagnostic code, displayed as `MD0xx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Code(pub u16);

impl Code {
    /// Proven write-write race: two pattern instances store to one address.
    pub const RACE: Code = Code(1);
    /// Possible race: a scatter store whose disjointness cannot be proven.
    pub const MAYBE_RACE: Code = Code(2);
    /// Proven out-of-bounds access.
    pub const OOB: Code = Code(3);
    /// Possible out-of-bounds access (affine but unprovable, or guarded).
    pub const MAYBE_OOB: Code = Code(4);
    /// Float reduce combine order depends on a `Split(k)` mapping.
    pub const SPLIT_NONDET: Code = Code(5);
    /// Sibling patterns at one nest level disagree on their extents.
    pub const EXTENT_MISMATCH: Code = Code(6);
    /// Atomic float combine order (groupBy/filter placement) is
    /// non-deterministic.
    pub const ATOMIC_ORDER: Code = Code(7);
    /// Structural kernel defect reported by `codegen::validate`.
    pub const KERNEL_DEFECT: Code = Code(8);
    /// Data-dependent index defeats the static bounds proof.
    pub const DYNAMIC_INDEX: Code = Code(9);
    /// Hot global access is provably uncoalesced (strided) under the
    /// chosen mapping.
    pub const UNCOALESCED: Code = Code(10);
    /// Shared-memory access with a proven bank-conflict degree ≥ 2.
    pub const BANK_CONFLICT: Code = Code(11);
    /// Proven per-block shared-memory footprint exceeds device capacity.
    pub const SMEM_OVERFLOW: Code = Code(12);
    /// High-reuse read not staged through shared memory.
    pub const UNEXPLOITED_REUSE: Code = Code(13);
    /// Data-dependent (non-affine) global access: coalescing unprovable.
    pub const SCATTERED: Code = Code(14);
    /// Shared-memory footprint above half of capacity limits residency.
    pub const SMEM_PRESSURE: Code = Code(15);
    /// A nest level's extent is data-dependent; the mapper falls back to
    /// the workload's estimate for its representative size.
    pub const DYN_ESTIMATE: Code = Code(16);
}

/// One row of the diagnostic-code table: code, short name, description.
pub type CodeRow = (Code, &'static str, &'static str);

/// The complete table of diagnostic codes — the single source of truth
/// used by the `MD0xx` documentation in [`crate`]'s module docs (checked
/// by a test) and by anything that needs to enumerate codes (the obs
/// counter family, the lint example).
pub const CODE_TABLE: &[CodeRow] = &[
    (
        Code::RACE,
        "RACE",
        "proven write-write race: two pattern instances store to one address",
    ),
    (
        Code::MAYBE_RACE,
        "MAYBE_RACE",
        "possible race: a scatter store whose disjointness cannot be proven",
    ),
    (Code::OOB, "OOB", "proven out-of-bounds access"),
    (
        Code::MAYBE_OOB,
        "MAYBE_OOB",
        "possible out-of-bounds access (affine but unprovable, or guarded)",
    ),
    (
        Code::SPLIT_NONDET,
        "SPLIT_NONDET",
        "float reduce combine order depends on a Split(k) mapping",
    ),
    (
        Code::EXTENT_MISMATCH,
        "EXTENT_MISMATCH",
        "sibling patterns at one nest level disagree on their extents",
    ),
    (
        Code::ATOMIC_ORDER,
        "ATOMIC_ORDER",
        "atomic float combine order (groupBy/filter placement) is non-deterministic",
    ),
    (
        Code::KERNEL_DEFECT,
        "KERNEL_DEFECT",
        "structural kernel defect reported by codegen::validate",
    ),
    (
        Code::DYNAMIC_INDEX,
        "DYNAMIC_INDEX",
        "data-dependent index defeats the static bounds proof",
    ),
    (
        Code::UNCOALESCED,
        "UNCOALESCED",
        "hot global access is provably uncoalesced (strided) under the chosen mapping",
    ),
    (
        Code::BANK_CONFLICT,
        "BANK_CONFLICT",
        "shared-memory access with a proven bank-conflict degree >= 2",
    ),
    (
        Code::SMEM_OVERFLOW,
        "SMEM_OVERFLOW",
        "proven per-block shared-memory footprint exceeds device capacity",
    ),
    (
        Code::UNEXPLOITED_REUSE,
        "UNEXPLOITED_REUSE",
        "high-reuse read not staged through shared memory",
    ),
    (
        Code::SCATTERED,
        "SCATTERED",
        "data-dependent (non-affine) global access: coalescing unprovable",
    ),
    (
        Code::SMEM_PRESSURE,
        "SMEM_PRESSURE",
        "shared-memory footprint above half of capacity limits residency",
    ),
    (
        Code::DYN_ESTIMATE,
        "DYN_ESTIMATE",
        "data-dependent extent: the mapper sizes this level from the workload's estimate",
    ),
];

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MD{:03}", self.0)
    }
}

/// How serious a diagnostic is. `Error` aborts compilation when the
/// analyzer runs as a pipeline stage; the rest are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory note.
    Info,
    /// Suspicious but not provably wrong.
    Warn,
    /// Provably wrong; compilation aborts.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
            Severity::Info => "info",
        })
    }
}

/// Outcome of a proof attempt — the three-point verdict lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The property holds for every execution.
    Proven,
    /// The property is violated by some execution.
    Refuted,
    /// Neither provable nor refutable statically.
    Unknown,
}

impl Verdict {
    /// Lattice meet: `Proven` only when both sides are proven, `Refuted`
    /// as soon as either side is.
    pub fn meet(self, other: Verdict) -> Verdict {
        use Verdict::*;
        match (self, other) {
            (Refuted, _) | (_, Refuted) => Refuted,
            (Proven, Proven) => Proven,
            _ => Unknown,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Proven => "proven",
            Verdict::Refuted => "refuted",
            Verdict::Unknown => "unknown",
        })
    }
}

/// One finding: a coded, severity-ranked message anchored to the pattern
/// (and array) it concerns.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code (`MD0xx`).
    pub code: Code,
    /// Severity.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// The pattern the finding anchors to, when known.
    pub pattern: Option<PatternId>,
    /// The array involved, when any (by name, for rendering).
    pub array: Option<String>,
}

impl Diagnostic {
    /// A new diagnostic with no span.
    pub fn new(code: Code, severity: Severity, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            pattern: None,
            array: None,
        }
    }

    /// Anchor to a pattern.
    pub fn with_pattern(mut self, p: PatternId) -> Diagnostic {
        self.pattern = Some(p);
        self
    }

    /// Name the array involved.
    pub fn with_array(mut self, name: impl Into<String>) -> Diagnostic {
        self.array = Some(name.into());
        self
    }

    /// One-line rendering: `MD001 error [p3 @ out] message`.
    pub fn render_line(&self) -> String {
        let mut loc = String::new();
        if let Some(PatternId(p)) = self.pattern {
            loc.push_str(&format!("p{p}"));
        }
        if let Some(a) = &self.array {
            if !loc.is_empty() {
                loc.push_str(" @ ");
            }
            loc.push_str(a);
        }
        if loc.is_empty() {
            format!(
                "{} {:<5} {}",
                self.code,
                self.severity.to_string(),
                self.message
            )
        } else {
            format!(
                "{} {:<5} [{loc}] {}",
                self.code,
                self.severity.to_string(),
                self.message
            )
        }
    }

    /// JSON object rendering.
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("code".to_string(), Json::Str(self.code.to_string())),
            ("severity".to_string(), Json::Str(self.severity.to_string())),
            ("message".to_string(), Json::Str(self.message.clone())),
        ];
        if let Some(PatternId(p)) = self.pattern {
            obj.push(("pattern".to_string(), Json::Num(f64::from(p))));
        }
        if let Some(a) = &self.array {
            obj.push(("array".to_string(), Json::Str(a.clone())));
        }
        Json::Obj(obj)
    }
}

/// The analyzer's verdicts for one array.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayVerdicts {
    /// The array.
    pub array: ArrayId,
    /// Its name (for rendering).
    pub name: String,
    /// Are all non-atomic writes pairwise disjoint?
    pub race_free: Verdict,
    /// Do all accesses stay inside the array's extent?
    pub in_bounds: Verdict,
}

/// Everything the analyzer found for one program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// The analyzed program's name.
    pub program: String,
    /// Findings, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-array verdicts, in declaration order.
    pub arrays: Vec<ArrayVerdicts>,
}

impl Report {
    /// Does the report contain any `Error`-severity diagnostic?
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The diagnostics' codes in discovery order, joined by `,` — the
    /// form trace spans carry them in.
    pub fn codes(&self) -> String {
        let codes: Vec<String> = self
            .diagnostics
            .iter()
            .map(|d| d.code.to_string())
            .collect();
        codes.join(",")
    }

    /// All `Error`-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The race-freedom verdict for `array` (`Proven` when untracked: an
    /// array nobody writes is trivially race-free).
    pub fn race_free(&self, array: ArrayId) -> Verdict {
        self.arrays
            .iter()
            .find(|v| v.array == array)
            .map_or(Verdict::Proven, |v| v.race_free)
    }

    /// The bounds verdict for `array`.
    pub fn in_bounds(&self, array: ArrayId) -> Verdict {
        self.arrays
            .iter()
            .find(|v| v.array == array)
            .map_or(Verdict::Proven, |v| v.in_bounds)
    }

    /// Terminal rendering: a diagnostics list followed by the per-array
    /// verdict table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let errors = self.errors().count();
        let warns = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count();
        out.push_str(&format!(
            "{}: {} error(s), {} warning(s), {} info\n",
            self.program,
            errors,
            warns,
            self.diagnostics.len() - errors - warns
        ));
        for d in &self.diagnostics {
            out.push_str("  ");
            out.push_str(&d.render_line());
            out.push('\n');
        }
        if !self.arrays.is_empty() {
            out.push_str(&format!(
                "  {:<16} {:>10} {:>10}\n",
                "array", "race-free", "in-bounds"
            ));
            for v in &self.arrays {
                out.push_str(&format!(
                    "  {:<16} {:>10} {:>10}\n",
                    v.name,
                    v.race_free.to_string(),
                    v.in_bounds.to_string()
                ));
            }
        }
        out
    }

    /// Machine-readable JSON rendering.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("program".to_string(), Json::Str(self.program.clone())),
            (
                "diagnostics".to_string(),
                Json::Arr(self.diagnostics.iter().map(Diagnostic::to_json).collect()),
            ),
            (
                "arrays".to_string(),
                Json::Arr(
                    self.arrays
                        .iter()
                        .map(|v| {
                            Json::Obj(vec![
                                ("name".to_string(), Json::Str(v.name.clone())),
                                ("race_free".to_string(), Json::Str(v.race_free.to_string())),
                                ("in_bounds".to_string(), Json::Str(v.in_bounds.to_string())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}
