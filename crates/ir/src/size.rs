//! Symbolic sizes.
//!
//! Loop extents and array shapes in the IR are [`Size`] expressions over
//! integer constants and named symbols (`R`, `C`, `numNodes`, …). Symbols are
//! bound to concrete values at "kernel launch" time via [`Bindings`]. When a
//! size is needed during the static mapping analysis and no binding is
//! available, the paper's default of 1000 is assumed (Section IV-C).

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// Identifier of a size symbol within a [`crate::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymId(pub u32);

/// Default extent assumed for statically unknown sizes (Section IV-C:
/// "a default size is assumed (1000 by default)").
pub const DEFAULT_UNKNOWN_SIZE: i64 = 1000;

/// A (possibly symbolic) non-negative integer size expression.
///
/// # Examples
///
/// ```
/// use multidim_ir::{Size, SymId, Bindings};
///
/// let r = Size::sym(SymId(0));
/// let total = r.clone() * Size::from(4) + Size::from(2);
/// let mut b = Bindings::new();
/// b.bind(SymId(0), 10);
/// assert_eq!(total.eval(&b), 42);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Size {
    /// A compile-time constant.
    Const(i64),
    /// A named symbol bound at launch time.
    Sym(SymId),
    /// Sum of two sizes.
    Add(Box<Size>, Box<Size>),
    /// Difference of two sizes (clamped at zero on evaluation).
    Sub(Box<Size>, Box<Size>),
    /// Product of two sizes.
    Mul(Box<Size>, Box<Size>),
    /// Ceiling division.
    CeilDiv(Box<Size>, Box<Size>),
    /// A size whose value is only known dynamically (e.g. the extent of an
    /// inner pattern computed from data, like a node's neighbor count).
    /// Carries an *estimated* extent for analysis; the hard constraint
    /// machinery treats it as unknown (forcing `Span(all)`, Section IV-A).
    Dynamic(i64),
}

impl Size {
    /// A symbolic size.
    pub fn sym(id: SymId) -> Self {
        Size::Sym(id)
    }

    /// A dynamically-determined size with the default analysis estimate.
    pub fn dynamic() -> Self {
        Size::Dynamic(DEFAULT_UNKNOWN_SIZE)
    }

    /// A dynamically-determined size with a user-provided estimate
    /// (the paper: "users can provide the size information from the
    /// application to enable better optimization").
    pub fn dynamic_with_estimate(estimate: i64) -> Self {
        Size::Dynamic(estimate)
    }

    /// `true` if the extent is not known at kernel-launch time.
    ///
    /// Such sizes force the conservative `Span(all)` choice because the
    /// launch configuration cannot depend on them.
    pub fn is_dynamic(&self) -> bool {
        match self {
            Size::Dynamic(_) => true,
            Size::Const(_) | Size::Sym(_) => false,
            Size::Add(a, b) | Size::Sub(a, b) | Size::Mul(a, b) | Size::CeilDiv(a, b) => {
                a.is_dynamic() || b.is_dynamic()
            }
        }
    }

    /// Evaluate with all symbols bound.
    ///
    /// # Panics
    ///
    /// Panics if a symbol has no binding; use [`Size::eval_or_default`] for
    /// analysis-time evaluation.
    pub fn eval(&self, b: &Bindings) -> i64 {
        self.try_eval(b)
            .unwrap_or_else(|| panic!("unbound size symbol in {self}"))
    }

    /// Evaluate with all symbols bound; `None` if a symbol has no binding.
    pub fn try_eval(&self, b: &Bindings) -> Option<i64> {
        self.eval_inner(b, None)
    }

    /// Evaluate, substituting `DEFAULT_UNKNOWN_SIZE` for unbound symbols —
    /// the analysis-time behaviour from Section IV-C.
    pub fn eval_or_default(&self, b: &Bindings) -> i64 {
        self.eval_inner(b, Some(DEFAULT_UNKNOWN_SIZE))
            .expect("default provided")
    }

    fn eval_inner(&self, b: &Bindings, default: Option<i64>) -> Option<i64> {
        Some(match self {
            Size::Const(n) => *n,
            Size::Sym(id) => match b.get(*id) {
                Some(v) => v,
                None => default?,
            },
            Size::Dynamic(est) => match default {
                // During analysis the estimate stands in for the value.
                Some(_) => *est,
                // At launch time a dynamic size has no single value either;
                // the estimate is the best available.
                None => *est,
            },
            Size::Add(a, c) => a.eval_inner(b, default)? + c.eval_inner(b, default)?,
            Size::Sub(a, c) => (a.eval_inner(b, default)? - c.eval_inner(b, default)?).max(0),
            Size::Mul(a, c) => a.eval_inner(b, default)? * c.eval_inner(b, default)?,
            Size::CeilDiv(a, c) => {
                let d = c.eval_inner(b, default)?;
                assert!(d > 0, "division by zero in size expression");
                (a.eval_inner(b, default)? + d - 1) / d
            }
        })
    }
}

impl From<i64> for Size {
    fn from(n: i64) -> Self {
        Size::Const(n)
    }
}

impl From<SymId> for Size {
    fn from(id: SymId) -> Self {
        Size::Sym(id)
    }
}

impl Add for Size {
    type Output = Size;
    fn add(self, rhs: Size) -> Size {
        Size::Add(Box::new(self), Box::new(rhs))
    }
}

impl Sub for Size {
    type Output = Size;
    fn sub(self, rhs: Size) -> Size {
        Size::Sub(Box::new(self), Box::new(rhs))
    }
}

impl Mul for Size {
    type Output = Size;
    fn mul(self, rhs: Size) -> Size {
        Size::Mul(Box::new(self), Box::new(rhs))
    }
}

impl Div for Size {
    type Output = Size;
    /// Ceiling division (the only division the IR needs: block counts).
    fn div(self, rhs: Size) -> Size {
        Size::CeilDiv(Box::new(self), Box::new(rhs))
    }
}

impl fmt::Display for Size {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Size::Const(n) => write!(f, "{n}"),
            Size::Sym(SymId(i)) => write!(f, "s{i}"),
            Size::Dynamic(e) => write!(f, "dyn(~{e})"),
            Size::Add(a, b) => write!(f, "({a} + {b})"),
            Size::Sub(a, b) => write!(f, "({a} - {b})"),
            Size::Mul(a, b) => write!(f, "({a} * {b})"),
            Size::CeilDiv(a, b) => write!(f, "ceil({a} / {b})"),
        }
    }
}

/// Launch-time values for size symbols.
///
/// # Examples
///
/// ```
/// use multidim_ir::{Bindings, SymId, Size};
///
/// let mut b = Bindings::new();
/// b.bind(SymId(3), 64);
/// assert_eq!(Size::sym(SymId(3)).eval(&b), 64);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bindings {
    values: Vec<Option<i64>>,
}

impl Bindings {
    /// An empty set of bindings.
    pub fn new() -> Self {
        Bindings::default()
    }

    /// Bind `sym` to `value`, replacing any previous binding.
    pub fn bind(&mut self, sym: SymId, value: i64) -> &mut Self {
        let idx = sym.0 as usize;
        if self.values.len() <= idx {
            self.values.resize(idx + 1, None);
        }
        self.values[idx] = Some(value);
        self
    }

    /// Look up the binding for `sym`.
    pub fn get(&self, sym: SymId) -> Option<i64> {
        self.values.get(sym.0 as usize).copied().flatten()
    }
}

impl FromIterator<(SymId, i64)> for Bindings {
    fn from_iter<I: IntoIterator<Item = (SymId, i64)>>(iter: I) -> Self {
        let mut b = Bindings::new();
        for (s, v) in iter {
            b.bind(s, v);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_eval() {
        assert_eq!(Size::from(7).eval(&Bindings::new()), 7);
    }

    #[test]
    fn arithmetic() {
        let mut b = Bindings::new();
        b.bind(SymId(0), 5);
        let e = (Size::sym(SymId(0)) + Size::from(3)) * Size::from(2);
        assert_eq!(e.eval(&b), 16);
    }

    #[test]
    fn sub_clamps_at_zero() {
        let e = Size::from(3) - Size::from(10);
        assert_eq!(e.eval(&Bindings::new()), 0);
    }

    #[test]
    fn ceil_div() {
        let e = Size::from(10) / Size::from(3);
        assert_eq!(e.eval(&Bindings::new()), 4);
    }

    #[test]
    fn default_for_unbound() {
        let e = Size::sym(SymId(9));
        assert_eq!(e.eval_or_default(&Bindings::new()), DEFAULT_UNKNOWN_SIZE);
    }

    #[test]
    #[should_panic(expected = "unbound size symbol")]
    fn eval_panics_on_unbound() {
        Size::sym(SymId(1)).eval(&Bindings::new());
    }

    #[test]
    fn dynamic_detection() {
        assert!(Size::dynamic().is_dynamic());
        assert!((Size::dynamic() + Size::from(1)).is_dynamic());
        assert!(!Size::from(4).is_dynamic());
        assert!(!Size::sym(SymId(0)).is_dynamic());
    }

    #[test]
    fn dynamic_estimate_used_in_analysis() {
        let d = Size::dynamic_with_estimate(250);
        assert_eq!(d.eval_or_default(&Bindings::new()), 250);
    }

    #[test]
    fn bindings_from_iter() {
        let b: Bindings = [(SymId(0), 1), (SymId(2), 3)].into_iter().collect();
        assert_eq!(b.get(SymId(0)), Some(1));
        assert_eq!(b.get(SymId(1)), None);
        assert_eq!(b.get(SymId(2)), Some(3));
    }

    #[test]
    fn display_forms() {
        let e = Size::sym(SymId(1)) * Size::from(2);
        assert_eq!(e.to_string(), "(s1 * 2)");
    }
}
