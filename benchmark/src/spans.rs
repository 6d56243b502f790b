//! The benchmark's own spans: name, start, end, parent and request id,
//! recorded around the public calls the benchmark makes into each layer.
//!
//! The program's internal tracing stays off (the benchmark installs no
//! `multidim_trace` sink), so these spans are the only tracing cost in a
//! traced run. Each thread records into its own [`Tracer`]; the spans are
//! merged when the run ends.

use crate::host::Host;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process; comparable across
/// threads.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u64>>,
    root_parent: Option<u64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// A tracer for a helper thread whose outermost spans are children of
    /// `parent`, a span open on another thread.
    pub fn under(parent: Option<u64>) -> Tracer {
        Tracer {
            root_parent: parent,
            ..Tracer::default()
        }
    }

    /// The innermost open span.
    pub fn current(&self) -> Option<u64> {
        self.open.borrow().last().copied().or(self.root_parent)
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = self.current();
        self.open.borrow_mut().push(id);
        let start_ns = now_ns();
        let out = f();
        let end_ns = now_ns();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut().push(Span {
            id,
            parent,
            name,
            request,
            start_ns,
            end_ns,
        });
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Run `f` inside a span when a tracer is given, else just run it.
pub fn maybe_span<T>(
    t: Option<&Tracer>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match t {
        Some(t) => t.span(name, request, f),
        None => f(),
    }
}

/// Self time of every span, aligned with `spans`: its duration minus the
/// part of it that its children cover. Children on other threads may
/// overlap one another; each covered instant counts once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name self times in microseconds, scaled to the nominal host.
pub fn self_us_by_name(spans: &[Span], host: &Host) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        let us = t as f64 / 1e3 * host.scale_at(s.start_ns);
        out.entry(s.name).or_default().push(us);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            // Two overlapping children (as from two threads): 10..60.
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            // A grandchild inside span 2, and one that outlives it.
            span(4, Some(2), 15, 20),
            span(5, Some(2), 35, 45),
            // A child of span 3 ending exactly where span 3 ends.
            span(6, Some(3), 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 5, 10, 10]);
    }

    #[test]
    fn tracer_records_nesting_and_requests() {
        let t = Tracer::new();
        let v = t.span("outer", 7, || {
            t.span("inner", 7, || 3) + t.span("inner", 7, || 4)
        });
        assert_eq!(v, 7);
        let spans = t.into_spans();
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        let inner: Vec<_> = spans.iter().filter(|s| s.name == "inner").collect();
        assert_eq!(inner.len(), 2);
        assert!(inner
            .iter()
            .all(|s| s.parent == Some(outer.id) && s.request == 7));
        assert!(inner
            .iter()
            .all(|s| s.start_ns >= outer.start_ns && s.end_ns <= outer.end_ns));
        assert_eq!(outer.parent, None);
        let helper = Tracer::under(Some(outer.id));
        helper.span("measure", 7, || ());
        assert_eq!(helper.into_spans()[0].parent, Some(outer.id));
    }
}
