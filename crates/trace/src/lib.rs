//! `multidim-trace` — structured tracing for the multidim pipeline.
//!
//! The paper's contribution is an *explanation* of why one mapping beats
//! another; this crate is the measurement substrate that keeps that
//! evidence. It provides:
//!
//! * one span type, [`Span`] (opened with [`span`]), which records a
//!   [`SpanRecord`] — its name, wall-clock interval and typed arguments
//!   ([`Value`]) — into the current request's trace;
//! * request-scoped trace contexts and the tail-sampling [`TraceStore`]
//!   ([`context`], [`mod@store`]), which keep one span tree per request
//!   across the threads that serve it: the kept trace is the one record
//!   of a request;
//! * a typed event model ([`Event`]) for rendering, with a dual-clock
//!   convention (wall clock for the compiler pipeline, *simulated* time
//!   for the GPU timeline — separate `pid` lanes keep the two apart in
//!   viewers);
//! * exporters: [`chrome::write_trace`] renders events as Chrome
//!   trace-event JSON loadable in Perfetto / `chrome://tracing`, and
//!   [`json`] is a tiny self-contained JSON value model (render + parse)
//!   that the metrics layer round-trips through.
//!
//! # Usage
//!
//! Each pipeline stage opens a span and records its decision as
//! arguments, computed only when the span is open:
//!
//! ```
//! use multidim_trace as trace;
//! let mut span = trace::span("search", "analyze");
//! if let Some(s) = span.as_mut() {
//!     s.arg("selected", "x(32)");
//!     s.arg("score", 12.5);
//! }
//! ```
//!
//! With no [`TraceStore`] installed, or no sampled current
//! [`TraceContext`] on the thread, [`span`] returns `None` and allocates
//! nothing. A collector installs a store and runs the work under
//! [`collect`], which mints a context, makes it current around the work,
//! finishes the request and returns its kept trace:
//!
//! ```
//! use multidim_trace as trace;
//! use std::sync::Arc;
//! let store = Arc::new(trace::TraceStore::new(trace::TailSamplerConfig::keep_all()));
//! let _installed = trace::install_store(store);
//! let ((), kept) = trace::collect("example", "w", || {
//!     let _span = trace::span("core", "compile");
//! });
//! assert_eq!(kept.expect("kept").spans[0].name, "compile");
//! ```
//!
//! Work that hops threads — a request served by an engine worker — is
//! collected the same way: the worker makes the request's
//! [`TraceContext`] current, and every [`span`] it opens lands in that
//! request's kept trace, nested under the span that was open around it.
//! All timestamps share one process-wide epoch, so spans from different
//! threads land on one coherent timeline.

#![warn(missing_docs)]

pub mod chrome;
pub mod context;
pub mod json;
pub mod store;

pub use context::{
    collect, current, finish_request, install_store, instant_us, record_elapsed_span, set_current,
    store, store_enabled, trace_id_hex, ContextGuard, RequestRoot, StoreGuard, TraceContext,
};
pub use store::{SpanRecord, StoredTrace, TailSamplerConfig, TailStats, TraceOutcome, TraceStore};

use std::fmt;
use std::sync::OnceLock;
use std::time::Instant;

/// Process lane for wall-clock pipeline events (analysis, lowering, host).
pub const PID_PIPELINE: u32 = 1;
/// Process lane for simulated-GPU-time events (kernel timeline).
pub const PID_SIM: u32 = 2;

/// A typed event argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Signed integer.
    Int(i64),
    /// Unsigned counter.
    UInt(u64),
    /// Floating point.
    Float(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form text (mapping renderings, reasons).
    Str(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::UInt(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::UInt(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::UInt(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::UInt(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

/// Event kind, mirroring the Chrome trace-event phases we emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A completed slice with an explicit duration (`ph: "X"`).
    Complete,
    /// A point-in-time event (`ph: "i"`).
    Instant,
    /// A numeric counter sample (`ph: "C"`).
    Counter,
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Kind of event.
    pub phase: Phase,
    /// Category (e.g. `"search"`, `"codegen"`, `"sim"`); used for filtering.
    pub cat: &'static str,
    /// Event name (slice label / counter name).
    pub name: String,
    /// Timestamp in microseconds on this event's clock (see `pid`).
    pub ts_us: f64,
    /// Duration in microseconds (only meaningful for [`Phase::Complete`]).
    pub dur_us: f64,
    /// Process lane: [`PID_PIPELINE`] (wall clock) or [`PID_SIM`]
    /// (simulated GPU time).
    pub pid: u32,
    /// Thread/track within the lane (sub-rows of a kernel's breakdown).
    pub tid: u32,
    /// Typed payload.
    pub args: Vec<(&'static str, Value)>,
}

impl Event {
    /// A point-in-time pipeline event stamped with the current wall clock.
    pub fn instant(cat: &'static str, name: impl Into<String>) -> Event {
        Event {
            phase: Phase::Instant,
            cat,
            name: name.into(),
            ts_us: now_us(),
            dur_us: 0.0,
            pid: PID_PIPELINE,
            tid: 0,
            args: Vec::new(),
        }
    }

    /// A completed slice with explicit timestamp and duration (used for
    /// the simulated-GPU timeline, where time is model output, not wall
    /// clock).
    pub fn complete(cat: &'static str, name: impl Into<String>, ts_us: f64, dur_us: f64) -> Event {
        Event {
            phase: Phase::Complete,
            cat,
            name: name.into(),
            ts_us,
            dur_us,
            pid: PID_SIM,
            tid: 0,
            args: Vec::new(),
        }
    }

    /// A counter sample on the simulated timeline.
    pub fn counter(cat: &'static str, name: impl Into<String>, ts_us: f64) -> Event {
        Event {
            phase: Phase::Counter,
            cat,
            name: name.into(),
            ts_us,
            dur_us: 0.0,
            pid: PID_SIM,
            tid: 0,
            args: Vec::new(),
        }
    }

    /// Attach an argument (builder style).
    pub fn arg(mut self, key: &'static str, value: impl Into<Value>) -> Event {
        self.args.push((key, value.into()));
        self
    }

    /// Override the timestamp — e.g. to place an instant event on the
    /// simulated timeline instead of the wall clock.
    pub fn at(mut self, ts_us: f64) -> Event {
        self.ts_us = ts_us;
        self
    }

    /// Place the event on a specific process lane.
    pub fn on_pid(mut self, pid: u32) -> Event {
        self.pid = pid;
        self
    }

    /// Place the event on a specific track within its lane.
    pub fn on_tid(mut self, tid: u32) -> Event {
        self.tid = tid;
        self
    }

    /// Look up an argument by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// An argument as f64 (Int/UInt/Float coerce).
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Value::Int(v) => Some(*v as f64),
            Value::UInt(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// An argument as u64 (Int/UInt coerce).
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            Value::Int(v) => u64::try_from(*v).ok(),
            Value::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// An argument as string slice.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

// Process-wide wall-clock epoch: every thread's pipeline timestamps share
// it, so multi-threaded traces (engine workers + main thread) land on one
// coherent timeline.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the process tracing epoch (wall clock). The epoch
/// is set by whichever thread traces first.
pub fn now_us() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

/// The process tracing epoch (first use sets it).
pub(crate) fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// A wall-clock span of a request's trace, closed when dropped.
/// Construct through [`span`].
///
/// It is the thread's current context while it is open, so spans opened
/// inside it nest under it. On drop it records a [`SpanRecord`] into the
/// request's trace.
pub struct Span {
    cat: &'static str,
    name: &'static str,
    start_us: f64,
    args: Vec<(&'static str, Value)>,
    ctx: TraceContext,
    parent: u64,
    _guard: ContextGuard,
}

impl Span {
    /// Attach an argument reported when the span closes.
    pub fn arg(&mut self, key: &'static str, value: impl Into<Value>) {
        self.args.push((key, value.into()));
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_us = now_us() - self.start_us;
        if let Some(store) = store() {
            store.record(
                &self.ctx,
                SpanRecord {
                    span_id: self.ctx.span_id,
                    parent: Some(self.parent),
                    cat: self.cat,
                    name: self.name,
                    start_us: self.start_us,
                    dur_us,
                    args: std::mem::take(&mut self.args),
                },
            );
        }
    }
}

/// Open a wall-clock span of the current request's trace; it records
/// when the returned value drops (see [`Span`]). Returns `None`, and
/// allocates nothing, unless a [`TraceStore`] is installed and the thread
/// has a sampled current [`TraceContext`]: with no store installed that
/// costs one relaxed load.
pub fn span(cat: &'static str, name: &'static str) -> Option<Span> {
    if !store_enabled() {
        return None;
    }
    let parent = current().filter(|c| c.sampled)?;
    let ctx = parent.child();
    Some(Span {
        cat,
        name,
        start_us: now_us(),
        args: Vec::new(),
        ctx,
        parent: parent.span_id,
        _guard: set_current(ctx),
    })
}

/// Tests touching the process-global store slot serialize on this lock,
/// so none sees another's store installed.
#[cfg(test)]
pub(crate) fn store_lock() -> std::sync::MutexGuard<'static, ()> {
    static STORE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    STORE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn disabled_by_default() {
        // No store and no current context: spans are off.
        assert!(span("t", "s").is_none());
    }

    #[test]
    fn span_measures_wall_time() {
        let _l = store_lock();
        let store = Arc::new(TraceStore::new(TailSamplerConfig::default()));
        let _gs = install_store(store.clone());
        let root = TraceContext::mint();
        {
            let _gc = set_current(root);
            let mut s = span("cat", "work").unwrap();
            s.arg("items", 3usize);
        }
        store.finish(&root, TraceOutcome::Failed, None);
        let span = &store.lookup(root.trace_id).unwrap().spans[0];
        assert_eq!((span.cat, span.name), ("cat", "work"));
        assert!(span.dur_us >= 0.0);
        assert_eq!(span.args, [("items", Value::UInt(3))]);
    }

    #[test]
    fn event_arg_accessors() {
        let e = Event::instant("t", "x")
            .arg("i", -3i64)
            .arg("u", 7u64)
            .arg("f", 1.5f64)
            .arg("s", "hi")
            .arg("b", true);
        assert_eq!(e.get_f64("i"), Some(-3.0));
        assert_eq!(e.get_u64("u"), Some(7));
        assert_eq!(e.get_f64("f"), Some(1.5));
        assert_eq!(e.get_str("s"), Some("hi"));
        assert_eq!(e.get("b"), Some(&Value::Bool(true)));
        assert_eq!(e.get("missing"), None);
    }
}
