//! `multidim-trace` — structured tracing for the multidim pipeline.
//!
//! The paper's contribution is an *explanation* of why one mapping beats
//! another; this crate is the measurement substrate that keeps that
//! evidence. It provides:
//!
//! * a typed event model ([`Event`], [`Value`]) covering spans, counters
//!   and instant events, with a dual-clock convention (wall-clock for the
//!   compiler pipeline, *simulated* time for the GPU timeline — separate
//!   `pid` lanes keep the two apart in viewers);
//! * one span type, [`Span`] (opened with [`span`]), which reports to
//!   both collectors below: a Chrome `Complete` event to the thread's
//!   sink, and a [`SpanRecord`] into the current request's trace;
//! * a thread-local [`MemorySink`], installed with [`set_sink`]; with no
//!   sink the hot path is guarded by [`enabled`] and performs **no
//!   allocation**;
//! * request-scoped trace contexts and the tail-sampling [`TraceStore`]
//!   ([`context`], [`mod@store`]), which keep one span tree per request
//!   across the threads that serve it;
//! * exporters: [`chrome::write_trace`] renders events as Chrome
//!   trace-event JSON loadable in Perfetto / `chrome://tracing`, and
//!   [`json`] is a tiny self-contained JSON value model (render + parse)
//!   that the metrics layer round-trips through.
//!
//! # Usage
//!
//! Emitting layers (search, codegen, simulator) guard every emission site:
//!
//! ```
//! use multidim_trace as trace;
//! if trace::enabled() {
//!     trace::emit(trace::Event::instant("search", "candidate")
//!         .arg("score", 12.5)
//!         .arg("mapping", "x(32)"));
//! }
//! ```
//!
//! Collecting ends install a sink for the current thread:
//!
//! ```
//! use multidim_trace as trace;
//! use std::rc::Rc;
//! let sink = Rc::new(trace::MemorySink::new());
//! {
//!     let _guard = trace::set_sink(sink.clone());
//!     let _span = trace::span("core", "compile"); // closes before the guard
//! } // previous sink restored
//! assert_eq!(sink.events().len(), 1);
//! ```
//!
//! The sink is thread-local: parallel tests or parallel pipeline runs
//! never observe each other's events, and no locking sits on the hot
//! path. Work that hops threads — a request served by an engine worker —
//! is collected through its trace instead: the worker makes the request's
//! [`TraceContext`] current, and every [`span`] it opens lands in that
//! request's kept trace, nested under the span that was open around it.
//!
//! All pipeline timestamps share one process-wide epoch, so events from
//! different threads land on one coherent timeline.

#![warn(missing_docs)]

pub mod chrome;
pub mod context;
pub mod json;
pub mod store;

pub use context::{
    current, finish_request, install_store, instant_us, record_elapsed_span, set_current, store,
    store_enabled, trace_id_hex, ContextGuard, RequestRoot, StoreGuard, TraceContext,
};
pub use store::{SpanRecord, StoredTrace, TailSamplerConfig, TailStats, TraceOutcome, TraceStore};

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;
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

    /// A counter/gauge sample on the *pipeline* lane, stamped with the
    /// current wall clock — for host-side state that evolves over a
    /// session (cache hit/miss totals, queue depth, worker occupancy)
    /// rather than over simulated GPU time.
    pub fn gauge(cat: &'static str, name: impl Into<String>) -> Event {
        Event {
            phase: Phase::Counter,
            cat,
            name: name.into(),
            ts_us: now_us(),
            dur_us: 0.0,
            pid: PID_PIPELINE,
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

/// Collects events in memory (tests, table reconstruction, exporters).
/// The one sink type: install it for the current thread with
/// [`set_sink`].
#[derive(Debug, Default)]
pub struct MemorySink {
    events: RefCell<Vec<Event>>,
}

impl MemorySink {
    /// An empty collector.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// A copy of everything collected so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.borrow().clone()
    }

    /// Take the collected events, leaving the sink empty.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.borrow_mut())
    }
}

thread_local! {
    static SINK: RefCell<Option<Rc<MemorySink>>> = const { RefCell::new(None) };
    static ENABLED: Cell<bool> = const { Cell::new(false) };
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

/// Does the current thread have a sink? Emission sites must check this
/// before constructing an [`Event`]; when it returns `false` (the
/// default) the hot path does no allocation.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Restores the previously installed sink when dropped.
pub struct SinkGuard {
    prev: Option<Rc<MemorySink>>,
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        ENABLED.with(|e| e.set(prev.is_some()));
        SINK.with(|s| *s.borrow_mut() = prev);
    }
}

/// Install `sink` as the current thread's tracer until the returned guard
/// drops.
pub fn set_sink(sink: Rc<MemorySink>) -> SinkGuard {
    ENABLED.with(|e| e.set(true));
    let prev = SINK.with(|s| s.borrow_mut().replace(sink));
    SinkGuard { prev }
}

/// Deliver one event to the current thread's sink (drops it when none is
/// installed). Callers should guard with [`enabled`] so the event is not
/// even constructed when tracing is off.
pub fn emit(event: Event) {
    SINK.with(|s| {
        if let Some(sink) = s.borrow().as_ref() {
            sink.events.borrow_mut().push(event);
        }
    });
}

/// A wall-clock span, closed when dropped. Construct through [`span`].
///
/// On drop it emits a [`Phase::Complete`] event on the pipeline lane to
/// the thread's sink, when one is installed, and records a [`SpanRecord`]
/// into the current request's trace, when it opened under a sampled
/// [`TraceContext`] with a [`TraceStore`] installed. In that second case
/// the span is the thread's current context while it is open, so spans
/// opened inside it nest under it.
pub struct Span {
    cat: &'static str,
    name: &'static str,
    start_us: f64,
    args: Vec<(&'static str, Value)>,
    traced: Option<Traced>,
}

/// The request-trace half of an open [`Span`]: its own context, its
/// parent's span id, and the guard that restores the parent as current.
struct Traced {
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
        if enabled() {
            emit(Event {
                phase: Phase::Complete,
                cat: self.cat,
                name: self.name.to_string(),
                ts_us: self.start_us,
                dur_us,
                pid: PID_PIPELINE,
                tid: 0,
                args: self.args.clone(),
            });
        }
        if let Some(traced) = &self.traced {
            if let Some(store) = store() {
                store.record(
                    &traced.ctx,
                    SpanRecord {
                        span_id: traced.ctx.span_id,
                        parent: Some(traced.parent),
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
}

/// Open a wall-clock span; it reports when the returned value drops (see
/// [`Span`]). Returns `None`, and allocates nothing, when neither a sink
/// nor a sampled request trace would receive it: with no sink and no
/// store installed that costs one thread-local read and one relaxed load.
pub fn span(cat: &'static str, name: &'static str) -> Option<Span> {
    let parent = if store_enabled() {
        current().filter(|c| c.sampled)
    } else {
        None
    };
    if parent.is_none() && !enabled() {
        return None;
    }
    let traced = parent.map(|parent| {
        let ctx = parent.child();
        Traced {
            ctx,
            parent: parent.span_id,
            _guard: set_current(ctx),
        }
    });
    Some(Span {
        cat,
        name,
        start_us: now_us(),
        args: Vec::new(),
        traced,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default() {
        assert!(!enabled());
    }

    #[test]
    fn noop_sink_disables_hot_path() {
        let sink = Rc::new(MemorySink::new());
        drop(set_sink(sink.clone()));
        // Dropping the guard leaves no sink: the hot path is off again.
        assert!(!enabled());
        // A (wrongly) unguarded emit is dropped, not delivered.
        emit(Event::instant("t", "x"));
        assert!(sink.events().is_empty());
    }

    #[test]
    fn disabled_sink_never_receives_events() {
        let sink = Rc::new(MemorySink::new());
        {
            let _g = set_sink(sink.clone());
        }
        // The pipeline pattern: guarded construction.
        if enabled() {
            emit(Event::instant("t", "should-not-happen"));
        }
        // Even an unguarded emit must not reach a sink whose guard dropped.
        emit(Event::instant("t", "also-dropped"));
        // Spans short-circuit to None when nothing collects.
        assert!(span("t", "s").is_none());
        assert!(sink.events().is_empty());
    }

    #[test]
    fn memory_sink_collects_and_guard_restores() {
        let outer = Rc::new(MemorySink::new());
        let inner = Rc::new(MemorySink::new());
        let _g1 = set_sink(outer.clone());
        assert!(enabled());
        emit(Event::instant("t", "outer-1"));
        {
            let _g2 = set_sink(inner.clone());
            emit(Event::instant("t", "inner"));
        }
        emit(Event::instant("t", "outer-2"));
        let names: Vec<String> = outer.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["outer-1", "outer-2"]);
        assert_eq!(inner.events().len(), 1);
    }

    #[test]
    fn span_measures_wall_time() {
        let sink = Rc::new(MemorySink::new());
        let _g = set_sink(sink.clone());
        {
            let mut s = span("cat", "work").unwrap();
            s.arg("items", 3usize);
        }
        let ev = &sink.events()[0];
        assert_eq!(ev.phase, Phase::Complete);
        assert_eq!(ev.name, "work");
        assert!(ev.dur_us >= 0.0);
        assert_eq!(ev.get_u64("items"), Some(3));
    }

    #[test]
    fn gauge_samples_pipeline_lane() {
        let e = Event::gauge("engine", "cache").arg("hits", 3u64);
        assert_eq!(e.phase, Phase::Counter);
        assert_eq!(e.pid, PID_PIPELINE);
        assert!(e.ts_us >= 0.0);
        assert_eq!(e.get_u64("hits"), Some(3));
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
