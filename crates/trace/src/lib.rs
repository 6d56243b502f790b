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
//! * a pluggable [`Sink`] — [`NoopSink`] (the default; the hot path is
//!   guarded by [`enabled`] and performs **no allocation** when tracing is
//!   off), [`MemorySink`] (in-memory collector for tests and table
//!   reconstruction), and [`JsonlSink`] (newline-delimited JSON writer);
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
//!     // ... traced work ...
//! } // previous sink restored
//! assert!(sink.events().is_empty());
//! ```
//!
//! The default tracer is thread-local: parallel tests or parallel
//! pipeline runs never observe each other's events, and no locking sits
//! on the hot path. Multi-threaded collectors (a process-wide profiler
//! watching the engine's workers) use [`install_shared`]: it installs
//! one `Arc<dyn Sink + Send + Sync>` process-wide, and every thread's
//! [`emit`] delivers to it *in addition to* that thread's local sink, so
//! events from engine workers reach whoever is collecting on the main
//! thread ([`SharedMemorySink`] is the ready-made collector).
//!
//! All pipeline timestamps share one process-wide epoch, so events from
//! different threads land on one coherent timeline.

#![warn(missing_docs)]

pub mod chrome;
pub mod context;
pub mod json;
pub mod store;

pub use context::{
    current, finish_request, install_store, instant_us, record_elapsed_span, request_span,
    set_current, store, store_enabled, trace_id_hex, ContextGuard, RequestRoot, RequestSpan,
    StoreGuard, TraceContext,
};
pub use store::{SpanRecord, StoredTrace, TailSamplerConfig, TailStats, TraceOutcome, TraceStore};

use std::cell::{Cell, RefCell};
use std::fmt;
use std::io::Write;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
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

/// Where events go. Implementations use interior mutability; the tracer
/// hands them shared references.
pub trait Sink {
    /// Whether emitting layers should construct events at all. The
    /// pipeline guards every emission site with [`enabled`], so a sink
    /// returning `false` here guarantees a zero-cost hot path.
    fn enabled(&self) -> bool {
        true
    }

    /// Receive one event.
    fn event(&self, event: &Event);
}

/// Discards everything; [`Sink::enabled`] is `false`, so guarded emission
/// sites skip event construction entirely.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn event(&self, _event: &Event) {}
}

/// Collects events in memory (tests, table reconstruction, exporters).
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

impl Sink for MemorySink {
    fn event(&self, event: &Event) {
        self.events.borrow_mut().push(event.clone());
    }
}

/// Streams events as newline-delimited JSON objects to a writer.
pub struct JsonlSink<W: Write> {
    writer: RefCell<W>,
}

impl<W: Write> JsonlSink<W> {
    /// Wrap a writer.
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink {
            writer: RefCell::new(writer),
        }
    }

    /// Unwrap the inner writer.
    pub fn into_inner(self) -> W {
        self.writer.into_inner()
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn event(&self, event: &Event) {
        let line = chrome::event_json(event).render();
        let mut w = self.writer.borrow_mut();
        let _ = writeln!(w, "{line}");
    }
}

/// Collects events in memory behind a mutex — the `Send + Sync`
/// counterpart of [`MemorySink`], for [`install_shared`] and other
/// cross-thread collection.
#[derive(Debug, Default)]
pub struct SharedMemorySink {
    events: Mutex<Vec<Event>>,
}

impl SharedMemorySink {
    /// An empty collector.
    pub fn new() -> SharedMemorySink {
        SharedMemorySink::default()
    }

    /// A copy of everything collected so far (any thread).
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Take the collected events, leaving the sink empty.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Sink for SharedMemorySink {
    fn event(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event.clone());
    }
}

thread_local! {
    static SINK: RefCell<Option<Rc<dyn Sink>>> = const { RefCell::new(None) };
    static ENABLED: Cell<bool> = const { Cell::new(false) };
}

// Process-wide wall-clock epoch: every thread's pipeline timestamps share
// it, so multi-threaded traces (engine workers + main thread) land on one
// coherent timeline.
static EPOCH: OnceLock<Instant> = OnceLock::new();

// The process-wide shared sink and its fast-path enabled flag (mirrors
// the sink's `enabled()` so the hot-path check stays a single load).
static SHARED_SINK: RwLock<Option<Arc<dyn Sink + Send + Sync>>> = RwLock::new(None);
static SHARED_ENABLED: AtomicBool = AtomicBool::new(false);

/// Microseconds since the process tracing epoch (wall clock). The epoch
/// is set by whichever thread traces first.
pub fn now_us() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

/// The process tracing epoch (first use sets it).
pub(crate) fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Does any installed sink — this thread's local one, or the process-wide
/// shared one — want events? Emission sites must check this before
/// constructing an [`Event`]; when it returns `false` (the default — no
/// sink, or a [`NoopSink`]) the hot path does no allocation.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get()) || SHARED_ENABLED.load(Ordering::Relaxed)
}

/// Restores the previously installed sink when dropped.
pub struct SinkGuard {
    prev: Option<Rc<dyn Sink>>,
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        ENABLED.with(|e| e.set(prev.as_ref().is_some_and(|s| s.enabled())));
        SINK.with(|s| *s.borrow_mut() = prev);
    }
}

/// Install `sink` as the current thread's tracer until the returned guard
/// drops.
pub fn set_sink(sink: Rc<dyn Sink>) -> SinkGuard {
    ENABLED.with(|e| e.set(sink.enabled()));
    let prev = SINK.with(|s| s.borrow_mut().replace(sink));
    SinkGuard { prev }
}

/// Restores the previously installed *shared* sink when dropped.
pub struct SharedSinkGuard {
    prev: Option<Arc<dyn Sink + Send + Sync>>,
}

impl Drop for SharedSinkGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        let mut slot = SHARED_SINK.write().unwrap_or_else(|e| e.into_inner());
        SHARED_ENABLED.store(
            prev.as_ref().is_some_and(|s| s.enabled()),
            Ordering::Relaxed,
        );
        *slot = prev;
    }
}

/// Install `sink` as the process-wide shared tracer until the returned
/// guard drops. Every thread's [`emit`] delivers to the shared sink *in
/// addition to* that thread's local sink — this is how events from engine
/// worker threads reach a collector installed on the main thread.
///
/// The sink must serialize internally (it is called concurrently from
/// every tracing thread); [`SharedMemorySink`] is the ready-made
/// in-memory collector.
pub fn install_shared(sink: Arc<dyn Sink + Send + Sync>) -> SharedSinkGuard {
    let mut slot = SHARED_SINK.write().unwrap_or_else(|e| e.into_inner());
    SHARED_ENABLED.store(sink.enabled(), Ordering::Relaxed);
    let prev = slot.replace(sink);
    SharedSinkGuard { prev }
}

/// Deliver one event to the current thread's sink and to the process-wide
/// shared sink, when installed (drops it when neither is). Callers should
/// guard with [`enabled`] so the event is not even constructed when
/// tracing is off.
pub fn emit(event: Event) {
    SINK.with(|s| {
        if let Some(sink) = s.borrow().as_ref() {
            if sink.enabled() {
                sink.event(&event);
            }
        }
    });
    if SHARED_ENABLED.load(Ordering::Relaxed) {
        if let Ok(slot) = SHARED_SINK.read() {
            if let Some(sink) = slot.as_ref() {
                if sink.enabled() {
                    sink.event(&event);
                }
            }
        }
    }
}

/// A wall-clock span: emits a [`Phase::Complete`] event on the pipeline
/// lane when dropped. Construct through [`span`].
pub struct Span {
    cat: &'static str,
    name: String,
    start_us: f64,
    args: Vec<(&'static str, Value)>,
}

impl Span {
    /// Attach an argument reported when the span closes.
    pub fn arg(&mut self, key: &'static str, value: impl Into<Value>) {
        self.args.push((key, value.into()));
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if enabled() {
            let end = now_us();
            emit(Event {
                phase: Phase::Complete,
                cat: self.cat,
                name: std::mem::take(&mut self.name),
                ts_us: self.start_us,
                dur_us: end - self.start_us,
                pid: PID_PIPELINE,
                tid: 0,
                args: std::mem::take(&mut self.args),
            });
        }
    }
}

/// Open a wall-clock span; the event is emitted when the returned value
/// drops. Returns `None` (and allocates nothing) when tracing is off.
pub fn span(cat: &'static str, name: &str) -> Option<Span> {
    if !enabled() {
        return None;
    }
    Some(Span {
        cat,
        name: name.to_string(),
        start_us: now_us(),
        args: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests touching the process-global shared sink (or asserting the
    /// *absence* of any sink) serialize on this lock so they cannot see
    /// each other's installations across the test harness's threads.
    /// Every test that emits takes it too: an emit also reaches whatever
    /// shared sink another test has installed.
    static GLOBAL_SINK_LOCK: Mutex<()> = Mutex::new(());

    fn global_lock() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL_SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A sink that reports disabled but counts any event() calls it gets:
    /// proves guarded emission sites never construct or deliver events.
    struct CountingDisabledSink {
        calls: Cell<usize>,
    }

    impl Sink for CountingDisabledSink {
        fn enabled(&self) -> bool {
            false
        }
        fn event(&self, _e: &Event) {
            self.calls.set(self.calls.get() + 1);
        }
    }

    #[test]
    fn disabled_by_default() {
        let _lock = global_lock();
        assert!(!enabled());
    }

    #[test]
    fn noop_sink_disables_hot_path() {
        let _lock = global_lock();
        let _g = set_sink(Rc::new(NoopSink));
        assert!(!enabled());
        // A (wrongly) unguarded emit is still dropped before the sink.
        emit(Event::instant("t", "x"));
    }

    #[test]
    fn disabled_sink_never_receives_events() {
        let _lock = global_lock();
        let sink = Rc::new(CountingDisabledSink {
            calls: Cell::new(0),
        });
        {
            let _g = set_sink(sink.clone());
            // The pipeline pattern: guarded construction.
            if enabled() {
                emit(Event::instant("t", "should-not-happen"));
            }
            // Even an unguarded emit must not reach a disabled sink.
            emit(Event::instant("t", "also-dropped"));
            // Spans short-circuit to None.
            assert!(span("t", "s").is_none());
        }
        assert_eq!(sink.calls.get(), 0);
    }

    #[test]
    fn shared_sink_receives_cross_thread_events() {
        let _lock = global_lock();
        let shared = Arc::new(SharedMemorySink::new());
        {
            let _g = install_shared(shared.clone());
            assert!(enabled(), "shared sink enables tracing on every thread");
            emit(Event::instant("t", "main-thread"));
            std::thread::spawn(|| {
                // A worker thread with no local sink still reaches the
                // shared one.
                assert!(enabled());
                emit(Event::instant("t", "worker-thread"));
            })
            .join()
            .unwrap();
        }
        let names: Vec<String> = shared.drain().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["main-thread", "worker-thread"]);
        assert!(!enabled(), "guard drop uninstalls the shared sink");
        emit(Event::instant("t", "after-drop"));
        assert!(shared.events().is_empty());
    }

    #[test]
    fn shared_guard_restores_previous_shared_sink() {
        let _lock = global_lock();
        let outer = Arc::new(SharedMemorySink::new());
        let inner = Arc::new(SharedMemorySink::new());
        let _g1 = install_shared(outer.clone());
        emit(Event::instant("t", "outer-1"));
        {
            let _g2 = install_shared(inner.clone());
            emit(Event::instant("t", "inner"));
        }
        emit(Event::instant("t", "outer-2"));
        let names: Vec<String> = outer.drain().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["outer-1", "outer-2"]);
        assert_eq!(inner.events().len(), 1);
    }

    #[test]
    fn local_and_shared_sinks_both_receive() {
        let _lock = global_lock();
        let local = Rc::new(MemorySink::new());
        let shared = Arc::new(SharedMemorySink::new());
        let _gl = set_sink(local.clone());
        let _gs = install_shared(shared.clone());
        emit(Event::instant("t", "both"));
        assert_eq!(local.events().len(), 1);
        assert_eq!(shared.events().len(), 1);
    }

    #[test]
    fn memory_sink_collects_and_guard_restores() {
        let _lock = global_lock();
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
        let _lock = global_lock();
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

    #[test]
    fn jsonl_sink_writes_lines() {
        let sink = JsonlSink::new(Vec::<u8>::new());
        sink.event(&Event::instant("t", "a"));
        sink.event(&Event::complete("t", "b", 10.0, 5.0));
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            json::Json::parse(line).expect("each line is valid JSON");
        }
    }
}
