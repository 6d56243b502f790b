//! Request-scoped trace contexts: 128-bit trace ids, span ids, and the
//! thread-local "current context" that stitches one request's spans into
//! a single tree even as the request hops across worker threads and
//! shards.
//!
//! The model follows W3C/OpenTelemetry conventions scaled down to a
//! zero-dependency crate:
//!
//! * a [`TraceContext`] is minted once per request at the serving tier's
//!   admission edge (128-bit trace id + 64-bit span id + a sampling
//!   flag) and travels *with the request* — through the router, the
//!   shard queue ticket, and into whichever engine worker thread ends up
//!   serving it;
//! * each thread that works on the request installs the context as its
//!   *current* context ([`set_current`], RAII-restored), so spans opened
//!   with [`span`](crate::span) — the engine's phases and the compile
//!   pipeline's stages alike — parent themselves correctly without any
//!   plumbing through intermediate call signatures;
//! * spans land in the process-wide [`TraceStore`]
//!   (installed with [`install_store`]), which applies *tail-based*
//!   sampling when the request finishes: traces that end badly (shed /
//!   expired / failed) or slow are always kept, boring ones are
//!   probabilistically dropped with the drops counted.
//!
//! Id minting is seeded from [`std::collections::hash_map::RandomState`]
//! (per-process random) mixed through SplitMix64, so ids are unique
//! within a process and collide across processes with negligible
//! probability — without any new dependency.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

use crate::store::{SpanRecord, StoredTrace, TraceOutcome, TraceStore};
use crate::Value;

/// A request-scoped trace context: everything a hop needs to attach its
/// spans to the right trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit trace id, unique per request.
    pub trace_id: u128,
    /// Span id of the *current* span (the parent of any span opened
    /// while this context is current).
    pub span_id: u64,
    /// Head-sampling hint: whether a [`TraceStore`] was installed when
    /// the context was minted. Spans skip the store lookup entirely when
    /// this is `false`.
    pub sampled: bool,
}

impl TraceContext {
    /// Mint a fresh root context. `sampled` reflects whether a process
    /// store is currently installed.
    pub fn mint() -> TraceContext {
        TraceContext {
            trace_id: mint_trace_id(),
            span_id: mint_span_id(),
            sampled: store_enabled(),
        }
    }

    /// Derive a child context: same trace, fresh span id.
    pub fn child(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: mint_span_id(),
            sampled: self.sampled,
        }
    }

    /// The trace id as a fixed-width 32-character lowercase hex string —
    /// the form used in exemplars, alert events, and `traces.json`.
    pub fn trace_hex(&self) -> String {
        trace_id_hex(self.trace_id)
    }
}

/// Render a 128-bit trace id as 32 lowercase hex characters.
pub fn trace_id_hex(id: u128) -> String {
    format!("{id:032x}")
}

/// Parse a hex trace id produced by [`trace_id_hex`].
pub fn parse_trace_id(hex: &str) -> Option<u128> {
    if hex.is_empty() || hex.len() > 32 {
        return None;
    }
    u128::from_str_radix(hex, 16).ok()
}

/// SplitMix64 finalizer: bijective, well-mixed — used to turn sequential
/// counters into uniformly distributed ids.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        use std::collections::hash_map::RandomState;
        use std::hash::{BuildHasher, Hasher};
        let mut h = RandomState::new().build_hasher();
        h.write_u64(0x6d74_7261_6365); // "mtrace"
        h.finish()
    })
}

static TRACE_COUNTER: AtomicU64 = AtomicU64::new(1);
static SPAN_COUNTER: AtomicU64 = AtomicU64::new(1);

fn mint_trace_id() -> u128 {
    let n = TRACE_COUNTER.fetch_add(1, Ordering::Relaxed);
    let seed = process_seed();
    let hi = splitmix64(seed ^ n);
    let lo = splitmix64(n.wrapping_add(seed.rotate_left(32)));
    let id = ((hi as u128) << 64) | lo as u128;
    if id == 0 {
        1
    } else {
        id
    }
}

fn mint_span_id() -> u64 {
    // The counter is bijectively mixed, so span ids are unique within
    // the process (no birthday collisions, unlike random draws).
    let n = SPAN_COUNTER.fetch_add(1, Ordering::Relaxed);
    let id = splitmix64(process_seed().rotate_left(17) ^ n);
    if id == 0 {
        1
    } else {
        id
    }
}

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// The calling thread's current trace context, if any.
pub fn current() -> Option<TraceContext> {
    CURRENT.with(|c| c.get())
}

/// Restores the previously current context when dropped.
pub struct ContextGuard {
    prev: Option<TraceContext>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev.take()));
    }
}

/// Install `ctx` as the calling thread's current context until the
/// returned guard drops. Worker threads call this when they pick up a
/// request whose ticket carries a context, so spans they open nest under
/// the request's root.
pub fn set_current(ctx: TraceContext) -> ContextGuard {
    let prev = CURRENT.with(|c| c.replace(Some(ctx)));
    ContextGuard { prev }
}

// Process-wide tail-sampling trace store: a single RwLock slot plus a
// relaxed fast-path flag.
static STORE: RwLock<Option<Arc<TraceStore>>> = RwLock::new(None);
static STORE_ENABLED: AtomicBool = AtomicBool::new(false);

/// Is a process-wide [`TraceStore`] installed? Single relaxed load; span
/// sites check this before doing any work.
#[inline]
pub fn store_enabled() -> bool {
    STORE_ENABLED.load(Ordering::Relaxed)
}

/// The installed process-wide store, if any.
pub fn store() -> Option<Arc<TraceStore>> {
    if !store_enabled() {
        return None;
    }
    STORE
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .cloned()
}

/// Restores the previously installed store when dropped.
pub struct StoreGuard {
    prev: Option<Arc<TraceStore>>,
}

impl Drop for StoreGuard {
    fn drop(&mut self) {
        let mut slot = STORE.write().unwrap_or_else(|e| e.into_inner());
        STORE_ENABLED.store(self.prev.is_some(), Ordering::Relaxed);
        *slot = self.prev.take();
    }
}

/// Install `store` as the process-wide trace store until the returned
/// guard drops. Every thread's [`span`](crate::span)s and finish calls
/// deliver to it.
pub fn install_store(store: Arc<TraceStore>) -> StoreGuard {
    let mut slot = STORE.write().unwrap_or_else(|e| e.into_inner());
    STORE_ENABLED.store(true, Ordering::Relaxed);
    let prev = slot.replace(store);
    StoreGuard { prev }
}

/// Microseconds between the process tracing epoch and `t` (saturating at
/// zero for instants before the epoch). Lets callers place spans for
/// externally captured [`Instant`]s — e.g. a queue-wait span whose start
/// is the admission timestamp — on the same timeline as [`now_us`].
///
/// [`now_us`]: crate::now_us
pub fn instant_us(t: Instant) -> f64 {
    let epoch = crate::epoch();
    match t.checked_duration_since(epoch) {
        Some(d) => d.as_secs_f64() * 1e6,
        None => 0.0,
    }
}

/// Record an already-elapsed child span of `ctx`, from `start` to now —
/// for phases known only after the fact (a queue wait, a spill hop),
/// where a live [`Span`](crate::Span) cannot wrap the work.
pub fn record_elapsed_span(
    ctx: &TraceContext,
    cat: &'static str,
    name: &'static str,
    start: Instant,
    args: Vec<(&'static str, Value)>,
) {
    if !ctx.sampled {
        return;
    }
    if let Some(store) = store() {
        store.record(
            ctx,
            SpanRecord {
                span_id: ctx.child().span_id,
                parent: Some(ctx.span_id),
                cat,
                name,
                start_us: instant_us(start),
                dur_us: start.elapsed().as_secs_f64() * 1e6,
                args,
            },
        );
    }
}

/// The root span of a request's trace, recorded by the tier that minted
/// the context when the request ends (see [`finish_request`]).
#[derive(Debug)]
pub struct RequestRoot<'a> {
    /// Category of the minting tier (`"engine"`, `"serve"`).
    pub cat: &'static str,
    /// Admission instant: the root spans from here to the finish.
    pub start: Instant,
    /// The program the request ran.
    pub workload: &'a str,
    /// The tier's own facts (tenant, shard …).
    pub args: Vec<(&'static str, Value)>,
}

/// Record `root` as the root span of `ctx`'s trace, then finish the
/// trace with `outcome`. Every root carries `workload` and `outcome`;
/// every outcome but completed also carries `reason`, the display text
/// of the error. Returns the trace id when the tail sampler kept the
/// trace; `None` when the context is unsampled or no store is installed.
pub fn finish_request(
    ctx: &TraceContext,
    root: RequestRoot<'_>,
    outcome: TraceOutcome,
    reason: Option<&impl std::fmt::Display>,
    latency_seconds: Option<f64>,
) -> Option<u128> {
    if !ctx.sampled {
        return None;
    }
    let store = store()?;
    let mut args = root.args;
    args.push(("workload", root.workload.into()));
    args.push(("outcome", outcome.as_str().into()));
    if let Some(reason) = reason.filter(|_| outcome.is_bad()) {
        args.push(("reason", reason.to_string().into()));
    }
    store.record(
        ctx,
        SpanRecord {
            span_id: ctx.span_id,
            parent: None,
            cat: root.cat,
            name: "request",
            start_us: instant_us(root.start),
            dur_us: root.start.elapsed().as_secs_f64() * 1e6,
            args,
        },
    );
    store
        .finish(ctx, outcome, latency_seconds)
        .then_some(ctx.trace_id)
}

/// Run `f` as one request of its own and return its result with the
/// request's kept trace: the collector for work that runs without an
/// engine or a front door (tests, examples, profiles).
///
/// A freshly minted context is current while `f` runs, so its spans, and
/// those of helper threads that adopt [`current`], land in the trace. The
/// trace then finishes as [`TraceOutcome::Completed`] with the elapsed
/// latency, under a root of `cat` and `workload`. The trace is `None` when
/// no store is installed or the installed store did not keep it.
pub fn collect<T>(
    cat: &'static str,
    workload: &str,
    f: impl FnOnce() -> T,
) -> (T, Option<StoredTrace>) {
    let ctx = TraceContext::mint();
    let start = Instant::now();
    let out = {
        let _current = set_current(ctx);
        f()
    };
    let root = RequestRoot {
        cat,
        start,
        workload,
        args: Vec::new(),
    };
    let latency = Some(start.elapsed().as_secs_f64());
    let kept = finish_request(
        &ctx,
        root,
        TraceOutcome::Completed,
        None::<&String>,
        latency,
    );
    (out, kept.and_then(|id| store()?.lookup(id)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;
    use crate::store::TailSamplerConfig;
    use crate::store_lock as lock;
    use std::collections::HashSet;

    #[test]
    fn minted_ids_are_unique_and_nonzero() {
        let mut traces = HashSet::new();
        let mut spans = HashSet::new();
        for _ in 0..10_000 {
            let ctx = TraceContext::mint();
            assert_ne!(ctx.trace_id, 0);
            assert_ne!(ctx.span_id, 0);
            assert!(traces.insert(ctx.trace_id), "duplicate trace id");
            assert!(spans.insert(ctx.span_id), "duplicate span id");
        }
    }

    #[test]
    fn hex_round_trips() {
        let ctx = TraceContext::mint();
        let hex = ctx.trace_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(parse_trace_id(&hex), Some(ctx.trace_id));
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("zz"), None);
    }

    #[test]
    fn child_keeps_trace_changes_span() {
        let root = TraceContext::mint();
        let child = root.child();
        assert_eq!(child.trace_id, root.trace_id);
        assert_ne!(child.span_id, root.span_id);
    }

    #[test]
    fn current_context_guard_restores() {
        let _l = lock();
        assert_eq!(current(), None);
        let a = TraceContext::mint();
        let b = TraceContext::mint();
        {
            let _ga = set_current(a);
            assert_eq!(current(), Some(a));
            {
                let _gb = set_current(b);
                assert_eq!(current(), Some(b));
            }
            assert_eq!(current(), Some(a));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn span_requires_context_and_store() {
        let _l = lock();
        // No context, no store: nothing.
        assert!(span("t", "a").is_none());
        let store = Arc::new(TraceStore::new(TailSamplerConfig::default()));
        let _gs = install_store(store.clone());
        // Store but no current context: still nothing.
        assert!(span("t", "b").is_none());
        let root = TraceContext::mint();
        let _gc = set_current(root);
        {
            let mut outer = span("t", "outer").expect("span opens");
            outer.arg("k", 1u64);
            let _inner = span("t", "inner").expect("nested span opens");
        }
        assert_eq!(current(), Some(root), "closing restores the root");
        drop(span("t", "after").expect("span opens"));
        store.finish(&root, TraceOutcome::Failed, None);
        let kept = store.kept_traces();
        assert_eq!(kept.len(), 1);
        let spans = &kept[0].spans;
        let by_name = |name| spans.iter().find(|s| s.name == name).unwrap();
        // Inner closes first; the nested span's parent is the outer span,
        // not the root, and the span after them parents to the root again.
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["inner", "outer", "after"]);
        assert_eq!(by_name("inner").parent, Some(by_name("outer").span_id));
        assert_eq!(by_name("outer").parent, Some(root.span_id));
        assert_eq!(by_name("after").parent, Some(root.span_id));
        assert_eq!(by_name("outer").args, [("k", Value::UInt(1))]);
        // The kept spans render as Chrome slices on the pipeline lane.
        let events: Vec<_> = spans.iter().map(crate::chrome::span_event).collect();
        let names: Vec<_> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["inner", "outer", "after"]);
        assert_eq!(events[1].get_u64("k"), Some(1));
        assert!(events
            .iter()
            .all(|e| e.phase == crate::Phase::Complete && e.pid == crate::PID_PIPELINE));
    }

    #[test]
    fn span_is_none_under_a_store_without_a_sampled_context() {
        let _l = lock();
        let store = Arc::new(TraceStore::new(TailSamplerConfig::default()));
        let _gs = install_store(store.clone());
        assert!(span("t", "no-context").is_none());
        let unsampled = TraceContext {
            sampled: false,
            ..TraceContext::mint()
        };
        let _gc = set_current(unsampled);
        assert!(span("t", "unsampled").is_none());
        assert_eq!(current(), Some(unsampled), "no span became current");
        assert_eq!(store.stats().started, 0, "nothing was recorded");
    }

    #[test]
    fn finish_request_records_one_root_with_the_outcome_rule() {
        let _l = lock();
        let store = Arc::new(TraceStore::new(TailSamplerConfig {
            latency_threshold: 0.0,
            ..TailSamplerConfig::default()
        }));
        let _gs = install_store(store.clone());
        let root = |cat| RequestRoot {
            cat,
            start: Instant::now(),
            workload: "saxpy",
            args: vec![("shard", 2u64.into())],
        };
        let shed = TraceContext::mint();
        record_elapsed_span(&shed, "t", "queue", Instant::now(), Vec::new());
        let kept = finish_request(
            &shed,
            root("t"),
            TraceOutcome::Shed,
            Some(&"queue full"),
            None,
        );
        assert_eq!(kept, Some(shed.trace_id));
        let done = TraceContext::mint();
        finish_request(
            &done,
            root("t"),
            TraceOutcome::Completed,
            Some(&"unused"),
            Some(0.1),
        );

        let shed = store.lookup(shed.trace_id).expect("bad traces are kept");
        let names: Vec<_> = shed.spans.iter().map(|s| (s.name, s.parent)).collect();
        let root_id = shed.spans[1].span_id;
        assert_eq!(names, [("queue", Some(root_id)), ("request", None)]);
        let args = &shed.spans[1].args;
        let arg = |k| {
            args.iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| v.to_string())
        };
        assert_eq!(arg("workload").as_deref(), Some("saxpy"));
        assert_eq!(arg("outcome").as_deref(), Some("shed"));
        assert_eq!(arg("reason").as_deref(), Some("queue full"));
        assert_eq!(arg("shard").as_deref(), Some("2"));
        let done = store.lookup(done.trace_id).expect("slow completion kept");
        assert!(
            done.spans[0].args.iter().all(|(k, _)| *k != "reason"),
            "a completed root carries no reason"
        );
    }

    #[test]
    fn collect_keeps_a_helper_threads_spans_under_one_root() {
        let _l = lock();
        // With no store installed the work still runs, and there is no trace.
        let (ran, none) = collect("t", "w", || 7);
        assert_eq!((ran, none), (7, None));
        let store = Arc::new(TraceStore::new(TailSamplerConfig::keep_all()));
        let _gs = install_store(store);
        let ((), kept) = collect("test", "saxpy", || {
            let ctx = current().expect("collect makes a context current");
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _adopted = set_current(ctx);
                    drop(span("t", "helper").expect("the helper's span opens"));
                });
            });
        });
        let kept = kept.expect("keep_all keeps the trace");
        assert_eq!(kept.outcome, TraceOutcome::Completed);
        assert!(kept.latency_seconds.is_some());
        let [helper, root] = &kept.spans[..] else {
            panic!("one helper span and the root: {:?}", kept.spans);
        };
        assert_eq!((helper.name, helper.parent), ("helper", Some(root.span_id)));
        assert_eq!(
            (root.cat, root.name, root.parent),
            ("test", "request", None)
        );
        let arg = |k| {
            let (_, v) = root.args.iter().find(|(key, _)| *key == k)?;
            Some(v.to_string())
        };
        assert_eq!(arg("workload").as_deref(), Some("saxpy"));
        assert_eq!(arg("outcome").as_deref(), Some("completed"));
    }

    #[test]
    fn store_guard_restores_previous() {
        let _l = lock();
        assert!(store().is_none());
        let outer = Arc::new(TraceStore::new(TailSamplerConfig::default()));
        let inner = Arc::new(TraceStore::new(TailSamplerConfig::default()));
        let _g1 = install_store(outer.clone());
        {
            let _g2 = install_store(inner.clone());
            assert!(Arc::ptr_eq(&store().unwrap(), &inner));
        }
        assert!(Arc::ptr_eq(&store().unwrap(), &outer));
        drop(_g1);
        assert!(store().is_none());
        assert!(!store_enabled());
    }

    #[test]
    fn instant_us_is_monotonic_on_timeline() {
        let t0 = Instant::now();
        let a = instant_us(t0);
        let b = crate::now_us();
        // t0 was captured before now_us() was sampled.
        assert!(a <= b + 1.0, "a={a} b={b}");
    }
}
