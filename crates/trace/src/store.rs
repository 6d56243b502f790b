//! Tail-based trace sampling: a bounded in-flight buffer of request
//! traces with a keep/drop decision made when the request *finishes*.
//!
//! Head sampling (decide at admission) cannot know which requests will
//! matter; tail sampling waits for the outcome. The policy here:
//!
//! * every trace that ends in a non-success outcome (shed, expired,
//!   failed, quota-rejected) is **always kept**;
//! * a successful trace is kept when its latency is at or above the
//!   configured threshold (it is tail-interesting);
//! * remaining "boring" traces (fast successes) are kept with
//!   probability [`TailSamplerConfig::keep_fraction`], decided
//!   *deterministically* from the trace id bits so reruns with the same
//!   ids make the same decisions — everything else is dropped and the
//!   drop is counted.
//!
//! All buffers are bounded: the in-flight map (requests started but not
//! finished) sheds new traces past its cap, per-trace span lists are
//! capped, and the kept ring evicts oldest-first — each with its own
//! counter in [`TailStats`] so a silent loss is impossible.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Mutex;

use crate::chrome::value_json;
use crate::context::{splitmix64, trace_id_hex, TraceContext};
use crate::json::Json;
use crate::Value;

/// One recorded span within a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// This span's id.
    pub span_id: u64,
    /// Parent span id (`None` for the root span).
    pub parent: Option<u64>,
    /// Category (`"serve"`, `"engine"`, `"core"`, `"search"` …).
    pub cat: &'static str,
    /// Span name.
    pub name: &'static str,
    /// Start, microseconds on the process tracing epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Typed payload (shard index, tenant, cache-hit flag …).
    pub args: Vec<(&'static str, Value)>,
}

impl SpanRecord {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            (
                "span_id".to_string(),
                Json::Str(format!("{:016x}", self.span_id)),
            ),
            (
                "parent".to_string(),
                match self.parent {
                    Some(p) => Json::Str(format!("{p:016x}")),
                    None => Json::Null,
                },
            ),
            ("cat".to_string(), Json::Str(self.cat.to_string())),
            ("name".to_string(), Json::Str(self.name.to_string())),
            ("start_us".to_string(), Json::Num(self.start_us)),
            ("dur_us".to_string(), Json::Num(self.dur_us)),
        ];
        if !self.args.is_empty() {
            fields.push((
                "args".to_string(),
                Json::Obj(
                    self.args
                        .iter()
                        .map(|(k, v)| (k.to_string(), value_json(v)))
                        .collect(),
                ),
            ));
        }
        Json::Obj(fields)
    }
}

/// How a request's trace ended — drives the keep/drop decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Request completed successfully.
    Completed,
    /// Shed at admission or by queue-full overload.
    Shed,
    /// Deadline exceeded.
    Expired,
    /// Worker failure (panic, compile error).
    Failed,
    /// Rejected by per-tenant quota admission.
    QuotaRejected,
}

impl TraceOutcome {
    /// Stable lowercase label used in `traces.json`.
    pub fn as_str(&self) -> &'static str {
        match self {
            TraceOutcome::Completed => "completed",
            TraceOutcome::Shed => "shed",
            TraceOutcome::Expired => "expired",
            TraceOutcome::Failed => "failed",
            TraceOutcome::QuotaRejected => "quota_rejected",
        }
    }

    /// Non-success outcomes are always kept by the tail sampler.
    pub fn is_bad(&self) -> bool {
        !matches!(self, TraceOutcome::Completed)
    }
}

/// Tail-sampling policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailSamplerConfig {
    /// Maximum kept traces; oldest evicted past this (counted).
    pub capacity: usize,
    /// Maximum traces in flight (started, not finished); spans for
    /// traces past this cap are shed (counted).
    pub max_in_flight: usize,
    /// Maximum spans retained per trace; extra spans dropped (counted).
    pub max_spans_per_trace: usize,
    /// Successful traces at or above this latency (seconds) are always
    /// kept.
    pub latency_threshold: f64,
    /// Fraction of boring traces (fast successes) kept, in `[0, 1]`.
    pub keep_fraction: f64,
}

impl Default for TailSamplerConfig {
    fn default() -> TailSamplerConfig {
        TailSamplerConfig {
            capacity: 4096,
            max_in_flight: 65_536,
            max_spans_per_trace: 64,
            latency_threshold: 0.050,
            keep_fraction: 0.05,
        }
    }
}

impl TailSamplerConfig {
    /// Keep every trace and every span: a zero latency threshold keeps
    /// every completion that reports its latency, a keep fraction of one
    /// keeps the rest, and no trace drops a span. The kept ring still
    /// holds at most `capacity` traces.
    pub fn keep_all() -> TailSamplerConfig {
        TailSamplerConfig {
            latency_threshold: 0.0,
            keep_fraction: 1.0,
            max_spans_per_trace: usize::MAX,
            ..TailSamplerConfig::default()
        }
    }
}

/// A finished, kept trace.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredTrace {
    /// 128-bit trace id.
    pub trace_id: u128,
    /// Final outcome.
    pub outcome: TraceOutcome,
    /// Request latency in seconds, when the finisher knew it.
    pub latency_seconds: Option<f64>,
    /// Spans in recording order (roots are recorded last, at finish).
    pub spans: Vec<SpanRecord>,
}

impl StoredTrace {
    /// The trace as one JSON document: id, outcome, latency when known,
    /// and every span with its arguments — the per-request record
    /// `traces.json` is made of.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            (
                "trace_id".to_string(),
                Json::Str(trace_id_hex(self.trace_id)),
            ),
            (
                "outcome".to_string(),
                Json::Str(self.outcome.as_str().to_string()),
            ),
        ];
        if let Some(lat) = self.latency_seconds {
            fields.push(("latency_seconds".to_string(), Json::Num(lat)));
        }
        fields.push((
            "spans".to_string(),
            Json::Arr(self.spans.iter().map(SpanRecord::to_json).collect()),
        ));
        Json::Obj(fields)
    }
}

/// Accounting for every path a trace (or span) can take through the
/// sampler. Invariant: `finished == kept + dropped_sampled`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailStats {
    /// Traces that recorded at least one span.
    pub started: u64,
    /// Traces finished with an outcome.
    pub finished: u64,
    /// Finished traces kept in the store.
    pub kept: u64,
    /// Finished traces with a non-success outcome (all kept).
    pub finished_bad: u64,
    /// Successful finished traces below the latency threshold.
    pub finished_boring: u64,
    /// Boring traces kept by the probabilistic decision.
    pub kept_boring: u64,
    /// Boring traces dropped by the probabilistic decision.
    pub dropped_sampled: u64,
    /// Traces shed because the in-flight buffer was full.
    pub dropped_in_flight: u64,
    /// Spans dropped because their trace hit the per-trace span cap.
    pub spans_dropped: u64,
    /// Kept traces evicted to stay within capacity.
    pub evicted: u64,
}

struct StoreInner {
    in_flight: BTreeMap<u128, Vec<SpanRecord>>,
    kept: VecDeque<StoredTrace>,
    stats: TailStats,
}

/// Process-wide tail-sampling trace store. Install with
/// [`install_store`](crate::context::install_store); spans recorded via
/// [`span`](crate::span) (or [`TraceStore::record`] directly) accumulate
/// per trace until [`TraceStore::finish`] decides their fate.
pub struct TraceStore {
    config: TailSamplerConfig,
    inner: Mutex<StoreInner>,
}

impl TraceStore {
    /// An empty store with the given policy.
    pub fn new(config: TailSamplerConfig) -> TraceStore {
        TraceStore {
            config,
            inner: Mutex::new(StoreInner {
                in_flight: BTreeMap::new(),
                kept: VecDeque::new(),
                stats: TailStats::default(),
            }),
        }
    }

    /// The policy this store applies.
    pub fn config(&self) -> TailSamplerConfig {
        self.config
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append one span to the trace identified by `ctx`. Starts the
    /// trace on first span; sheds (and counts) when the in-flight buffer
    /// is full or the trace's span cap is hit.
    pub fn record(&self, ctx: &TraceContext, span: SpanRecord) {
        let mut inner = self.lock();
        let cap_spans = self.config.max_spans_per_trace;
        if let Some(spans) = inner.in_flight.get_mut(&ctx.trace_id) {
            if spans.len() >= cap_spans {
                inner.stats.spans_dropped += 1;
            } else {
                spans.push(span);
            }
            return;
        }
        if inner.in_flight.len() >= self.config.max_in_flight {
            inner.stats.dropped_in_flight += 1;
            return;
        }
        inner.stats.started += 1;
        inner.in_flight.insert(ctx.trace_id, vec![span]);
    }

    /// The deterministic keep decision for a boring (fast, successful)
    /// trace: the trace id's low bits, remixed, against the keep
    /// fraction. Pure, so tests can pin it.
    pub fn would_keep_boring(&self, trace_id: u128) -> bool {
        let f = self.config.keep_fraction.clamp(0.0, 1.0);
        let hashed = splitmix64((trace_id as u64) ^ 0x7ead_5a3d_0c0f_fee5);
        (hashed as f64) < f * (u64::MAX as f64)
    }

    /// Finish the trace with its outcome, applying the tail-sampling
    /// decision. Returns `true` when the trace was kept (callers use
    /// this to decide whether to publish the id as an exemplar). A
    /// finish for a trace with no recorded spans still creates (and
    /// samples) an empty trace, so terminal accounting never loses a
    /// request.
    pub fn finish(
        &self,
        ctx: &TraceContext,
        outcome: TraceOutcome,
        latency_seconds: Option<f64>,
    ) -> bool {
        let mut inner = self.lock();
        let spans = match inner.in_flight.remove(&ctx.trace_id) {
            Some(spans) => spans,
            None => {
                inner.stats.started += 1;
                Vec::new()
            }
        };
        inner.stats.finished += 1;
        let slow = latency_seconds.is_some_and(|l| l >= self.config.latency_threshold);
        let keep = if outcome.is_bad() {
            inner.stats.finished_bad += 1;
            true
        } else if slow {
            true
        } else {
            inner.stats.finished_boring += 1;
            if self.would_keep_boring(ctx.trace_id) {
                inner.stats.kept_boring += 1;
                true
            } else {
                inner.stats.dropped_sampled += 1;
                false
            }
        };
        if !keep {
            return false;
        }
        inner.stats.kept += 1;
        inner.kept.push_back(StoredTrace {
            trace_id: ctx.trace_id,
            outcome,
            latency_seconds,
            spans,
        });
        while inner.kept.len() > self.config.capacity {
            inner.kept.pop_front();
            inner.stats.evicted += 1;
        }
        true
    }

    /// Is this trace id in the kept store?
    pub fn contains(&self, trace_id: u128) -> bool {
        self.lock().kept.iter().any(|t| t.trace_id == trace_id)
    }

    /// Look up a kept trace by id.
    pub fn lookup(&self, trace_id: u128) -> Option<StoredTrace> {
        self.lock()
            .kept
            .iter()
            .find(|t| t.trace_id == trace_id)
            .cloned()
    }

    /// A copy of every kept trace, oldest first.
    pub fn kept_traces(&self) -> Vec<StoredTrace> {
        self.lock().kept.iter().cloned().collect()
    }

    /// Current accounting.
    pub fn stats(&self) -> TailStats {
        self.lock().stats
    }

    /// Export the kept bundle plus accounting as JSON (`traces.json`).
    pub fn to_json(&self) -> Json {
        let inner = self.lock();
        let s = inner.stats;
        Json::Obj(vec![
            ("started".to_string(), Json::Num(s.started as f64)),
            ("finished".to_string(), Json::Num(s.finished as f64)),
            ("kept".to_string(), Json::Num(s.kept as f64)),
            ("finished_bad".to_string(), Json::Num(s.finished_bad as f64)),
            (
                "finished_boring".to_string(),
                Json::Num(s.finished_boring as f64),
            ),
            ("kept_boring".to_string(), Json::Num(s.kept_boring as f64)),
            (
                "dropped_sampled".to_string(),
                Json::Num(s.dropped_sampled as f64),
            ),
            (
                "dropped_in_flight".to_string(),
                Json::Num(s.dropped_in_flight as f64),
            ),
            (
                "spans_dropped".to_string(),
                Json::Num(s.spans_dropped as f64),
            ),
            ("evicted".to_string(), Json::Num(s.evicted as f64)),
            (
                "traces".to_string(),
                Json::Arr(inner.kept.iter().map(StoredTrace::to_json).collect()),
            ),
        ])
    }
}

impl std::fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceStore")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str) -> SpanRecord {
        SpanRecord {
            span_id: 1,
            parent: None,
            cat: "t",
            name,
            start_us: 0.0,
            dur_us: 1.0,
            args: Vec::new(),
        }
    }

    fn ctx(trace_id: u128) -> TraceContext {
        TraceContext {
            trace_id,
            span_id: 1,
            sampled: true,
        }
    }

    #[test]
    fn bad_outcomes_always_kept() {
        let store = TraceStore::new(TailSamplerConfig::default());
        for (i, outcome) in [
            TraceOutcome::Shed,
            TraceOutcome::Expired,
            TraceOutcome::Failed,
            TraceOutcome::QuotaRejected,
        ]
        .iter()
        .enumerate()
        {
            let c = ctx(i as u128 + 1);
            store.record(&c, span("root"));
            assert!(store.finish(&c, *outcome, Some(0.0)), "{outcome:?} kept");
            assert!(store.contains(c.trace_id));
        }
        let s = store.stats();
        assert_eq!(s.finished_bad, 4);
        assert_eq!(s.kept, 4);
        assert_eq!(s.dropped_sampled, 0);
    }

    #[test]
    fn slow_success_kept_fast_success_sampled() {
        let cfg = TailSamplerConfig {
            latency_threshold: 0.010,
            keep_fraction: 0.0,
            ..TailSamplerConfig::default()
        };
        let store = TraceStore::new(cfg);
        let slow = ctx(1);
        store.record(&slow, span("root"));
        assert!(store.finish(&slow, TraceOutcome::Completed, Some(0.020)));
        let fast = ctx(2);
        store.record(&fast, span("root"));
        assert!(!store.finish(&fast, TraceOutcome::Completed, Some(0.001)));
        let s = store.stats();
        assert_eq!(s.kept, 1);
        assert_eq!(s.finished_boring, 1);
        assert_eq!(s.dropped_sampled, 1);
        assert_eq!(s.finished, s.kept + s.dropped_sampled);
    }

    #[test]
    fn boring_keep_rate_tracks_fraction() {
        let cfg = TailSamplerConfig {
            latency_threshold: 1.0,
            keep_fraction: 0.05,
            capacity: 1 << 16,
            ..TailSamplerConfig::default()
        };
        let store = TraceStore::new(cfg);
        let n = 20_000u64;
        for i in 0..n {
            // Realistic ids: well-mixed, like mint() produces.
            let id = ((splitmix64(i) as u128) << 64) | splitmix64(i ^ 0xabcd) as u128;
            let c = ctx(id.max(1));
            store.record(&c, span("root"));
            store.finish(&c, TraceOutcome::Completed, Some(0.0));
        }
        let s = store.stats();
        assert_eq!(s.finished_boring, n);
        assert_eq!(s.kept_boring + s.dropped_sampled, n);
        let rate = s.kept_boring as f64 / n as f64;
        assert!(rate <= 0.10, "keep rate {rate} above the 10% ceiling");
        assert!(rate >= 0.02, "keep rate {rate} implausibly low for 5%");
        // Decisions are deterministic per id.
        let again = TraceStore::new(cfg);
        for t in store.kept_traces() {
            assert!(again.would_keep_boring(t.trace_id));
        }
    }

    #[test]
    fn span_cap_and_in_flight_cap_are_counted() {
        let cfg = TailSamplerConfig {
            max_spans_per_trace: 2,
            max_in_flight: 1,
            ..TailSamplerConfig::default()
        };
        let store = TraceStore::new(cfg);
        let a = ctx(1);
        store.record(&a, span("s1"));
        store.record(&a, span("s2"));
        store.record(&a, span("s3")); // past the span cap
        let b = ctx(2);
        store.record(&b, span("s1")); // past the in-flight cap
        let s = store.stats();
        assert_eq!(s.spans_dropped, 1);
        assert_eq!(s.dropped_in_flight, 1);
        assert!(store.finish(&a, TraceOutcome::Failed, None));
        assert_eq!(store.lookup(1).unwrap().spans.len(), 2);
    }

    #[test]
    fn capacity_evicts_oldest_and_counts() {
        let cfg = TailSamplerConfig {
            capacity: 2,
            ..TailSamplerConfig::default()
        };
        let store = TraceStore::new(cfg);
        for i in 1..=3u128 {
            let c = ctx(i);
            store.record(&c, span("root"));
            store.finish(&c, TraceOutcome::Failed, None);
        }
        assert_eq!(store.stats().evicted, 1);
        assert!(!store.contains(1), "oldest evicted");
        assert!(store.contains(2) && store.contains(3));
    }

    #[test]
    fn finish_without_spans_still_accounts() {
        let store = TraceStore::new(TailSamplerConfig::default());
        let c = ctx(7);
        assert!(store.finish(&c, TraceOutcome::Shed, None));
        let s = store.stats();
        assert_eq!(s.started, 1);
        assert_eq!(s.finished, 1);
        assert!(store.lookup(7).unwrap().spans.is_empty());
    }

    #[test]
    fn json_export_round_trips_structure() {
        let store = TraceStore::new(TailSamplerConfig::default());
        let c = ctx(0xdead_beef);
        let mut s = span("root");
        s.args.push(("shard", Value::UInt(3)));
        store.record(&c, s);
        store.finish(&c, TraceOutcome::Expired, Some(0.25));
        let j = Json::parse(&store.to_json().render()).unwrap();
        assert_eq!(j.get("kept").and_then(Json::as_u64), Some(1));
        let traces = j.get("traces").and_then(Json::as_arr).unwrap();
        assert_eq!(
            traces[0].get("outcome").and_then(Json::as_str),
            Some("expired")
        );
        let tid = traces[0].get("trace_id").and_then(Json::as_str).unwrap();
        assert_eq!(crate::context::parse_trace_id(tid), Some(0xdead_beef));
        let spans = traces[0].get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans[0].get("name").and_then(Json::as_str), Some("root"));
        let args = spans[0].get("args").unwrap();
        assert_eq!(args.get("shard").and_then(Json::as_u64), Some(3));
    }
}
