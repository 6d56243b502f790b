//! # multidim-obs — fleet observability for the multidim service layer
//!
//! The paper's argument is quantitative — coalescing ratios, occupancy,
//! launch overhead — and the service layer (`multidim-engine`) serves
//! those measurements at volume. This crate is the layer that makes the
//! numbers first-class:
//!
//! * a thread-safe **metrics [`Registry`]** of named [`Counter`]s,
//!   [`Gauge`]s, and log-bucketed mergeable [`Histogram`]s (p50/p90/p99/
//!   p999 estimation), with Prometheus-style text exposition
//!   ([`Registry::render_text`]) and JSON export ([`Registry::to_json`]);
//! * **labelled metric families** (one generic [`Family`], named
//!   [`CounterFamily`], [`GaugeFamily`] and [`HistogramFamily`] by kind)
//!   — one metric name fanned out per label value (per-workload outcome
//!   counters and latency histograms under load, per-shard queue-depth
//!   gauges in the sharded serving tier);
//! * an **[`slo`] module** — SLO definitions, error-budget accounting,
//!   and multi-window burn rates ([`SloTracker`]) over windows the caller
//!   rotates explicitly;
//! * **[`TimeSeries`]** — bounded overload telemetry rings (queue depth,
//!   in-flight, shed rate) with sparkline and JSON rendering;
//! * an **[`alerts`] module** — an [`AlertEngine`] evaluating multi-window
//!   SLO burn-rate rules and metric threshold rules, emitting structured
//!   firing/resolved [`AlertEvent`]s with exemplar trace ids attached;
//! * histogram **[`Exemplar`]s** — each latency bucket remembers the
//!   trace id of a recent request that landed there, so a p99 spike in
//!   the exposition links straight to a kept trace.
//!
//! The per-request record is not here: it is the tail-sampled trace
//! ([`multidim_trace::StoredTrace`]), which keeps every failed or slow
//! request with its outcome, failure reason and stitched spans.
//!
//! Like the rest of the workspace, the crate has no external
//! dependencies; JSON goes through [`multidim_trace::json`], and
//! exemplars name kept traces by [`multidim_trace::trace_id_hex`].
//!
//! # Example
//!
//! ```
//! use multidim_obs::Registry;
//!
//! let registry = Registry::new();
//! let latency = registry.histogram("request_seconds", "request latency");
//! let served = registry.counter("requests_total", "requests served");
//! for i in 1..=100 {
//!     latency.record(i as f64 * 1e-4);
//!     served.inc();
//! }
//! assert_eq!(served.get(), 100);
//! let p99 = latency.quantile(0.99).unwrap();
//! assert!(p99 > 90e-4 && p99 < 110e-4);
//! let text = registry.render_text();
//! assert!(text.contains("# TYPE request_seconds summary"));
//! assert!(text.contains("requests_total 100"));
//! ```

#![warn(missing_docs)]

pub mod alerts;
pub mod hist;
pub mod registry;
pub mod slo;
pub mod timeseries;

pub use alerts::{
    AlertEngine, AlertEvent, AlertRule, AlertSeverity, BurnObjective, BurnRateRule, Comparison,
    ThresholdRule,
};
pub use hist::{Exemplar, Histogram, HistogramSnapshot, BUCKETS, SUB_BUCKETS};
pub use registry::{
    Counter, CounterFamily, Family, Gauge, GaugeFamily, HistogramFamily, Registry, QUANTILES,
};
pub use slo::{BurnRate, LatencyObjective, Slo, SloStatus, SloTracker};
pub use timeseries::{SeriesStats, TimeSeries};

// The registry and its handles are shared across engine workers; fail
// compilation loudly if they ever stop being Send + Sync.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Registry>();
    assert_send_sync::<Histogram>();
    assert_send_sync::<Counter>();
    assert_send_sync::<Gauge>();
    assert_send_sync::<CounterFamily>();
    assert_send_sync::<GaugeFamily>();
    assert_send_sync::<HistogramFamily>();
    assert_send_sync::<SloTracker>();
    assert_send_sync::<TimeSeries>();
    assert_send_sync::<AlertEngine>();
};
