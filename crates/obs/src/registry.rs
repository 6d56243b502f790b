//! A process-local metrics registry: named counters, gauges, and
//! histograms, with Prometheus-style text exposition and JSON export.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`s returned by
//! the registration methods; record through the handle on hot paths (no
//! registry lock), read everything at once through
//! [`Registry::render_text`] / [`Registry::to_json`]. Registration is
//! get-or-create: registering the same name twice returns the same
//! handle, so independent subsystems can share a metric by name.
//! Metrics render in lexicographic name order, making the exposition
//! deterministic (and golden-testable).
//!
//! Every metric is a [`Family`] of its kind: a labelled family holds one
//! child per label value, and a plain metric is the unlabelled family
//! whose one child has the empty label value.

use crate::hist::{Histogram, HistogramSnapshot};
use multidim_trace::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A labelled family of metrics of one kind: one metric name, one label
/// key, one child per label value (e.g. `engine_shed_total{workload="bfs"}`
/// or `serve_shard_queue_depth{shard="2"}`).
///
/// Children are get-or-create through [`Family::with`]; handles are
/// `Arc`s, so hot paths resolve the child once and record lock-free.
pub struct Family<M> {
    /// `None` for a plain metric.
    label: Option<String>,
    children: Mutex<BTreeMap<String, Arc<M>>>,
}

/// A labelled family of [`Counter`]s.
pub type CounterFamily = Family<Counter>;

/// A labelled family of [`Gauge`]s.
pub type GaugeFamily = Family<Gauge>;

/// A labelled family of [`Histogram`]s. The children share the
/// log-bucketed layout, so per-label and merged views agree on bucketing
/// error.
pub type HistogramFamily = Family<Histogram>;

impl<M: Default> Family<M> {
    /// The family's label key (e.g. `"workload"`).
    pub fn label(&self) -> &str {
        self.label.as_deref().unwrap_or_default()
    }

    /// Get or create the child for `value`.
    pub fn with(&self, value: &str) -> Arc<M> {
        let mut children = self.children.lock().unwrap_or_else(|e| e.into_inner());
        match children.get(value) {
            Some(child) => child.clone(),
            None => children.entry(value.to_string()).or_default().clone(),
        }
    }

    /// Every child's `(label value, handle)`, in label order.
    pub fn children(&self) -> Vec<(String, Arc<M>)> {
        self.read(Arc::clone)
    }

    fn read<T>(&self, f: impl Fn(&Arc<M>) -> T) -> Vec<(String, T)> {
        let children = self.children.lock().unwrap_or_else(|e| e.into_inner());
        children.iter().map(|(k, c)| (k.clone(), f(c))).collect()
    }
}

impl CounterFamily {
    /// Every child's `(label value, count)`, in label order.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.read(|c| c.get())
    }

    /// Sum over all children.
    pub fn total(&self) -> u64 {
        self.snapshot().iter().map(|(_, v)| v).sum()
    }
}

impl GaugeFamily {
    /// Every child's `(label value, current value)`, in label order.
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        self.read(|g| g.get())
    }

    /// Sum over all children (e.g. fleet-wide queue depth).
    pub fn total(&self) -> f64 {
        self.snapshot().iter().map(|(_, v)| v).sum()
    }
}

impl HistogramFamily {
    /// Every child's `(label value, snapshot)`, in label order.
    pub fn snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        self.read(|h| h.snapshot())
    }

    /// All children merged into one snapshot (exact: identical layouts).
    pub fn merged(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::new();
        for (_, snap) in self.snapshot() {
            out.merge(&snap);
        }
        out
    }
}

/// The family's `# TYPE` line, then every child's sample lines.
fn render_family<M: Kind>(family: &Family<M>, out: &mut String, name: &str) {
    let _ = writeln!(out, "# TYPE {name} {}", M::TYPE);
    for (value, child) in family.children() {
        let labels = match &family.label {
            Some(key) => format!("{key}=\"{}\"", escape_label(&value)),
            None => String::new(),
        };
        child.render(out, name, &labels);
    }
}

/// A plain metric's value, or a family's object keyed by label value.
fn family_json<M: Kind>(family: &Family<M>) -> Json {
    match family.label {
        None => family.with("").json(),
        Some(_) => Json::Obj(family.read(|child| child.json())),
    }
}

/// A metric kind: where its families sit in [`Metric`], and how one child
/// renders ([`render_family`], [`family_json`]).
trait Kind: Default {
    /// The kind as a registration conflict names it.
    const NAME: &'static str;
    /// The kind's `# TYPE` in the text exposition.
    const TYPE: &'static str;
    fn metric(family: Arc<Family<Self>>) -> Metric;
    fn family(metric: &Metric) -> Option<&Arc<Family<Self>>>;
    /// Append the child's sample lines; `labels` is its `key="value"`,
    /// empty for a plain metric.
    fn render(&self, out: &mut String, name: &str, labels: &str);
    fn json(&self) -> Json;
}

/// `{labels}`, or nothing for a plain metric.
fn braced(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

impl Kind for Counter {
    const NAME: &'static str = "counter";
    const TYPE: &'static str = "counter";
    fn metric(family: Arc<CounterFamily>) -> Metric {
        Metric::Counter(family)
    }
    fn family(metric: &Metric) -> Option<&Arc<CounterFamily>> {
        match metric {
            Metric::Counter(f) => Some(f),
            _ => None,
        }
    }
    fn render(&self, out: &mut String, name: &str, labels: &str) {
        let _ = writeln!(out, "{name}{} {}", braced(labels), self.get());
    }
    fn json(&self) -> Json {
        Json::Num(self.get() as f64)
    }
}

impl Kind for Gauge {
    const NAME: &'static str = "gauge";
    const TYPE: &'static str = "gauge";
    fn metric(family: Arc<GaugeFamily>) -> Metric {
        Metric::Gauge(family)
    }
    fn family(metric: &Metric) -> Option<&Arc<GaugeFamily>> {
        match metric {
            Metric::Gauge(f) => Some(f),
            _ => None,
        }
    }
    fn render(&self, out: &mut String, name: &str, labels: &str) {
        let _ = writeln!(out, "{name}{} {}", braced(labels), self.get());
    }
    fn json(&self) -> Json {
        Json::Num(self.get())
    }
}

/// A histogram renders as a summary: one `name{quantile="…"}` line per
/// entry of [`QUANTILES`], `name_sum`, `name_count`, then one
/// `name_exemplar` line per stored exemplar.
impl Kind for Histogram {
    const NAME: &'static str = "histogram";
    const TYPE: &'static str = "summary";
    fn metric(family: Arc<HistogramFamily>) -> Metric {
        Metric::Histogram(family)
    }
    fn family(metric: &Metric) -> Option<&Arc<HistogramFamily>> {
        match metric {
            Metric::Histogram(f) => Some(f),
            _ => None,
        }
    }
    fn render(&self, out: &mut String, name: &str, labels: &str) {
        let snap = self.snapshot();
        let sep = if labels.is_empty() { "" } else { "," };
        for q in QUANTILES {
            let v = snap.quantile(q).unwrap_or(f64::NAN);
            let _ = writeln!(out, "{name}{{{labels}{sep}quantile=\"{q}\"}} {v}");
        }
        let _ = writeln!(out, "{name}_sum{} {}", braced(labels), snap.sum());
        let _ = writeln!(out, "{name}_count{} {}", braced(labels), snap.count());
        for (bucket, ex) in self.exemplars() {
            let _ = writeln!(
                out,
                "{name}_exemplar{{{labels}{sep}bucket=\"{bucket}\",trace_id=\"{}\"}} {}",
                ex.trace_hex(),
                ex.value
            );
        }
    }
    /// Count and sum; min, max and mean when not empty; the
    /// [`QUANTILES`] as `"p50"` … `"p999"`; and an `"exemplars"` array
    /// only when the histogram holds exemplars.
    fn json(&self) -> Json {
        let snap = self.snapshot();
        let mut obj = vec![
            ("count".to_string(), Json::Num(snap.count() as f64)),
            ("sum".to_string(), Json::Num(snap.sum())),
        ];
        if let (Some(min), Some(max), Some(mean)) = (snap.min(), snap.max(), snap.mean()) {
            obj.push(("min".to_string(), Json::Num(min)));
            obj.push(("max".to_string(), Json::Num(max)));
            obj.push(("mean".to_string(), Json::Num(mean)));
        }
        for (q, label) in QUANTILES.iter().zip(QUANTILE_LABELS) {
            if let Some(v) = snap.quantile(*q) {
                obj.push((label.to_string(), Json::Num(v)));
            }
        }
        let exemplars = self.exemplars();
        if !exemplars.is_empty() {
            let exemplars = exemplars.into_iter().map(|(bucket, ex)| {
                Json::Obj(vec![
                    ("bucket".to_string(), Json::Num(bucket as f64)),
                    ("trace_id".to_string(), Json::Str(ex.trace_hex())),
                    ("value".to_string(), Json::Num(ex.value)),
                ])
            });
            obj.push(("exemplars".to_string(), Json::Arr(exemplars.collect())));
        }
        Json::Obj(obj)
    }
}

/// Escape a label value for the text exposition (`\` and `"`).
fn escape_label(value: &str) -> String {
    value.replace('\\', "\\\\").replace('"', "\\\"")
}

enum Metric {
    Counter(Arc<CounterFamily>),
    Gauge(Arc<GaugeFamily>),
    Histogram(Arc<HistogramFamily>),
}

struct Entry {
    help: String,
    metric: Metric,
}

/// The quantiles a histogram exposes, matching the summary lines in
/// [`Registry::render_text`].
pub const QUANTILES: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// JSON field names for [`QUANTILES`], in the same order.
const QUANTILE_LABELS: [&str; 4] = ["p50", "p90", "p99", "p999"];

/// A named collection of metrics. Cheap to clone handles out of; share
/// the registry itself behind an [`Arc`].
#[derive(Default)]
pub struct Registry {
    entries: Mutex<BTreeMap<String, Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter `name`. Panics if `name` is already
    /// registered as a different metric kind (a programming error: two
    /// subsystems disagree about what the name means).
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.family(name, help, None).with("")
    }

    /// Get or create the gauge `name` (same conflict rule as
    /// [`Registry::counter`]).
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.family(name, help, None).with("")
    }

    /// Get or create the histogram `name` (same conflict rule as
    /// [`Registry::counter`]).
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.family(name, help, None).with("")
    }

    /// Get or create the counter family `name` labelled by `label` (same
    /// conflict rule as [`Registry::counter`]; the label key of an existing
    /// family wins).
    pub fn counter_family(&self, name: &str, help: &str, label: &str) -> Arc<CounterFamily> {
        self.family(name, help, Some(label))
    }

    /// Get or create the gauge family `name` labelled by `label` (same
    /// conflict rule as [`Registry::counter_family`]).
    pub fn gauge_family(&self, name: &str, help: &str, label: &str) -> Arc<GaugeFamily> {
        self.family(name, help, Some(label))
    }

    /// Get or create the histogram family `name` labelled by `label`
    /// (same conflict rule as [`Registry::counter_family`]).
    pub fn histogram_family(&self, name: &str, help: &str, label: &str) -> Arc<HistogramFamily> {
        self.family(name, help, Some(label))
    }

    /// Get or create the family `name` of kind `M`, unlabelled when
    /// `label` is `None`. A name registered as another kind, or as a
    /// family where a plain metric is asked for (or the reverse), panics.
    fn family<M: Kind>(&self, name: &str, help: &str, label: Option<&str>) -> Arc<Family<M>> {
        let mut entries = self.lock();
        let e = entries.entry(name.to_string()).or_insert_with(|| Entry {
            help: help.to_string(),
            metric: M::metric(Arc::new(Family {
                label: label.map(str::to_string),
                children: Mutex::default(),
            })),
        });
        match M::family(&e.metric) {
            Some(f) if f.label.is_some() == label.is_some() => f.clone(),
            _ => {
                let family = if label.is_some() { "-family" } else { "" };
                panic!("metric `{name}` is registered as a non-{}{family}", M::NAME)
            }
        }
    }

    /// Prometheus-style text exposition. Counters and gauges render one
    /// sample line; histograms render as summaries — one
    /// `name{quantile="…"}` line per entry of [`QUANTILES`] plus
    /// `name_sum` and `name_count`. Families render one such block per
    /// child with the family label prepended. Metrics appear in name
    /// order; family children in label order.
    pub fn render_text(&self) -> String {
        let entries = self.lock();
        let mut out = String::new();
        for (name, e) in entries.iter() {
            let _ = writeln!(out, "# HELP {name} {}", e.help);
            match &e.metric {
                Metric::Counter(f) => render_family(f, &mut out, name),
                Metric::Gauge(f) => render_family(f, &mut out, name),
                Metric::Histogram(f) => render_family(f, &mut out, name),
            }
        }
        out
    }

    /// JSON export: one object keyed by metric name. Counters and gauges
    /// export their value; histograms export count/sum/min/max/mean and
    /// the [`QUANTILES`] (as `"p50"`, `"p90"`, `"p99"`, `"p999"`);
    /// families export one object keyed by label value.
    pub fn to_json(&self) -> Json {
        let entries = self.lock();
        let fields = entries.iter().map(|(name, e)| {
            let value = match &e.metric {
                Metric::Counter(f) => family_json(f),
                Metric::Gauge(f) => family_json(f),
                Metric::Histogram(f) => family_json(f),
            };
            (name.clone(), value)
        });
        Json::Obj(fields.collect())
    }

    /// The current scalar value of the metric `name`, for alert-rule
    /// evaluation over *any* registered metric: counters and counter
    /// families read their (total) count, gauges and gauge families
    /// their (total) value, histograms and histogram families the
    /// `quantile` estimate (default p99) of everything recorded.
    /// `None` when the metric does not exist or the histogram is empty.
    pub fn value(&self, name: &str, quantile: Option<f64>) -> Option<f64> {
        let entries = self.lock();
        match &entries.get(name)?.metric {
            Metric::Counter(f) => Some(f.total() as f64),
            Metric::Gauge(f) => Some(f.total()),
            Metric::Histogram(f) => f.merged().quantile(quantile.unwrap_or(0.99)),
        }
    }

    /// A registered plain histogram's handle, without creating one.
    pub fn find_histogram(&self, name: &str) -> Option<Arc<Histogram>> {
        let entries = self.lock();
        match &entries.get(name)?.metric {
            Metric::Histogram(f) if f.label.is_none() => Some(f.with("")),
            _ => None,
        }
    }

    /// Up to `cap` exemplar trace ids for the metric `name` (a histogram
    /// or histogram family), highest bucket first — the tail end, where
    /// alert-worthy samples live. Used to attach trace links to alert
    /// events.
    pub fn tail_exemplars(&self, name: &str, cap: usize) -> Vec<crate::hist::Exemplar> {
        let entries = self.lock();
        let Some(Metric::Histogram(f)) = entries.get(name).map(|e| &e.metric) else {
            return Vec::new();
        };
        let children = f.read(|h| h.exemplars()).into_iter();
        let mut all: Vec<_> = children.flat_map(|(_, e)| e).collect();
        all.sort_by_key(|(bucket, _)| std::cmp::Reverse(*bucket));
        let mut seen = std::collections::BTreeSet::new();
        all.into_iter()
            .filter(|(_, e)| seen.insert(e.trace_id))
            .take(cap)
            .map(|(_, e)| e)
            .collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Entry>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_get_or_create() {
        let r = Registry::new();
        let a = r.counter("requests_total", "requests");
        let b = r.counter("requests_total", "ignored duplicate help");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "both handles hit the same counter");
    }

    #[test]
    #[should_panic(expected = "non-counter")]
    fn kind_conflicts_panic() {
        let r = Registry::new();
        r.gauge("x", "a gauge");
        r.counter("x", "not a counter");
    }

    #[test]
    fn golden_text_exposition() {
        // The exact exposition format is a contract (scrapers parse it):
        // pin it with a golden string. The histogram holds one distinct
        // value so every quantile is exact and the output is stable.
        let r = Registry::new();
        r.counter("engine_requests_total", "requests accepted")
            .add(7);
        r.gauge("engine_queue_depth", "requests waiting").set(2.5);
        let h = r.histogram("engine_request_seconds", "request latency");
        h.record(2.0);
        h.record(2.0);
        let expected = "\
# HELP engine_queue_depth requests waiting
# TYPE engine_queue_depth gauge
engine_queue_depth 2.5
# HELP engine_request_seconds request latency
# TYPE engine_request_seconds summary
engine_request_seconds{quantile=\"0.5\"} 2
engine_request_seconds{quantile=\"0.9\"} 2
engine_request_seconds{quantile=\"0.99\"} 2
engine_request_seconds{quantile=\"0.999\"} 2
engine_request_seconds_sum 4
engine_request_seconds_count 2
# HELP engine_requests_total requests accepted
# TYPE engine_requests_total counter
engine_requests_total 7
";
        assert_eq!(r.render_text(), expected);
    }

    #[test]
    fn golden_six_kinds_text_and_json() {
        // One metric of each of the six kinds, a label value that needs
        // escaping, and exemplars on a plain histogram and a family child:
        // both the text exposition and the JSON are pinned byte for byte.
        let r = Registry::new();
        r.counter("a_total", "a counter").add(3);
        r.gauge("b_depth", "a gauge").set(-1.25);
        let h = r.histogram("c_seconds", "a histogram");
        h.record(0.5);
        h.record_with_exemplar(0.5, 0xabc);
        let requests = r.counter_family("d_total", "a counter family", "workload");
        requests.with("say \"hi\" \\ bye").add(2);
        requests.with("bfs").inc();
        let depth = r.gauge_family("e_depth", "a gauge family", "shard");
        depth.with("1").set(4.0);
        depth.with("0").set(0.5);
        let lat = r.histogram_family("f_seconds", "a histogram family", "tenant");
        lat.with("t1").record(2.0);
        lat.with("t1").record_with_exemplar(2.0, 0xdef);
        lat.with("t0").record(0.25);
        let text = "\
# HELP a_total a counter
# TYPE a_total counter
a_total 3
# HELP b_depth a gauge
# TYPE b_depth gauge
b_depth -1.25
# HELP c_seconds a histogram
# TYPE c_seconds summary
c_seconds{quantile=\"0.5\"} 0.5
c_seconds{quantile=\"0.9\"} 0.5
c_seconds{quantile=\"0.99\"} 0.5
c_seconds{quantile=\"0.999\"} 0.5
c_seconds_sum 1
c_seconds_count 2
c_seconds_exemplar{bucket=\"233\",trace_id=\"00000000000000000000000000000abc\"} 0.5
# HELP d_total a counter family
# TYPE d_total counter
d_total{workload=\"bfs\"} 1
d_total{workload=\"say \\\"hi\\\" \\\\ bye\"} 2
# HELP e_depth a gauge family
# TYPE e_depth gauge
e_depth{shard=\"0\"} 0.5
e_depth{shard=\"1\"} 4
# HELP f_seconds a histogram family
# TYPE f_seconds summary
f_seconds{tenant=\"t0\",quantile=\"0.5\"} 0.25
f_seconds{tenant=\"t0\",quantile=\"0.9\"} 0.25
f_seconds{tenant=\"t0\",quantile=\"0.99\"} 0.25
f_seconds{tenant=\"t0\",quantile=\"0.999\"} 0.25
f_seconds_sum{tenant=\"t0\"} 0.25
f_seconds_count{tenant=\"t0\"} 1
f_seconds{tenant=\"t1\",quantile=\"0.5\"} 2
f_seconds{tenant=\"t1\",quantile=\"0.9\"} 2
f_seconds{tenant=\"t1\",quantile=\"0.99\"} 2
f_seconds{tenant=\"t1\",quantile=\"0.999\"} 2
f_seconds_sum{tenant=\"t1\"} 4
f_seconds_count{tenant=\"t1\"} 2
f_seconds_exemplar{tenant=\"t1\",bucket=\"249\",trace_id=\"00000000000000000000000000000def\"} 2
";
        assert_eq!(r.render_text(), text);
        let json = concat!(
            r#"{"a_total":3,"b_depth":-1.25,"#,
            r#""c_seconds":{"count":2,"sum":1,"min":0.5,"max":0.5,"mean":0.5,"#,
            r#""p50":0.5,"p90":0.5,"p99":0.5,"p999":0.5,"#,
            r#""exemplars":[{"bucket":233,"trace_id":"00000000000000000000000000000abc","value":0.5}]},"#,
            r#""d_total":{"bfs":1,"say \"hi\" \\ bye":2},"#,
            r#""e_depth":{"0":0.5,"1":4},"#,
            r#""f_seconds":{"t0":{"count":1,"sum":0.25,"min":0.25,"max":0.25,"mean":0.25,"#,
            r#""p50":0.25,"p90":0.25,"p99":0.25,"p999":0.25},"#,
            r#""t1":{"count":2,"sum":4,"min":2,"max":2,"mean":2,"p50":2,"p90":2,"p99":2,"p999":2,"#,
            r#""exemplars":[{"bucket":249,"trace_id":"00000000000000000000000000000def","value":2}]}}}"#,
        );
        assert_eq!(r.to_json().render(), json);
    }

    #[test]
    fn empty_histogram_renders_nan_quantiles() {
        let r = Registry::new();
        r.histogram("h", "empty");
        let text = r.render_text();
        assert!(text.contains("h{quantile=\"0.5\"} NaN"), "{text}");
        assert!(text.contains("h_count 0"), "{text}");
    }

    #[test]
    fn counter_family_renders_one_line_per_child() {
        let r = Registry::new();
        let shed = r.counter_family("engine_shed_total", "sheds by workload", "workload");
        shed.with("bfs").add(3);
        shed.with("spmv").inc();
        shed.with("bfs").inc(); // same child again
        assert_eq!(shed.total(), 5);
        let text = r.render_text();
        assert!(text.contains("# TYPE engine_shed_total counter"), "{text}");
        assert!(
            text.contains("engine_shed_total{workload=\"bfs\"} 4"),
            "{text}"
        );
        assert!(
            text.contains("engine_shed_total{workload=\"spmv\"} 1"),
            "{text}"
        );
        let j = r.to_json();
        let fam = j.get("engine_shed_total").expect("family object");
        assert_eq!(fam.get("bfs").and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn histogram_family_merged_equals_children() {
        let r = Registry::new();
        let lat = r.histogram_family("lat", "latency by workload", "workload");
        for i in 1..=50 {
            lat.with("a").record(i as f64);
        }
        for i in 51..=100 {
            lat.with("b").record(i as f64);
        }
        let merged = lat.merged();
        assert_eq!(merged.count(), 100);
        assert_eq!(merged.min(), Some(1.0));
        assert_eq!(merged.max(), Some(100.0));
        let text = r.render_text();
        assert!(
            text.contains("lat{workload=\"a\",quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(text.contains("lat_count{workload=\"b\"} 50"), "{text}");
    }

    #[test]
    fn gauge_family_renders_one_line_per_child() {
        let r = Registry::new();
        let depth = r.gauge_family("serve_shard_queue_depth", "queue depth by shard", "shard");
        depth.with("0").set(3.0);
        depth.with("1").set(1.5);
        depth.with("0").set(4.0); // same child: last set wins
        assert_eq!(depth.total(), 5.5);
        assert_eq!(depth.label(), "shard");
        let text = r.render_text();
        assert!(
            text.contains("# TYPE serve_shard_queue_depth gauge"),
            "{text}"
        );
        assert!(
            text.contains("serve_shard_queue_depth{shard=\"0\"} 4"),
            "{text}"
        );
        assert!(
            text.contains("serve_shard_queue_depth{shard=\"1\"} 1.5"),
            "{text}"
        );
        let j = r.to_json();
        let fam = j.get("serve_shard_queue_depth").expect("family object");
        assert_eq!(fam.get("1").and_then(Json::as_f64), Some(1.5));
    }

    #[test]
    #[should_panic(expected = "non-gauge-family")]
    fn gauge_family_kind_conflicts_panic() {
        let r = Registry::new();
        r.gauge("x", "a gauge");
        r.gauge_family("x", "not a family", "k");
    }

    #[test]
    fn label_values_are_escaped_in_text() {
        let r = Registry::new();
        r.counter_family("c", "family", "k").with("a\"b\\c").inc();
        let text = r.render_text();
        assert!(text.contains("c{k=\"a\\\"b\\\\c\"} 1"), "{text}");
    }

    #[test]
    #[should_panic(expected = "non-counter-family")]
    fn family_kind_conflicts_panic() {
        let r = Registry::new();
        r.counter("x", "a counter");
        r.counter_family("x", "not a family", "k");
    }

    #[test]
    fn exemplars_render_in_text_and_json() {
        // A golden-format check for the exemplar lines: they follow the
        // summary block and carry bucket + trace_id labels. Histograms
        // without exemplars render exactly as before (the main golden
        // test above covers that).
        let r = Registry::new();
        let h = r.histogram("lat_seconds", "latency");
        h.record(2.0);
        h.record_with_exemplar(2.0, 0xabcd);
        let text = r.render_text();
        let expected_line = format!(
            "lat_seconds_exemplar{{bucket=\"{}\",trace_id=\"{:032x}\"}} 2",
            h.exemplars()[0].0,
            0xabcd_u128
        );
        assert!(text.contains(&expected_line), "{text}");
        let j = r.to_json();
        let ex = j
            .get("lat_seconds")
            .and_then(|h| h.get("exemplars"))
            .and_then(Json::as_arr)
            .expect("exemplars array");
        assert_eq!(
            ex[0].get("trace_id").and_then(Json::as_str),
            Some(format!("{:032x}", 0xabcd_u128).as_str())
        );
        // Family children carry exemplars too, with the family label first.
        let fam = r.histogram_family("lat_by_workload", "latency by workload", "workload");
        fam.with("spmv").record_with_exemplar(0.5, 0x77);
        let text = r.render_text();
        assert!(
            text.contains("lat_by_workload_exemplar{workload=\"spmv\",bucket="),
            "{text}"
        );
    }

    #[test]
    fn value_reads_any_metric_kind() {
        let r = Registry::new();
        r.counter("c", "counter").add(3);
        r.gauge("g", "gauge").set(1.5);
        let h = r.histogram("h", "hist");
        for i in 1..=100 {
            h.record(i as f64);
        }
        r.counter_family("cf", "family", "k").with("a").add(2);
        r.gauge_family("gf", "family", "k").with("a").set(4.0);
        r.histogram_family("hf", "family", "k")
            .with("a")
            .record(7.0);
        assert_eq!(r.value("c", None), Some(3.0));
        assert_eq!(r.value("g", None), Some(1.5));
        assert_eq!(r.value("h", Some(0.0)), Some(1.0));
        assert!(
            r.value("h", None).unwrap() > 90.0,
            "default quantile is p99"
        );
        assert_eq!(r.value("cf", None), Some(2.0));
        assert_eq!(r.value("gf", None), Some(4.0));
        assert_eq!(r.value("hf", Some(1.0)), Some(7.0));
        assert_eq!(r.value("missing", None), None);
        assert_eq!(r.value("h2", None), None);
    }

    #[test]
    fn tail_exemplars_prefer_high_buckets() {
        let r = Registry::new();
        let h = r.histogram("lat", "latency");
        h.record_with_exemplar(0.001, 0x1);
        h.record_with_exemplar(0.100, 0x2);
        h.record_with_exemplar(10.0, 0x3);
        let tail = r.tail_exemplars("lat", 2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].trace_id, 0x3, "highest bucket first");
        assert_eq!(tail[1].trace_id, 0x2);
        assert!(r.tail_exemplars("missing", 4).is_empty());
        assert!(r.find_histogram("lat").is_some());
        assert!(r.find_histogram("missing").is_none());
        // Families pool exemplars across children.
        let fam = r.histogram_family("lat_w", "by workload", "workload");
        fam.with("a").record_with_exemplar(5.0, 0x10);
        fam.with("b").record_with_exemplar(0.5, 0x11);
        let tail = r.tail_exemplars("lat_w", 4);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].trace_id, 0x10);
    }

    #[test]
    fn json_export_shape() {
        let r = Registry::new();
        r.counter("c", "counter").add(3);
        r.gauge("g", "gauge").set(1.5);
        let h = r.histogram("h", "hist");
        for i in 1..=100 {
            h.record(i as f64);
        }
        let j = r.to_json();
        assert_eq!(j.get("c").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("g").and_then(Json::as_f64), Some(1.5));
        let hj = j.get("h").expect("histogram object");
        assert_eq!(hj.get("count").and_then(Json::as_u64), Some(100));
        assert!(hj.get("p99").and_then(Json::as_f64).is_some());
        // The export is valid JSON end to end.
        Json::parse(&j.render()).expect("round-trips");
    }
}
