//! SLO definitions, error-budget accounting, and multi-window burn rates.
//!
//! An [`Slo`] states two objectives over a service:
//!
//! * **availability** — at least `availability` of all requests succeed
//!   (a shed, deadline miss, or failure is an availability violation);
//! * **latency** — at least `latency.quantile` of *successful* requests
//!   complete within `latency.threshold` seconds (failed requests are
//!   charged to the availability budget, not double-counted here).
//!
//! An [`SloTracker`] accumulates outcomes into explicit windows, rotated
//! by the caller: call [`SloTracker::rotate`] on whatever cadence you
//! like — once per second, once per round — and the tracker retains the
//! last `windows` rotations, each with its own latency histogram
//! snapshot.
//! Everything derived is a pure function of the retained counts, so every
//! number the dashboard shows can be recomputed by hand from the window
//! totals:
//!
//! * **error budget** — over the retained horizon, the budget is the
//!   `(1 - objective)` fraction of requests allowed to be bad;
//!   [`SloStatus`] reports the fraction of that budget consumed (may
//!   exceed 1 when the SLO is blown);
//! * **burn rate** — `bad_fraction / (1 - objective)` over a trailing
//!   span of windows: `1.0` means errors arrive exactly at the budgeted
//!   rate, `2.0` means the budget burns twice as fast as it accrues.
//!   [`SloTracker::burn_rate`] takes the span, so callers implement
//!   multi-window alerts (fast window high AND slow window high) by
//!   asking for two spans.

use crate::hist::HistogramSnapshot;
use multidim_trace::json::Json;
use std::collections::VecDeque;
use std::sync::Mutex;

/// The latency half of an SLO: `quantile` of successful requests must
/// finish within `threshold` seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyObjective {
    /// Target quantile in `(0, 1)`, e.g. `0.99`.
    pub quantile: f64,
    /// Latency threshold in seconds.
    pub threshold: f64,
}

/// A service-level objective: an availability target plus a latency
/// target.
#[derive(Debug, Clone, PartialEq)]
pub struct Slo {
    /// Objective name (labels dashboards and reports).
    pub name: String,
    /// Fraction of all requests that must succeed, e.g. `0.99`.
    pub availability: f64,
    /// Latency objective over successful requests.
    pub latency: LatencyObjective,
}

impl Slo {
    /// A conventional "three nines availability, p99 under `threshold`"
    /// objective.
    pub fn new(name: &str, availability: f64, p99_threshold_seconds: f64) -> Slo {
        Slo {
            name: name.to_string(),
            availability,
            latency: LatencyObjective {
                quantile: 0.99,
                threshold: p99_threshold_seconds,
            },
        }
    }
}

/// One rotation's worth of outcomes.
#[derive(Debug, Clone, Default)]
struct Window {
    /// All requests observed (success or not).
    total: u64,
    /// Requests that failed (shed, expired, errored).
    errors: u64,
    /// Successful requests slower than the latency threshold.
    slow: u64,
    /// Latencies of successful requests.
    latency: HistogramSnapshot,
}

impl Window {
    fn merge(&mut self, other: &Window) {
        self.total += other.total;
        self.errors += other.errors;
        self.slow += other.slow;
        self.latency.merge(&other.latency);
    }
}

/// Burn rates over a trailing span of windows. A rate of `1.0` consumes
/// the error budget exactly as fast as it accrues; `None` fields mean the
/// span held no eligible samples.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnRate {
    /// Windows the span covered (capped at the retained count).
    pub windows: usize,
    /// Requests in the span.
    pub samples: u64,
    /// `error_fraction / (1 - availability objective)`.
    pub availability: Option<f64>,
    /// `slow_fraction / (1 - latency quantile)`, over successes.
    pub latency: Option<f64>,
}

/// Point-in-time SLO report over the full retained horizon. Produced by
/// [`SloTracker::status`]; renders as a text dashboard block
/// ([`SloStatus::render_text`]) or JSON ([`SloStatus::to_json`]).
#[derive(Debug, Clone)]
pub struct SloStatus {
    /// The objective being reported.
    pub slo: Slo,
    /// Retained windows contributing to the horizon.
    pub windows: usize,
    /// Requests in the horizon.
    pub samples: u64,
    /// Failed requests in the horizon.
    pub errors: u64,
    /// Successful-but-slow requests in the horizon.
    pub slow: u64,
    /// Observed availability (`None` when no samples).
    pub availability: Option<f64>,
    /// Observed fraction of successes within the latency threshold.
    pub latency_compliance: Option<f64>,
    /// Observed latency at the objective's quantile, in seconds.
    pub observed_quantile: Option<f64>,
    /// Fraction of the availability error budget consumed (may exceed 1).
    pub availability_budget_consumed: Option<f64>,
    /// Fraction of the latency error budget consumed (may exceed 1).
    pub latency_budget_consumed: Option<f64>,
    /// Burn rates over the fast (most recent window) and slow (full
    /// horizon) spans, in that order.
    pub burn: Vec<BurnRate>,
}

impl SloStatus {
    /// Serialize the status.
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
        let burn = self
            .burn
            .iter()
            .map(|b| {
                Json::Obj(vec![
                    ("windows".to_string(), Json::Num(b.windows as f64)),
                    ("samples".to_string(), Json::Num(b.samples as f64)),
                    ("availability".to_string(), opt(b.availability)),
                    ("latency".to_string(), opt(b.latency)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("slo".to_string(), Json::Str(self.slo.name.clone())),
            (
                "availability_objective".to_string(),
                Json::Num(self.slo.availability),
            ),
            (
                "latency_quantile".to_string(),
                Json::Num(self.slo.latency.quantile),
            ),
            (
                "latency_threshold_seconds".to_string(),
                Json::Num(self.slo.latency.threshold),
            ),
            ("windows".to_string(), Json::Num(self.windows as f64)),
            ("samples".to_string(), Json::Num(self.samples as f64)),
            ("errors".to_string(), Json::Num(self.errors as f64)),
            ("slow".to_string(), Json::Num(self.slow as f64)),
            ("availability".to_string(), opt(self.availability)),
            (
                "latency_compliance".to_string(),
                opt(self.latency_compliance),
            ),
            (
                "observed_quantile_seconds".to_string(),
                opt(self.observed_quantile),
            ),
            (
                "availability_budget_consumed".to_string(),
                opt(self.availability_budget_consumed),
            ),
            (
                "latency_budget_consumed".to_string(),
                opt(self.latency_budget_consumed),
            ),
            ("burn_rates".to_string(), Json::Arr(burn)),
        ])
    }

    /// Multi-line text dashboard block.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let pct = |v: Option<f64>| match v {
            Some(v) => format!("{:.3}%", v * 100.0),
            None => "-".to_string(),
        };
        let num = |v: Option<f64>| match v {
            Some(v) => format!("{v:.2}"),
            None => "-".to_string(),
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "SLO {}: availability >= {:.3}%, p{:.0} <= {:.1} ms",
            self.slo.name,
            self.slo.availability * 100.0,
            self.slo.latency.quantile * 100.0,
            self.slo.latency.threshold * 1e3,
        );
        let _ = writeln!(
            out,
            "  horizon        {} windows, {} requests ({} errors, {} slow)",
            self.windows, self.samples, self.errors, self.slow
        );
        let _ = writeln!(
            out,
            "  availability   {}  (budget consumed {})",
            pct(self.availability),
            pct(self.availability_budget_consumed),
        );
        let _ = writeln!(
            out,
            "  latency        {} within {:.1} ms, p{:.0} = {} ms  (budget consumed {})",
            pct(self.latency_compliance),
            self.slo.latency.threshold * 1e3,
            self.slo.latency.quantile * 100.0,
            match self.observed_quantile {
                Some(v) => format!("{:.2}", v * 1e3),
                None => "-".to_string(),
            },
            pct(self.latency_budget_consumed),
        );
        for b in &self.burn {
            let _ = writeln!(
                out,
                "  burn rate      {:>2}-window span: availability {}x, latency {}x ({} samples)",
                b.windows,
                num(b.availability),
                num(b.latency),
                b.samples
            );
        }
        out
    }
}

/// Thread-safe SLO accounting over explicit windows. Record outcomes with
/// [`SloTracker::record`], rotate on your own cadence, read with
/// [`SloTracker::status`] / [`SloTracker::burn_rate`].
pub struct SloTracker {
    slo: Slo,
    inner: Mutex<Tracker>,
}

struct Tracker {
    windows: VecDeque<Window>,
    capacity: usize,
}

impl SloTracker {
    /// A tracker retaining the last `windows` rotations (at least 1).
    pub fn new(slo: Slo, windows: usize) -> SloTracker {
        let mut q = VecDeque::new();
        q.push_back(Window::default());
        SloTracker {
            slo,
            inner: Mutex::new(Tracker {
                windows: q,
                capacity: windows.max(1),
            }),
        }
    }

    /// The objective this tracker accounts against.
    pub fn slo(&self) -> &Slo {
        &self.slo
    }

    /// Record one request outcome into the current window. `success`
    /// means the request was served; `latency_seconds` is only consulted
    /// (and only recorded) for successful requests.
    pub fn record(&self, latency_seconds: f64, success: bool) {
        let mut t = self.lock();
        let w = t.windows.back_mut().expect("at least one window");
        w.total += 1;
        if success {
            if latency_seconds > self.slo.latency.threshold {
                w.slow += 1;
            }
            w.latency.record(latency_seconds);
        } else {
            w.errors += 1;
        }
    }

    /// Start a fresh window, dropping the oldest beyond capacity.
    pub fn rotate(&self) {
        let mut t = self.lock();
        t.windows.push_back(Window::default());
        while t.windows.len() > t.capacity {
            t.windows.pop_front();
        }
    }

    /// Burn rates over the most recent `span` windows (capped at the
    /// retained count; `span` 0 is treated as 1).
    pub fn burn_rate(&self, span: usize) -> BurnRate {
        let t = self.lock();
        let span = span.clamp(1, t.windows.len());
        let mut merged = Window::default();
        for w in t.windows.iter().rev().take(span) {
            merged.merge(w);
        }
        burn_of(&merged, &self.slo, span)
    }

    /// Full status over every retained window, including fast
    /// (single-window) and slow (full-horizon) burn rates.
    pub fn status(&self) -> SloStatus {
        let t = self.lock();
        let windows = t.windows.len();
        let mut horizon = Window::default();
        for w in &t.windows {
            horizon.merge(w);
        }
        let mut last = Window::default();
        if let Some(w) = t.windows.back() {
            last.merge(w);
        }
        drop(t);

        let successes = horizon.total - horizon.errors;
        let availability = ratio(successes, horizon.total);
        let latency_compliance = ratio(successes - horizon.slow, successes);
        let burn = vec![
            burn_of(&last, &self.slo, 1),
            burn_of(&horizon, &self.slo, windows),
        ];
        SloStatus {
            slo: self.slo.clone(),
            windows,
            samples: horizon.total,
            errors: horizon.errors,
            slow: horizon.slow,
            availability,
            latency_compliance,
            observed_quantile: horizon.latency.quantile(self.slo.latency.quantile),
            availability_budget_consumed: budget_consumed(
                horizon.errors,
                horizon.total,
                self.slo.availability,
            ),
            latency_budget_consumed: budget_consumed(
                horizon.slow,
                successes,
                self.slo.latency.quantile,
            ),
            burn,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Tracker> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// `bad / (allowed_bad_fraction * total)`: the fraction of the error
/// budget consumed over a horizon. `None` when the horizon is empty or
/// the objective allows nothing (budget 0 with 0 bad is vacuously fine;
/// budget 0 with bad > 0 reports infinity).
fn budget_consumed(bad: u64, total: u64, objective: f64) -> Option<f64> {
    if total == 0 {
        return None;
    }
    let budget = (1.0 - objective) * total as f64;
    if budget <= 0.0 {
        return (bad > 0).then_some(f64::INFINITY);
    }
    Some(bad as f64 / budget)
}

fn burn_of(w: &Window, slo: &Slo, span: usize) -> BurnRate {
    let successes = w.total - w.errors;
    let availability =
        ratio(w.errors, w.total).map(|error_rate| burn_ratio(error_rate, 1.0 - slo.availability));
    let latency =
        ratio(w.slow, successes).map(|slow_rate| burn_ratio(slow_rate, 1.0 - slo.latency.quantile));
    BurnRate {
        windows: span,
        samples: w.total,
        availability,
        latency,
    }
}

fn burn_ratio(bad_rate: f64, allowed: f64) -> f64 {
    if allowed <= 0.0 {
        if bad_rate > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        bad_rate / allowed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slo99() -> Slo {
        // Availability 99%, p90 <= 10 ms: round numbers so every expected
        // value below is hand-computable.
        Slo {
            name: "test".to_string(),
            availability: 0.99,
            latency: LatencyObjective {
                quantile: 0.9,
                threshold: 0.010,
            },
        }
    }

    #[test]
    fn burn_rate_matches_hand_computation() {
        let t = SloTracker::new(slo99(), 4);
        // 100 requests: 2 errors, 98 successes of which 20 are slow.
        for i in 0..100 {
            if i < 2 {
                t.record(0.0, false);
            } else if i < 22 {
                t.record(0.050, true); // slow: 50 ms > 10 ms
            } else {
                t.record(0.001, true);
            }
        }
        let b = t.burn_rate(1);
        assert_eq!(b.samples, 100);
        // error rate 2/100 = 0.02; allowed 0.01 → burn 2.0 exactly.
        assert!((b.availability.unwrap() - 2.0).abs() < 1e-12);
        // slow rate 20/98; allowed 0.1 → burn 200/98.
        assert!((b.latency.unwrap() - 200.0 / 98.0).abs() < 1e-12);
    }

    #[test]
    fn multi_window_burn_separates_fast_and_slow() {
        let t = SloTracker::new(slo99(), 3);
        // Window 1: clean. Window 2: clean. Window 3: on fire.
        for _ in 0..100 {
            t.record(0.001, true);
        }
        t.rotate();
        for _ in 0..100 {
            t.record(0.001, true);
        }
        t.rotate();
        for i in 0..100 {
            t.record(0.001, i % 10 != 0); // 10 errors
        }
        let fast = t.burn_rate(1);
        let slow = t.burn_rate(3);
        // Fast: 10/100 error rate over 0.01 → 10x.
        assert!((fast.availability.unwrap() - 10.0).abs() < 1e-12);
        // Slow: 10/300 over 0.01 → 10/3 x.
        assert!((slow.availability.unwrap() - 10.0 / 3.0).abs() < 1e-9);
        // A span beyond the retained horizon clamps.
        assert_eq!(t.burn_rate(99).windows, 3);
    }

    #[test]
    fn budget_consumption_and_status() {
        let t = SloTracker::new(slo99(), 2);
        // 200 requests, 1 error: budget is 2 allowed errors → half consumed.
        t.record(0.0, false);
        for _ in 0..199 {
            t.record(0.001, true);
        }
        let s = t.status();
        assert_eq!(s.samples, 200);
        assert_eq!(s.errors, 1);
        assert!((s.availability.unwrap() - 199.0 / 200.0).abs() < 1e-12);
        assert!((s.availability_budget_consumed.unwrap() - 0.5).abs() < 1e-12);
        // No slow successes: latency budget untouched, compliance 1.
        assert_eq!(s.latency_budget_consumed, Some(0.0));
        assert_eq!(s.latency_compliance, Some(1.0));
        // Status carries fast + slow burn spans.
        assert_eq!(s.burn.len(), 2);
        assert_eq!(s.burn[0].windows, 1);
        assert_eq!(s.burn[1].windows, 1); // only one window retained so far
        let text = s.render_text();
        assert!(text.contains("budget consumed 50.000%"), "{text}");
        multidim_trace::json::Json::parse(&s.to_json().render()).expect("valid JSON");
    }

    #[test]
    fn empty_tracker_reports_none_not_zero() {
        let t = SloTracker::new(slo99(), 2);
        let s = t.status();
        assert_eq!(s.availability, None);
        assert_eq!(s.availability_budget_consumed, None);
        assert_eq!(s.burn[0].availability, None);
        assert!(s.render_text().contains('-'));
    }

    #[test]
    fn rotation_ages_out_old_windows() {
        let t = SloTracker::new(slo99(), 2);
        for _ in 0..50 {
            t.record(0.0, false); // catastrophic first window
        }
        t.rotate();
        for _ in 0..100 {
            t.record(0.001, true);
        }
        assert_eq!(t.status().errors, 50, "both windows retained");
        t.rotate();
        for _ in 0..100 {
            t.record(0.001, true);
        }
        let s = t.status();
        assert_eq!(s.errors, 0, "the bad window aged out");
        assert_eq!(s.samples, 200);
    }

    #[test]
    fn perfect_objective_burns_infinitely_on_any_error() {
        let mut slo = slo99();
        slo.availability = 1.0; // no budget at all
        let t = SloTracker::new(slo, 1);
        t.record(0.001, true);
        assert_eq!(t.burn_rate(1).availability, Some(0.0));
        t.record(0.0, false);
        assert_eq!(t.burn_rate(1).availability, Some(f64::INFINITY));
    }
}
