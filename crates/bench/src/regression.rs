//! The perf-regression gate: compare a fresh `--report` JSON from the
//! throughput bench against the committed `BENCH_baseline.json` and fail
//! when the warm serving path got slower beyond tolerance ([`check`]):
//!
//! * **warm_rps** — warm-path throughput must not fall below
//!   `baseline / tolerance`;
//! * **p99_us** — tail latency must not rise above
//!   `baseline * tolerance`.
//!
//! Load reports (the `load` bin, vs `BENCH_load_baseline.json`) are gated
//! by [`alerts_gate`](crate::alerts_gate) with the same tolerance.
//!
//! The default tolerance is deliberately loose ([`DEFAULT_TOLERANCE`]):
//! the gate runs on shared CI machines where a 20–40% wobble is noise,
//! but a genuine regression (an accidental O(n²) on the hot path, a lost
//! cache) shows up as 2x or worse. Both sides of the ratio are checked
//! from the same report schema the bench writes, so a schema drift fails
//! loudly instead of silently passing.

use multidim_trace::json::Json;

/// Largest tolerated slowdown ratio before the gate fails. `1.8` means
/// warm throughput may drop to 1/1.8 of baseline and p99 may grow 1.8x;
/// a doctored 2x-slower report must always fail.
pub const DEFAULT_TOLERANCE: f64 = 1.8;

/// One gated metric's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    /// Metric key in the report JSON.
    pub metric: &'static str,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Slowdown ratio, oriented so `> tolerance` means regression
    /// (baseline/current for throughput, current/baseline for latency).
    pub slowdown: f64,
    /// Did this metric regress beyond tolerance?
    pub regressed: bool,
}

/// The gate's full verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Per-metric outcomes, in gating order.
    pub checks: Vec<GateCheck>,
    /// Tolerance the checks were evaluated against.
    pub tolerance: f64,
}

impl GateReport {
    /// `true` when no gated metric regressed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| !c.regressed)
    }

    /// Human-readable multi-line summary (one line per metric).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.checks {
            out.push_str(&format!(
                "{:12} baseline {:>12.3}  current {:>12.3}  slowdown {:>6.3}x  [{}]\n",
                c.metric,
                c.baseline,
                c.current,
                c.slowdown,
                if c.regressed { "FAIL" } else { "ok" }
            ));
        }
        out.push_str(&format!("tolerance {:.2}x\n", self.tolerance));
        out
    }
}

pub(crate) fn req_f64(j: &Json, key: &'static str, which: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{which} report: missing number `{key}`"))
}

/// Gate `current` against `baseline` (both are the throughput bench's
/// `--report` JSON). Returns the per-metric verdict; the caller decides
/// the exit code via [`GateReport::passed`].
///
/// # Errors
///
/// Returns a message when either report is missing a gated metric —
/// a missing key is a gate failure, never a silent pass.
pub fn check(baseline: &Json, current: &Json, tolerance: f64) -> Result<GateReport, String> {
    if !(tolerance.is_finite() && tolerance >= 1.0) {
        return Err(format!(
            "tolerance must be a finite ratio >= 1.0, got {tolerance}"
        ));
    }
    let mut checks = Vec::new();

    // Throughput: lower is worse, so the slowdown ratio is base/current.
    let base_rps = req_f64(baseline, "warm_rps", "baseline")?;
    let cur_rps = req_f64(current, "warm_rps", "current")?;
    let rps_slowdown = if cur_rps > 0.0 {
        base_rps / cur_rps
    } else {
        f64::INFINITY
    };
    checks.push(GateCheck {
        metric: "warm_rps",
        baseline: base_rps,
        current: cur_rps,
        slowdown: rps_slowdown,
        regressed: rps_slowdown > tolerance,
    });

    // Tail latency: higher is worse, so the slowdown ratio is current/base.
    let base_p99 = req_f64(baseline, "p99_us", "baseline")?;
    let cur_p99 = req_f64(current, "p99_us", "current")?;
    let p99_slowdown = if base_p99 > 0.0 {
        cur_p99 / base_p99
    } else {
        f64::INFINITY
    };
    checks.push(GateCheck {
        metric: "p99_us",
        baseline: base_p99,
        current: cur_p99,
        slowdown: p99_slowdown,
        regressed: p99_slowdown > tolerance,
    });

    Ok(GateReport { checks, tolerance })
}

/// The report's sample count — completions backing the gated quantiles
/// (`samples` in load reports; `requests * warm_rounds` in warm reports).
pub fn sample_count(report: &Json) -> Option<u64> {
    if let Some(s) = report.get("samples").and_then(Json::as_u64) {
        return Some(s);
    }
    let requests = report.get("requests").and_then(Json::as_u64)?;
    let rounds = report.get("warm_rounds").and_then(Json::as_u64)?;
    Some(requests * rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alerts_gate::{check_alerts, AlertGateReport};

    fn report(warm_rps: f64, p99_us: f64) -> Json {
        Json::Obj(vec![
            ("warm_rps".to_string(), Json::Num(warm_rps)),
            ("p99_us".to_string(), Json::Num(p99_us)),
        ])
    }

    #[test]
    fn identical_reports_pass() {
        let base = report(5000.0, 800.0);
        let gate = check(&base, &base, DEFAULT_TOLERANCE).unwrap();
        assert!(gate.passed(), "{}", gate.render());
        assert_eq!(gate.checks.len(), 2);
        assert!(gate.checks.iter().all(|c| (c.slowdown - 1.0).abs() < 1e-9));
    }

    #[test]
    fn small_wobble_within_tolerance_passes() {
        let base = report(5000.0, 800.0);
        let cur = report(5000.0 / 1.4, 800.0 * 1.4);
        let gate = check(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert!(gate.passed(), "{}", gate.render());
    }

    #[test]
    fn halved_throughput_fails() {
        let base = report(5000.0, 800.0);
        let cur = report(2500.0, 800.0);
        let gate = check(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert!(!gate.passed());
        let rps = &gate.checks[0];
        assert_eq!(rps.metric, "warm_rps");
        assert!(rps.regressed);
        assert!(!gate.checks[1].regressed, "p99 unchanged");
    }

    #[test]
    fn doubled_p99_fails() {
        let base = report(5000.0, 800.0);
        let cur = report(5000.0, 1600.0);
        let gate = check(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert!(!gate.passed());
        assert!(gate.checks[1].regressed);
        assert!(gate.render().contains("FAIL"));
    }

    #[test]
    fn improvement_always_passes() {
        let base = report(5000.0, 800.0);
        let cur = report(20_000.0, 100.0);
        let gate = check(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert!(gate.passed());
    }

    #[test]
    fn missing_metric_is_an_error_not_a_pass() {
        let base = report(5000.0, 800.0);
        let cur = Json::Obj(vec![("warm_rps".to_string(), Json::Num(5000.0))]);
        let err = check(&base, &cur, DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("p99_us"), "error was: {err}");
    }

    #[test]
    fn zero_current_throughput_is_infinite_slowdown() {
        let base = report(5000.0, 800.0);
        let cur = report(0.0, 800.0);
        let gate = check(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert!(gate.checks[0].regressed);
    }

    #[test]
    fn bad_tolerance_is_rejected() {
        let base = report(5000.0, 800.0);
        assert!(check(&base, &base, 0.5).is_err());
        assert!(check(&base, &base, f64::NAN).is_err());
    }

    // Load reports have one gate, `alerts_gate::check_alerts`, at the
    // same tolerance: it must still catch every load regression below.

    fn load_report(p99_us: f64, shed: f64, avail: f64) -> Json {
        Json::Obj(vec![
            ("p99_under_load_us".to_string(), Json::Num(p99_us)),
            ("shed_rate".to_string(), Json::Num(shed)),
            ("availability".to_string(), Json::Num(avail)),
            ("samples".to_string(), Json::Num(1000.0)),
        ])
    }

    fn load_gate(base: &Json, cur: &Json) -> Result<AlertGateReport, String> {
        check_alerts(base, cur, None, DEFAULT_TOLERANCE)
    }

    #[test]
    fn load_identical_reports_pass() {
        let base = load_report(100_000.0, 0.66, 0.33);
        let gate = load_gate(&base, &base).unwrap();
        assert!(gate.passed(), "{}", gate.render());
        assert_eq!(gate.checks.len(), 3);
    }

    #[test]
    fn load_doubled_p99_fails() {
        let base = load_report(100_000.0, 0.66, 0.33);
        let cur = load_report(200_000.0, 0.66, 0.33);
        let gate = load_gate(&base, &cur).unwrap();
        assert!(!gate.passed());
        assert!(gate.checks[0].firing, "{}", gate.render());
        assert!(!gate.checks[1].firing);
        assert!(!gate.checks[2].firing);
    }

    #[test]
    fn load_availability_collapse_fails() {
        // 95% -> 80% triples the unavailability: a page, though the
        // scaled-baseline threshold alone (0.508) would let it pass.
        let base = load_report(100_000.0, 0.05, 0.95);
        let cur = load_report(100_000.0, 0.05, 0.80);
        let gate = load_gate(&base, &cur).unwrap();
        assert!(!gate.passed());
        assert!(gate.checks[2].firing, "{}", gate.render());
    }

    #[test]
    fn load_missing_metric_is_an_error() {
        let base = load_report(100_000.0, 0.66, 0.33);
        let cur = Json::Obj(vec![(
            "p99_under_load_us".to_string(),
            Json::Num(100_000.0),
        )]);
        let err = load_gate(&base, &cur).unwrap_err();
        assert!(err.contains("shed_rate"), "error was: {err}");
    }

    #[test]
    fn schema_detection_and_dispatch() {
        // Each gate reads only its own schema's keys, so a report of the
        // other schema, or of none, is an error and never a pass.
        let warm = report(5000.0, 800.0);
        let load = load_report(100_000.0, 0.5, 0.5);
        let empty = Json::Obj(vec![]);
        assert!(check(&warm, &warm, DEFAULT_TOLERANCE).unwrap().passed());
        assert!(load_gate(&load, &load).unwrap().passed());
        assert!(check(&load, &load, DEFAULT_TOLERANCE).is_err());
        assert!(load_gate(&warm, &warm).is_err());
        assert!(check(&empty, &empty, DEFAULT_TOLERANCE).is_err());
        assert!(load_gate(&empty, &empty).is_err());
    }

    #[test]
    fn sample_counts_from_both_schemas() {
        let load = load_report(100_000.0, 0.5, 0.5);
        assert_eq!(sample_count(&load), Some(1000));
        let warm = Json::Obj(vec![
            ("warm_rps".to_string(), Json::Num(5000.0)),
            ("requests".to_string(), Json::Num(8.0)),
            ("warm_rounds".to_string(), Json::Num(20.0)),
        ]);
        assert_eq!(sample_count(&warm), Some(160));
        assert_eq!(sample_count(&Json::Obj(vec![])), None);
    }
}
