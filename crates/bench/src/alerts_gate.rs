//! The load gate: turn a committed load baseline into page-severity
//! threshold rules, evaluate them against a fresh load report, and scan
//! a run's alert log for page-severity firings.
//!
//! Severity discipline (see [`multidim_obs::alerts`]): overdrive burns
//! SLO budget *on purpose*, so the standing burn-rate rules are tickets
//! and never gate anything. Pages are reserved for regressions relative
//! to the committed `BENCH_load_baseline.json`, and one rule set serves
//! three places:
//!
//! 1. **in-run** — `load --alert-baseline` appends these rules to the
//!    load generator's standing set, so a live regression pages during
//!    the run (with [`PAGE_FOR_CYCLES`] windows of hysteresis);
//! 2. **post-run** — [`check_alerts`] replays the rules against the
//!    finished report's headline numbers;
//! 3. **log scan** — [`check_alerts`] also fails if any page-severity
//!    rule fired *during* the run (`--alerts` log artifact).
//!
//! A missing metric in either report is an error (exit 2 in the
//! `check_alerts` binary), never a silent pass.

use crate::regression::req_f64;
use multidim_obs::{AlertEngine, AlertRule, AlertSeverity, Comparison, Registry, ThresholdRule};
use multidim_trace::json::Json;

/// Consecutive breaching window rotations before a baseline-derived page
/// rule fires in-run — one slow sample window is noise, three is a
/// trend. The post-run gate replays its single static reading this many
/// times so a persistent breach fires exactly as it would live.
pub const PAGE_FOR_CYCLES: u64 = 3;

/// Shed-rate pages cap out just below 1.0: a baseline that already
/// sheds heavily (overdrive pins ~2/3) would otherwise push the
/// threshold above any reachable value, and shedding essentially
/// *everything* is page-worthy regardless.
pub const SHED_RATE_CEILING: f64 = 0.995;

/// Rate floors: a ratio check on a rate divides by
/// `max(baseline_rate, floor)` so a near-zero baseline doesn't turn
/// ordinary wobble into an infinite "slowdown".
pub const SHED_RATE_FLOOR: f64 = 0.02;
/// Floor for the `1 - availability` ratio check (see [`SHED_RATE_FLOOR`]).
pub const UNAVAILABILITY_FLOOR: f64 = 0.01;
/// A rate only breaches once it also moved by more than this absolute
/// slack — a 1% → 2.5% shed rate is a 2.5x ratio but still noise on a
/// short CI run.
pub const SHED_ABS_SLACK: f64 = 0.05;
/// Absolute slack for the availability rule (see [`SHED_ABS_SLACK`]).
pub const AVAILABILITY_ABS_SLACK: f64 = 0.02;

/// The report keys the gate reads — also the gauge names
/// the load generator publishes for in-run evaluation, so one rule set
/// works against both a live registry and a finished report.
pub const GATE_METRICS: [&str; 3] = ["p99_under_load_us", "shed_rate", "availability"];

/// Build the page-severity rule set from a committed load baseline.
/// Each rate threshold is the stricter of two formulas, a ratio over a
/// floored baseline that must also clear an absolute slack, and a
/// scaled baseline plus or minus that slack:
///
/// * `page-p99-under-load` — p99 latency above `baseline * tolerance`
///   (the doctored-2x detector); firing events carry exemplar trace ids
///   from the `load_request_seconds` histogram when evaluated in-run.
/// * `page-shed-rate` — shed rate above the least of
///   `max(max(baseline, floor) * tolerance, baseline + slack)`,
///   `baseline * tolerance + slack` and [`SHED_RATE_CEILING`].
/// * `page-availability` — availability below the greatest of
///   `min(1 - max(1 - baseline, floor) * tolerance, baseline - slack)`,
///   `baseline / tolerance - slack` and 0.
///
/// # Errors
///
/// Returns a message when the baseline is missing a gated metric, its
/// p99 is not positive, or the tolerance is not a finite ratio >= 1.0.
pub fn rules_from_baseline(baseline: &Json, tolerance: f64) -> Result<Vec<AlertRule>, String> {
    if !(tolerance.is_finite() && tolerance >= 1.0) {
        return Err(format!(
            "tolerance must be a finite ratio >= 1.0, got {tolerance}"
        ));
    }
    let p99 = req_f64(baseline, "p99_under_load_us", "baseline")?;
    if p99 <= 0.0 {
        return Err(format!(
            "baseline p99_under_load_us must be positive, got {p99}"
        ));
    }
    let shed = req_f64(baseline, "shed_rate", "baseline")?;
    let avail = req_f64(baseline, "availability", "baseline")?;
    let shed_threshold = (shed.max(SHED_RATE_FLOOR) * tolerance)
        .max(shed + SHED_ABS_SLACK)
        .min(shed * tolerance + SHED_ABS_SLACK)
        .min(SHED_RATE_CEILING);
    let avail_threshold = (1.0 - (1.0 - avail).max(UNAVAILABILITY_FLOOR) * tolerance)
        .min(avail - AVAILABILITY_ABS_SLACK)
        .max(avail / tolerance - AVAILABILITY_ABS_SLACK)
        .max(0.0);
    Ok(vec![
        AlertRule::Threshold(ThresholdRule {
            name: "page-p99-under-load".to_string(),
            severity: AlertSeverity::Page,
            metric: "p99_under_load_us".to_string(),
            quantile: None,
            comparison: Comparison::Above,
            threshold: p99 * tolerance,
            for_cycles: PAGE_FOR_CYCLES,
            exemplar_metric: Some("load_request_seconds".to_string()),
        }),
        AlertRule::Threshold(ThresholdRule {
            name: "page-shed-rate".to_string(),
            severity: AlertSeverity::Page,
            metric: "shed_rate".to_string(),
            quantile: None,
            comparison: Comparison::Above,
            threshold: shed_threshold,
            for_cycles: PAGE_FOR_CYCLES,
            exemplar_metric: None,
        }),
        AlertRule::Threshold(ThresholdRule {
            name: "page-availability".to_string(),
            severity: AlertSeverity::Page,
            metric: "availability".to_string(),
            quantile: None,
            comparison: Comparison::Below,
            threshold: avail_threshold,
            for_cycles: PAGE_FOR_CYCLES,
            exemplar_metric: None,
        }),
    ])
}

/// One baseline-derived rule's verdict against the current report.
#[derive(Debug, Clone)]
pub struct GateRuleCheck {
    /// Rule name.
    pub rule: String,
    /// Report key the rule read.
    pub metric: String,
    /// The current report's value.
    pub value: f64,
    /// The baseline-derived threshold.
    pub threshold: f64,
    /// Did the rule end up firing?
    pub firing: bool,
}

/// The alert gate's full verdict.
#[derive(Debug, Clone)]
pub struct AlertGateReport {
    /// Per-rule outcomes against the current report.
    pub checks: Vec<GateRuleCheck>,
    /// Page-severity rules that fired *during* the run, from the
    /// `--alerts` log artifact (empty when no log was supplied).
    pub run_log_pages: Vec<String>,
    /// Tolerance the thresholds were derived with.
    pub tolerance: f64,
}

impl AlertGateReport {
    /// `true` when no page fired — against the report or during the run.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| !c.firing) && self.run_log_pages.is_empty()
    }

    /// Human-readable multi-line summary (one line per rule).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.checks {
            out.push_str(&format!(
                "{:22} {:18} value {:>12.4}  threshold {:>12.4}  [{}]\n",
                c.rule,
                c.metric,
                c.value,
                c.threshold,
                if c.firing { "PAGE" } else { "ok" }
            ));
        }
        if self.run_log_pages.is_empty() {
            out.push_str("run log: no page-severity alerts fired\n");
        } else {
            out.push_str(&format!(
                "run log: page-severity alerts fired: {}\n",
                self.run_log_pages.join(", ")
            ));
        }
        out.push_str(&format!("tolerance {:.2}x\n", self.tolerance));
        out
    }
}

/// Gate `current` (a finished `load --report` JSON) against `baseline`:
/// derive page rules, replay them over the report's headline numbers,
/// and scan `run_log` (the `--alerts` artifact, a JSON array of alert
/// events) for page-severity firings. The caller decides the exit code
/// via [`AlertGateReport::passed`].
///
/// # Errors
///
/// Returns a message when either report is missing a gated metric or
/// the run log is not a JSON array — never a silent pass.
pub fn check_alerts(
    baseline: &Json,
    current: &Json,
    run_log: Option<&Json>,
    tolerance: f64,
) -> Result<AlertGateReport, String> {
    let rules = rules_from_baseline(baseline, tolerance)?;
    let registry = Registry::new();
    for key in GATE_METRICS {
        registry
            .gauge(key, "alert-gate input from the current report")
            .set(req_f64(current, key, "current")?);
    }
    let mut engine = AlertEngine::new(rules);
    // The gate has one static reading; evaluate past every rule's
    // for_cycles hysteresis so a persistent breach fires exactly as it
    // would against a live run.
    for _ in 0..=PAGE_FOR_CYCLES {
        engine.evaluate(Some(&registry), &[]);
    }
    let firing: Vec<String> = engine.firing().into_iter().map(|(name, _)| name).collect();
    let checks = engine
        .rules()
        .iter()
        .filter_map(|rule| match rule {
            AlertRule::Threshold(r) => Some(GateRuleCheck {
                rule: r.name.clone(),
                metric: r.metric.clone(),
                value: registry.value(&r.metric, r.quantile).unwrap_or(f64::NAN),
                threshold: r.threshold,
                firing: firing.contains(&r.name),
            }),
            AlertRule::Burn(_) => None,
        })
        .collect();

    let mut run_log_pages = Vec::new();
    if let Some(log) = run_log {
        let events = log
            .as_arr()
            .ok_or_else(|| "alert log must be a JSON array of alert events".to_string())?;
        for event in events {
            let page = event.get("severity").and_then(Json::as_str) == Some("page");
            let fired = event.get("state").and_then(Json::as_str) == Some("firing");
            if page && fired {
                run_log_pages.push(
                    event
                        .get("rule")
                        .and_then(Json::as_str)
                        .unwrap_or("<unnamed>")
                        .to_string(),
                );
            }
        }
    }

    Ok(AlertGateReport {
        checks,
        run_log_pages,
        tolerance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regression::DEFAULT_TOLERANCE;

    fn load_report(p99_us: f64, shed: f64, avail: f64) -> Json {
        Json::Obj(vec![
            ("p99_under_load_us".to_string(), Json::Num(p99_us)),
            ("shed_rate".to_string(), Json::Num(shed)),
            ("availability".to_string(), Json::Num(avail)),
        ])
    }

    fn verdict(base: &Json, cur: &Json) -> AlertGateReport {
        check_alerts(base, cur, None, DEFAULT_TOLERANCE).unwrap()
    }

    /// Which of the three rules (p99, shed, availability) fired.
    fn firing(gate: &AlertGateReport) -> [bool; 3] {
        [0, 1, 2].map(|i| gate.checks[i].firing)
    }

    #[test]
    fn baseline_derives_three_page_rules() {
        let base = load_report(92_000.0, 0.64, 0.36);
        let rules = rules_from_baseline(&base, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(rules.len(), 3);
        assert!(rules.iter().all(|r| r.severity() == AlertSeverity::Page));
        let AlertRule::Threshold(p99) = &rules[0] else {
            panic!("threshold rule expected");
        };
        assert!((p99.threshold - 92_000.0 * DEFAULT_TOLERANCE).abs() < 1e-6);
        assert_eq!(
            p99.exemplar_metric.as_deref(),
            Some("load_request_seconds"),
            "the latency page carries trace evidence"
        );
    }

    #[test]
    fn honest_report_passes() {
        let base = load_report(92_301.0, 0.6416, 0.3584);
        let cur = load_report(95_000.0, 0.65, 0.35);
        let gate = check_alerts(&base, &cur, None, DEFAULT_TOLERANCE).unwrap();
        assert!(gate.passed(), "{}", gate.render());
        assert_eq!(gate.checks.len(), 3);
    }

    #[test]
    fn doctored_2x_latency_pages() {
        let base = load_report(92_301.0, 0.6416, 0.3584);
        let cur = load_report(92_301.0 * 2.0, 0.6416, 0.3584);
        let gate = check_alerts(&base, &cur, None, DEFAULT_TOLERANCE).unwrap();
        assert!(!gate.passed());
        let p99 = &gate.checks[0];
        assert!(p99.firing, "{}", gate.render());
        assert_eq!(p99.rule, "page-p99-under-load");
        assert!(!gate.checks[1].firing && !gate.checks[2].firing);
        assert!(gate.render().contains("PAGE"));
    }

    #[test]
    fn doubled_shed_rate_pages() {
        // Baseline sheds 30%; doubling to 60% is a 2x ratio AND 30 points
        // absolute. Availability fell 30 points too, which breaches the
        // unavailability-ratio threshold (0.442) though not the scaled
        // baseline (0.363): the stricter one rules.
        let base = load_report(100_000.0, 0.30, 0.69);
        let cur = load_report(100_000.0, 0.60, 0.39);
        let gate = verdict(&base, &cur);
        assert_eq!(firing(&gate), [false, true, true], "{}", gate.render());
    }

    #[test]
    fn tiny_shed_wobble_passes_on_absolute_slack() {
        // 1% -> 2.5% is a 2.5x ratio over the floored baseline but only
        // 1.5 points absolute — inside the slack, so noise, not a page.
        let base = load_report(100_000.0, 0.01, 0.99);
        let cur = load_report(100_000.0, 0.025, 0.975);
        let gate = verdict(&base, &cur);
        assert!(gate.passed(), "{}", gate.render());
    }

    #[test]
    fn availability_collapse_pages() {
        let base = load_report(92_301.0, 0.30, 0.70);
        let cur = load_report(92_301.0, 0.30, 0.10);
        let gate = check_alerts(&base, &cur, None, DEFAULT_TOLERANCE).unwrap();
        assert!(!gate.passed());
        assert!(gate.checks[2].firing, "{}", gate.render());
    }

    #[test]
    fn perfect_baseline_availability_uses_floor() {
        // Baseline 100% available: without the floor any dip would be an
        // infinite ratio. With it, a half-point dip passes, a big one
        // pages.
        let base = load_report(100_000.0, 0.0, 1.0);
        let ok = verdict(&base, &load_report(100_000.0, 0.0, 0.995));
        assert!(ok.passed(), "{}", ok.render());
        let bad = verdict(&base, &load_report(100_000.0, 0.0, 0.90));
        assert!(!bad.passed(), "{}", bad.render());
    }

    #[test]
    fn heavy_shed_baseline_still_pages_on_total_shed() {
        // 0.64 * 1.8 > 1, so only the ceiling keeps this rule
        // meaningful: shedding ~everything must still page.
        let base = load_report(92_301.0, 0.6416, 0.3584);
        let cur = load_report(92_301.0, 0.999, 0.001);
        let gate = check_alerts(&base, &cur, None, DEFAULT_TOLERANCE).unwrap();
        assert!(gate.checks[1].firing, "{}", gate.render());
    }

    #[test]
    fn missing_metric_is_an_error_not_a_pass() {
        let base = load_report(92_301.0, 0.6416, 0.3584);
        let cur = Json::Obj(vec![("p99_under_load_us".to_string(), Json::Num(92_301.0))]);
        let err = check_alerts(&base, &cur, None, DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("shed_rate"), "error was: {err}");
        assert!(rules_from_baseline(&cur, DEFAULT_TOLERANCE).is_err());
        let zero = load_report(0.0, 0.6416, 0.3584);
        assert!(rules_from_baseline(&zero, DEFAULT_TOLERANCE).is_err());
        assert!(rules_from_baseline(&base, 0.5).is_err());
        assert!(rules_from_baseline(&base, f64::NAN).is_err());
    }

    #[test]
    fn run_log_page_fails_even_when_report_is_clean() {
        let base = load_report(92_301.0, 0.6416, 0.3584);
        let log = Json::parse(
            r#"[
                {"rule":"latency-burn","severity":"ticket","state":"firing"},
                {"rule":"page-p99-under-load","severity":"page","state":"firing"},
                {"rule":"page-p99-under-load","severity":"page","state":"resolved"}
            ]"#,
        )
        .unwrap();
        let gate = check_alerts(&base, &base, Some(&log), DEFAULT_TOLERANCE).unwrap();
        assert!(!gate.passed());
        assert_eq!(gate.run_log_pages, vec!["page-p99-under-load"]);
        assert!(gate.render().contains("page-p99-under-load"));
    }

    #[test]
    fn ticket_only_run_log_passes() {
        let base = load_report(92_301.0, 0.6416, 0.3584);
        let log =
            Json::parse(r#"[{"rule":"availability-burn","severity":"ticket","state":"firing"}]"#)
                .unwrap();
        let gate = check_alerts(&base, &base, Some(&log), DEFAULT_TOLERANCE).unwrap();
        assert!(gate.passed(), "{}", gate.render());
        let bad_log = Json::Str("nope".to_string());
        assert!(check_alerts(&base, &base, Some(&bad_log), DEFAULT_TOLERANCE).is_err());
    }
}
