//! CI load gate.
//!
//! ```text
//! check_alerts <baseline.json> <current.json> [--alerts <log.json>]
//! ```
//!
//! Derives page-severity alert rules from the committed load baseline
//! (p99-under-load, shed rate, availability — see
//! `multidim_bench::alerts_gate`), replays them against the fresh `load
//! --report` JSON, and, when `--alerts` points at the run's alert-log
//! artifact, also fails if any page-severity alert fired during the run.
//! Ticket-severity alerts (the standing burn-rate rules, which fire by
//! design under overdrive) never fail the gate.
//!
//! Exit code 0 when no page fires, 1 when one does, 2 on unreadable or
//! schema-incomplete input — a missing metric is an error, never a
//! silent pass.
//!
//! The gate also prints how many samples back each report's quantiles
//! and warns loudly below [`MIN_TRUSTED_SAMPLES`] — a pass from a
//! handful of requests is weaker evidence than the green check implies.

use multidim_bench::alerts_gate::check_alerts;
use multidim_bench::regression::{sample_count, DEFAULT_TOLERANCE};
use multidim_trace::json::Json;
use std::process::ExitCode;

/// Below this many samples the gated quantiles are noisy enough that the
/// gate warns on stderr (it still gates — small runs are better than no
/// gate — but the verdict deserves an asterisk).
const MIN_TRUSTED_SAMPLES: u64 = 100;

const USAGE: &str = "usage: check_alerts <baseline.json> <current.json> [--alerts <log.json>]";

fn load(path: &str, which: &str) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {which} `{path}`: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{which} `{path}` is not valid JSON: {e}"))
}

struct Args {
    baseline: String,
    current: String,
    alerts: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut alerts = None;
    let mut positional = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--alerts" {
            alerts = Some(
                args.next()
                    .ok_or_else(|| "--alerts needs a path".to_string())?,
            );
        } else {
            positional.push(arg);
        }
    }
    match <[String; 2]>::try_from(positional) {
        Ok([baseline, current]) => Ok(Args {
            baseline,
            current,
            alerts,
        }),
        Err(_) => Err(USAGE.to_string()),
    }
}

fn report_samples(report: &Json, which: &str) {
    match sample_count(report) {
        Some(n) => {
            println!("{which:8} samples: {n}");
            if n < MIN_TRUSTED_SAMPLES {
                eprintln!(
                    "WARNING: {which} report's gated quantiles rest on only {n} samples \
                     (< {MIN_TRUSTED_SAMPLES}); treat this verdict as low-confidence"
                );
            }
        }
        None => eprintln!("WARNING: {which} report carries no sample count"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let gate = load(&args.baseline, "baseline report").and_then(|baseline| {
        let current = load(&args.current, "current report")?;
        let run_log = match &args.alerts {
            Some(path) => Some(load(path, "alert log")?),
            None => None,
        };
        report_samples(&baseline, "baseline");
        report_samples(&current, "current");
        check_alerts(&baseline, &current, run_log.as_ref(), DEFAULT_TOLERANCE)
    });
    match gate {
        Ok(report) => {
            print!("{}", report.render());
            if report.passed() {
                println!("alert gate: PASS");
                ExitCode::SUCCESS
            } else {
                println!("alert gate: FAIL (page-severity alert fired)");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
