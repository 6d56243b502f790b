//! CI perf-regression gate.
//!
//! ```text
//! check_regression <baseline.json> <current.json>
//! ```
//!
//! Both files are `--report` JSON from the throughput bench, gated on
//! warm throughput and p99 at [`DEFAULT_TOLERANCE`]. Exit code 0 when
//! every gated metric is within tolerance of the baseline, 1 on a
//! regression, 2 on unreadable or schema-incomplete input. Load reports
//! are gated by `check_alerts`.

use multidim_bench::regression::{check, DEFAULT_TOLERANCE};
use multidim_trace::json::Json;
use std::process::ExitCode;

fn load(path: &str, which: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {which} report `{path}`: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{which} report `{path}` is not valid JSON: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline, current] = args.as_slice() else {
        eprintln!("usage: check_regression <baseline.json> <current.json>");
        return ExitCode::from(2);
    };
    let gate = load(baseline, "baseline").and_then(|baseline| {
        let current = load(current, "current")?;
        check(&baseline, &current, DEFAULT_TOLERANCE)
    });
    match gate {
        Ok(report) => {
            print!("{}", report.render());
            if report.passed() {
                println!("perf gate: PASS");
                ExitCode::SUCCESS
            } else {
                println!("perf gate: FAIL (regression beyond {DEFAULT_TOLERANCE:.2}x tolerance)");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
