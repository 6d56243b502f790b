//! Shared output helpers for the figure-reproduction benches.
//!
//! Each `cargo bench` target in this crate regenerates one table or figure
//! of the paper: it runs the relevant workloads on the simulator and
//! prints the same rows/series the paper plots, normalized the same way.
//! Absolute times are simulator estimates; the *ratios* are the result.
//!
//! The [`regression`] module is the perf gate over the engine throughput
//! bench: it compares a fresh `--report` JSON against the committed
//! `BENCH_baseline.json` and fails CI when warm throughput or p99 latency
//! regresses beyond tolerance (see the `check_regression` binary). The
//! [`loadgen`] module is the zipf load generator behind the `load`
//! binary. The [`alerts_gate`] module is the one gate over its `--report`
//! output: it derives page-severity alert rules (p99-under-load, shed
//! rate, availability) from `BENCH_load_baseline.json`, which the `load`
//! bin evaluates live (`--alert-baseline`) and the `check_alerts` binary
//! replays, failing CI when a page fires against a fresh report or fired
//! during the run.

pub mod alerts_gate;
pub mod loadgen;
pub mod regression;

/// Print a titled table: a label column plus one column per series.
pub fn print_table(title: &str, columns: &[&str], rows: &[(String, Vec<f64>)]) {
    println!();
    println!("=== {title} ===");
    print!("{:<28}", "");
    for c in columns {
        print!("{c:>18}");
    }
    println!();
    for (label, values) in rows {
        print!("{label:<28}");
        for v in values {
            print!("{v:>18.3}");
        }
        println!();
    }
    println!();
}

/// Normalize a row of times to the value at `base` (the paper's
/// "normalized execution time").
pub fn normalized(times: &[f64], base: usize) -> Vec<f64> {
    let b = times[base];
    times.iter().map(|t| t / b).collect()
}

/// True when the invocation asked for machine-readable metrics dumps:
/// `--report` anywhere on the command line (cargo bench forwards arguments
/// after `--`), or the `MULTIDIM_REPORT` environment variable.
pub fn report_requested() -> bool {
    std::env::args().any(|a| a == "--report") || std::env::var_os("MULTIDIM_REPORT").is_some()
}

/// When [`report_requested`], write the per-launch
/// [`RunMetrics`](multidim_sim::RunMetrics) records
/// as a JSON array to `<label>.metrics.json` in the working directory.
///
/// No-op (and no file) when reporting was not requested or `metrics` is
/// empty, so benches can call it unconditionally on their winning
/// configuration.
pub fn dump_metrics(label: &str, metrics: &[multidim_sim::RunMetrics]) {
    if !report_requested() || metrics.is_empty() {
        return;
    }
    let body: Vec<String> = metrics
        .iter()
        .map(multidim_sim::RunMetrics::render)
        .collect();
    let path = format!("{label}.metrics.json");
    match std::fs::write(&path, format!("[{}]", body.join(","))) {
        Ok(()) => eprintln!("wrote {path} ({} launch records)", metrics.len()),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

/// Format seconds for auxiliary prints.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(normalized(&[2.0, 4.0, 1.0], 2), vec![2.0, 4.0, 1.0]);
        assert_eq!(normalized(&[2.0, 4.0], 0), vec![1.0, 2.0]);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_secs(2.5), "2.500 s");
        assert_eq!(fmt_secs(2.5e-3), "2.500 ms");
        assert_eq!(fmt_secs(2.5e-6), "2.5 µs");
    }
}
