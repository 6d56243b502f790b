//! Metric names and units, the printed report, the JSON report and the
//! result line.

use crate::harness::{Fact, Run};
use crate::spans::Span;
use std::fmt::Write as _;

/// End-to-end metrics of an untraced run, `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Layer metrics of a traced run, `(name, unit)`. A layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("fuse.us", "us"),
    ("search.us", "us"),
    ("analyze.us", "us"),
    ("lower.us", "us"),
    ("validate.us", "us"),
    ("locality.us", "us"),
    ("compile.unattributed_share", "ratio"),
    ("search.candidates", "count"),
    ("simulate.us", "us"),
    ("engine.queue_wait_us_p99", "us"),
    ("engine.run_us_mean", "us"),
    ("engine.lookup_us_mean", "us"),
    ("engine.submit_us_p99", "us"),
    ("engine.handoff_us_mean", "us"),
    ("engine.compile_us_mean_miss", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.coalesced", "count"),
    ("door.submit_us_p99", "us"),
    ("door.coalesced", "count"),
    ("door.spilled", "count"),
    ("door.shard_share_max", "ratio"),
    ("tune.candidates", "count"),
    ("tune.measured", "count"),
    ("tune.pruned", "count"),
    ("tune.skipped", "count"),
    ("tune.pruned_ratio", "ratio"),
    ("tune.plan_s", "s"),
    ("tune.measure_s", "s"),
    ("tune.residual_s", "s"),
    ("gpu_us_geomean", "sim_us"),
    ("tuned_gpu_us_geomean", "sim_us"),
    ("trace.overhead_ratio", "ratio"),
    ("host.reference_us", "us"),
];

/// A JSON value, written by hand so the output format depends on nothing
/// in the repository.
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, s: &mut String) {
        match self {
            Json::Null => s.push_str("null"),
            Json::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(s, "{i}");
            }
            // Rust prints the shortest decimal that reads back as the
            // same f64, so every measured digit survives.
            Json::Num(x) if x.is_finite() => {
                let _ = write!(s, "{x}");
            }
            Json::Num(_) => s.push_str("null"),
            Json::Str(text) => {
                s.push('"');
                for c in text.chars() {
                    match c {
                        '"' => s.push_str("\\\""),
                        '\\' => s.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(s, "\\u{:04x}", c as u32);
                        }
                        c => s.push(c),
                    }
                }
                s.push('"');
            }
            Json::Arr(items) => {
                s.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    v.write(s);
                }
                s.push(']');
            }
            Json::Obj(fields) => {
                s.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    Json::Str(k.clone()).write(s);
                    s.push_str(": ");
                    v.write(s);
                }
                s.push('}');
            }
        }
    }
}

impl From<&Fact> for Json {
    fn from(f: &Fact) -> Json {
        match f {
            Fact::Int(i) => Json::Int(*i),
            Fact::Num(x) => Json::Num(*x),
            Fact::Text(t) => Json::Str(t.clone()),
        }
    }
}

/// The metrics the result line carries, in the order of `defs`: each
/// must be finite. `values` may omit a layer metric, which then reads 0.
pub fn select_metrics(
    defs: &[(&'static str, &'static str)],
    values: &[(&'static str, f64)],
    default_zero: bool,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| !defs.iter().any(|(d, _)| d == n))
    {
        return Err(format!("metric `{name}` is not declared"));
    }
    defs.iter()
        .map(|&(name, unit)| {
            let value = values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
            match value {
                Some(v) if v.is_finite() => Ok((name, unit, v)),
                None if default_zero => Ok((name, unit, 0.0)),
                Some(v) => Err(format!("metric `{name}` is {v}")),
                None => Err(format!("metric `{name}` was not measured")),
            }
        })
        .collect()
}

/// The last line of standard output.
pub fn result_line(run: &Run, metrics: &[(&'static str, &'static str, f64)]) -> String {
    Json::obj([
        ("correct", Json::Bool(run.tally.failed == 0)),
        ("attempted", Json::Int(run.tally.attempted)),
        ("failed", Json::Int(run.tally.failed)),
        ("metrics", metrics_json(metrics)),
    ])
    .render()
}

fn metrics_json(metrics: &[(&'static str, &'static str, f64)]) -> Json {
    Json::obj(metrics.iter().map(|&(name, unit, v)| {
        (
            name,
            Json::obj([("value", Json::Num(v)), ("unit", Json::Str(unit.into()))]),
        )
    }))
}

const COLUMNS: [&str; 5] = [
    "compile_us",
    "simulate_us",
    "gpu_us",
    "tuned_gpu_us",
    "tune_s",
];

/// The human-readable report: facts, a row per program, failures and
/// metrics.
pub fn print(header: &[(&str, Json)], run: &Run, metrics: &[(&'static str, &'static str, f64)]) {
    let mut out = String::new();
    for (k, v) in header.iter() {
        let _ = writeln!(out, "{k:>16}: {}", v.render());
    }
    for (k, v) in &run.facts {
        let _ = writeln!(out, "{k:>16}: {}", Json::from(v).render());
    }
    let _ = writeln!(
        out,
        "\n{:<20} {:>12} {:>12} {:>10} {:>12} {:>9}",
        "program", COLUMNS[0], COLUMNS[1], COLUMNS[2], COLUMNS[3], COLUMNS[4]
    );
    let cell = |v: f64, width: usize, precision: usize| {
        if v.is_finite() {
            format!("{v:>width$.precision$}")
        } else {
            format!("{:>width$}", "-")
        }
    };
    for (name, r) in run.rows.table() {
        let _ = writeln!(
            out,
            "{name:<20} {} {} {} {} {}",
            cell(r[0], 12, 1),
            cell(r[1], 12, 1),
            cell(r[2], 10, 3),
            cell(r[3], 12, 3),
            cell(r[4], 9, 3)
        );
    }
    for f in &run.tally.failures {
        let _ = writeln!(out, "FAILED: {f}");
    }
    let _ = writeln!(
        out,
        "\noperations: {} attempted, {} failed",
        run.tally.attempted, run.tally.failed
    );
    for (name, unit, v) in metrics {
        let _ = writeln!(out, "{name:>28} {v:>16.6} {unit}");
    }
    print!("{out}");
}

/// The JSON report: the printed report plus, for a traced run, its spans.
pub fn json(
    header: Vec<(&str, Json)>,
    run: &Run,
    metrics: &[(&'static str, &'static str, f64)],
) -> Json {
    let programs = run
        .rows
        .table()
        .into_iter()
        .map(|(name, r)| {
            let mut fields = vec![("program", Json::Str(name))];
            fields.extend(COLUMNS.iter().zip(r).map(|(c, v)| (*c, Json::Num(v))));
            Json::obj(fields)
        })
        .collect();
    let mut fields = header;
    fields.extend([
        (
            "facts",
            Json::Obj(
                run.facts
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.into()))
                    .collect(),
            ),
        ),
        ("programs", Json::Arr(programs)),
        ("metrics", metrics_json(metrics)),
        ("attempted", Json::Int(run.tally.attempted)),
        ("failed", Json::Int(run.tally.failed)),
        (
            "failures",
            Json::Arr(run.tally.failures.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "spans",
            Json::Arr(run.spans.iter().map(span_json).collect()),
        ),
    ]);
    Json::obj(fields)
}

fn span_json(s: &Span) -> Json {
    Json::obj([
        ("id", Json::Int(s.id)),
        ("parent", s.parent.map_or(Json::Null, Json::Int)),
        ("name", Json::Str(s.name.into())),
        ("request", Json::Int(s.request)),
        ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
        ("end_us", Json::Num(s.end_ns as f64 / 1e3)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_keeps_every_digit() {
        let v = Json::obj([
            ("a\"b", Json::Str("x\\y\n".into())),
            ("n", Json::Num(0.1 + 0.2)),
            ("nan", Json::Num(f64::NAN)),
            (
                "list",
                Json::Arr(vec![Json::Int(3), Json::Bool(true), Json::Null]),
            ),
        ]);
        assert_eq!(
            v.render(),
            r#"{"a\"b": "x\\y\u000a", "n": 0.30000000000000004, "nan": null, "list": [3, true, null]}"#
        );
    }

    #[test]
    fn undeclared_unmeasured_and_non_finite_metrics_are_errors() {
        let defs = [("a", "us"), ("b", "count")];
        let ok = select_metrics(&defs, &[("b", 2.0), ("a", 1.0)], false).expect("all present");
        assert_eq!(ok, vec![("a", "us", 1.0), ("b", "count", 2.0)]);
        let zero = select_metrics(&defs, &[("a", 1.0)], true).expect("b reads 0");
        assert_eq!(zero[1], ("b", "count", 0.0));
        assert!(select_metrics(&defs, &[("a", 1.0)], false).is_err());
        assert!(select_metrics(&defs, &[("a", 1.0), ("c", 1.0)], true).is_err());
        assert!(select_metrics(&defs, &[("a", f64::NAN)], true).is_err());
    }

    /// Every metric the code can emit is declared in `BENCHMARK.json` with
    /// the same unit, and nothing else is.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let needle = format!(r#""name": "{name}", "unit": "{unit}""#);
            assert!(text.contains(&needle), "{needle} missing");
        }
        assert_eq!(
            text.matches(r#""unit": "#).count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
