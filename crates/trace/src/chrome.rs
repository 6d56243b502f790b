//! Chrome trace-event export.
//!
//! Renders [`Event`]s in the [Trace Event Format] consumed by Perfetto and
//! `chrome://tracing`: a top-level `{"traceEvents": [...]}` object whose
//! entries carry `ph` (phase), `ts`/`dur` (microseconds), `pid`/`tid` lane
//! coordinates and an `args` payload. Two metadata events name the process
//! lanes so viewers label the wall-clock pipeline track and the
//! simulated-GPU track distinctly. A kept request trace's spans render on
//! the pipeline lane through [`span_event`].
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::Json;
use crate::{Event, Phase, SpanRecord, Value, PID_PIPELINE, PID_SIM};
use std::io::{self, Write};

/// An argument value as JSON, for Chrome events and kept traces alike.
pub(crate) fn value_json(v: &Value) -> Json {
    match v {
        Value::Int(v) => Json::Num(*v as f64),
        Value::UInt(v) => Json::Num(*v as f64),
        Value::Float(v) => Json::Num(*v),
        Value::Bool(v) => Json::Bool(*v),
        Value::Str(v) => Json::Str(v.clone()),
    }
}

/// One event as a Chrome trace-event JSON object.
pub fn event_json(e: &Event) -> Json {
    let ph = match e.phase {
        Phase::Complete => "X",
        Phase::Instant => "i",
        Phase::Counter => "C",
    };
    let mut fields = vec![
        ("name".to_string(), Json::Str(e.name.clone())),
        ("cat".to_string(), Json::Str(e.cat.to_string())),
        ("ph".to_string(), Json::Str(ph.to_string())),
        ("ts".to_string(), Json::Num(e.ts_us)),
    ];
    if e.phase == Phase::Complete {
        fields.push(("dur".to_string(), Json::Num(e.dur_us)));
    }
    fields.push(("pid".to_string(), Json::Num(e.pid as f64)));
    fields.push(("tid".to_string(), Json::Num(e.tid as f64)));
    if e.phase == Phase::Instant {
        // Thread-scoped instants render as small arrows in viewers.
        fields.push(("s".to_string(), Json::Str("t".to_string())));
    }
    if !e.args.is_empty() {
        let args = e
            .args
            .iter()
            .map(|(k, v)| (k.to_string(), value_json(v)))
            .collect();
        fields.push(("args".to_string(), Json::Obj(args)));
    }
    Json::Obj(fields)
}

/// A kept span as a wall-clock slice on the pipeline lane, with its
/// arguments.
pub fn span_event(span: &SpanRecord) -> Event {
    Event {
        phase: Phase::Complete,
        cat: span.cat,
        name: span.name.to_string(),
        ts_us: span.start_us,
        dur_us: span.dur_us,
        pid: PID_PIPELINE,
        tid: 0,
        args: span.args.clone(),
    }
}

fn metadata(name: &str, pid: u32, label: &str) -> Json {
    Json::Obj(vec![
        ("name".to_string(), Json::Str(name.to_string())),
        ("ph".to_string(), Json::Str("M".to_string())),
        ("pid".to_string(), Json::Num(pid as f64)),
        ("tid".to_string(), Json::Num(0.0)),
        (
            "args".to_string(),
            Json::Obj(vec![("name".to_string(), Json::Str(label.to_string()))]),
        ),
    ])
}

/// The full trace document (`{"traceEvents": [...]}`) for a set of events,
/// with process-name metadata labelling the two clock lanes.
pub fn trace_json(events: &[Event]) -> Json {
    let mut items = vec![
        metadata("process_name", PID_PIPELINE, "compiler (wall clock)"),
        metadata("process_name", PID_SIM, "gpu (simulated)"),
    ];
    items.extend(events.iter().map(event_json));
    Json::Obj(vec![
        ("traceEvents".to_string(), Json::Arr(items)),
        ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
    ])
}

/// Write the trace document to `out`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace(events: &[Event], out: &mut impl Write) -> io::Result<()> {
    out.write_all(trace_json(events).render().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_event_has_required_fields() {
        let e = Event::complete("sim", "kernel0", 100.0, 50.0)
            .arg("bound_by", "Bandwidth")
            .arg("warp_instr", 1234u64);
        let j = event_json(&e);
        assert_eq!(j.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(j.get("ts").unwrap().as_f64(), Some(100.0));
        assert_eq!(j.get("dur").unwrap().as_f64(), Some(50.0));
        assert_eq!(j.get("pid").unwrap().as_u64(), Some(PID_SIM as u64));
        assert_eq!(j.get("name").unwrap().as_str(), Some("kernel0"));
        let args = j.get("args").unwrap();
        assert_eq!(args.get("bound_by").unwrap().as_str(), Some("Bandwidth"));
        assert_eq!(args.get("warp_instr").unwrap().as_u64(), Some(1234));
    }

    #[test]
    fn instant_and_counter_phases() {
        let i = event_json(&Event::instant("search", "pruned"));
        assert_eq!(i.get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(i.get("s").unwrap().as_str(), Some("t"));
        assert_eq!(i.get("dur"), None);
        let c = event_json(&Event::counter("sim", "dram_bytes", 5.0).arg("value", 17u64));
        assert_eq!(c.get("ph").unwrap().as_str(), Some("C"));
    }

    #[test]
    fn trace_document_is_valid_and_labels_lanes() {
        let events = vec![
            Event::instant("search", "candidate"),
            Event::complete("sim", "k0", 0.0, 10.0),
        ];
        let doc = trace_json(&events);
        let text = doc.render();
        let parsed = Json::parse(&text).unwrap();
        let items = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 metadata + 2 events.
        assert_eq!(items.len(), 4);
        assert_eq!(items[0].get("ph").unwrap().as_str(), Some("M"));
        assert_eq!(
            items[0].get("args").unwrap().get("name").unwrap().as_str(),
            Some("compiler (wall clock)")
        );
        assert_eq!(items[1].get("pid").unwrap().as_u64(), Some(PID_SIM as u64));
        // Every non-metadata event carries the mandatory keys.
        for item in &items[2..] {
            for key in ["name", "ph", "ts", "pid", "tid"] {
                assert!(
                    item.get(key).is_some(),
                    "missing {key} in {}",
                    item.render()
                );
            }
        }
    }

    #[test]
    fn write_trace_streams_document() {
        let mut buf = Vec::new();
        write_trace(&[Event::instant("t", "x")], &mut buf).unwrap();
        let parsed = Json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert!(parsed.get("traceEvents").is_some());
    }
}
