//! Profile a built-in workload end to end: compile and run it as one
//! traced request, explain the decisions that shaped it, and export the
//! record.
//!
//! ```text
//! cargo run --release --example profile [sumrows|sumcols|pagerank] [OUT_DIR]
//! ```
//!
//! Prints the mapping search's verdict (the selected mapping and the
//! runner-up, every scored candidate, and how many candidates each hard
//! constraint pruned), the lowering notes, the dynamic-parallelism
//! decision, the static-analysis findings and the per-kernel profiler
//! report, and writes:
//!
//! * `trace.json` — Chrome trace-event JSON; load in Perfetto or
//!   `chrome://tracing` to see the compile-pipeline lane (the request's
//!   kept trace: one wall-clock slice per stage, its decisions as
//!   arguments) and the simulated-GPU lane (kernel slices + roofline
//!   sub-tracks, rendered from the run's metrics);
//! * `metrics.json` — machine-readable [`multidim_sim::RunMetrics`].
//!
//! It then re-reads `trace.json` and exits non-zero unless both lanes are
//! labelled, an `analyze` slice and a `search/analyze` slice naming the
//! selected mapping are present, and the simulated lane has one slice per
//! kernel.

use multidim::prelude::*;
use multidim_mapping::{enumerate_scored, Weights};
use multidim_trace::json::Json;
use multidim_trace::{self as trace, chrome, Event, StoredTrace};
use std::collections::HashMap;
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let workload = args.next().unwrap_or_else(|| "sumrows".to_string());
    let out_dir = args.next().unwrap_or_else(|| ".".to_string());

    let (program, bindings, inputs) = build_workload(&workload)?;

    // Compile and run as one request whose trace the store keeps.
    let store = trace::TraceStore::new(trace::TailSamplerConfig::keep_all());
    let _installed = trace::install_store(Arc::new(store));
    let (compiled, kept) = trace::collect("profile", &workload, || {
        let exe = Compiler::new().compile(&program, &bindings)?;
        let run = exe.run(&inputs)?;
        Ok::<_, Box<dyn std::error::Error>>((exe, run))
    });
    let (exe, run) = compiled?;
    let record = kept.ok_or("the request's trace was not kept")?;

    print_search(&exe, &bindings, &record);
    print_decisions(&exe);
    println!("{}", exe.report(&run));

    let metrics = exe.metrics(&run);
    let mut events: Vec<Event> = record.spans.iter().map(chrome::span_event).collect();
    events.extend(metrics.trace_events());
    let trace_path = Path::new(&out_dir).join("trace.json");
    let trace_file = File::create(&trace_path)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    chrome::write_trace(&events, &mut BufWriter::new(trace_file))?;

    let metrics_path = Path::new(&out_dir).join("metrics.json");
    std::fs::write(&metrics_path, metrics.render())
        .map_err(|e| format!("cannot write {}: {e}", metrics_path.display()))?;

    println!("wrote {} ({} events)", trace_path.display(), events.len());
    println!("wrote {}", metrics_path.display());
    check_trace(&trace_path, metrics.kernels.len())?;
    println!("trace.json checks out: both lanes, the analysis slices, one slice per kernel");
    Ok(())
}

/// A named workload as (program, size bindings, host inputs).
type Workload = (Program, Bindings, HashMap<multidim_ir::ArrayId, Vec<f64>>);

fn build_workload(name: &str) -> Result<Workload, String> {
    use multidim_workloads::{data, pagerank, sums};
    match name {
        "sumrows" | "sumcols" => {
            let kind = if name == "sumrows" {
                sums::SumKind::Rows
            } else {
                sums::SumKind::Cols
            };
            let (rows, cols) = (512, 1024);
            let (p, rs, cs, m) = sums::sum_program(kind);
            let mut bind = Bindings::new();
            bind.bind(rs, rows as i64);
            bind.bind(cs, cols as i64);
            let inputs = [(m, data::matrix(rows, cols, 42))].into_iter().collect();
            Ok((p, bind, inputs))
        }
        "pagerank" => {
            let g = data::CsrGraph::power_law(2000, 8, 7);
            let mean = (g.edges / g.nodes.max(1)).max(1) as i64;
            let (p, ns, es, row_ptr, col_idx, prev, degree) = pagerank::step_program(mean);
            let mut bind = Bindings::new();
            bind.bind(ns, g.nodes as i64);
            bind.bind(es, g.edges as i64);
            let degrees: Vec<f64> = (0..g.nodes).map(|i| g.degree(i).max(1) as f64).collect();
            let rank = vec![1.0 / g.nodes as f64; g.nodes];
            let inputs = [
                (row_ptr, g.row_ptr.clone()),
                (col_idx, g.col_idx.clone()),
                (prev, rank),
                (degree, degrees),
            ]
            .into_iter()
            .collect();
            Ok((p, bind, inputs))
        }
        other => Err(format!(
            "unknown workload `{other}` (expected sumrows, sumcols, or pagerank)"
        )),
    }
}

/// Why this mapping won: the search's own record (selected, runner-up,
/// prune counts per hard constraint) and every scored candidate.
fn print_search(exe: &multidim::Executable, bindings: &Bindings, record: &StoredTrace) {
    let search = record
        .spans
        .iter()
        .find(|s| (s.cat, s.name) == ("search", "analyze"))
        .map(chrome::span_event);
    let arg = |key| search.as_ref().and_then(|e| e.get_str(key)).unwrap_or("?");
    let num = |key| search.as_ref().and_then(|e| e.get_f64(key)).unwrap_or(0.0);
    println!(
        "mapping search: {} candidates scored, {} pruned",
        num("candidates"),
        num("pruned")
    );
    println!(
        "  selected   {} (score {:.1}, dop {})",
        arg("selected"),
        num("score"),
        num("dop")
    );
    println!(
        "  runner-up  {} (score {:.1})",
        arg("runner_up"),
        num("runner_up_score")
    );
    let pruned_by = arg("pruned_by");
    if !pruned_by.is_empty() {
        println!("  pruned by hard constraints:");
        for pair in pruned_by.split("; ") {
            println!("    {pair}");
        }
    }

    let mut scored = enumerate_scored(&exe.program, bindings, exe.device(), &Weights::default());
    scored.sort_by(|a, b| b.score.total_cmp(&a.score));
    let best_score = scored.first().map_or(0.0, |c| c.score);
    println!("\ncandidate mappings (by score):");
    println!(
        "  {:<34} {:>8} {:>8} {:>12}  note",
        "mapping", "score", "Δscore", "dop"
    );
    for c in &scored {
        let note = if c.mapping == exe.mapping {
            "selected"
        } else {
            "outscored"
        };
        println!(
            "  {:<34} {:>8.1} {:>8.1} {:>12}  {note}",
            c.mapping.to_string(),
            c.score,
            c.score - best_score,
            c.dop
        );
    }
    println!();
}

/// The lowering notes, the launch-consolidation decision and the static
/// analysis findings.
fn print_decisions(exe: &multidim::Executable) {
    if !exe.kernels.notes.is_empty() {
        println!("lowering notes:");
        for n in &exe.kernels.notes {
            println!("  {n}");
        }
        println!();
    }
    match &exe.dynpar.site {
        Some(site) => println!("dynpar: {} — {}\n", site.strategy.name(), site.reason),
        None => println!("dynpar: no data-dependent launch site\n"),
    }
    if !exe.diagnostics.diagnostics.is_empty() {
        println!("static analysis:");
        for d in &exe.diagnostics.diagnostics {
            println!("  {}", d.render_line());
        }
        println!();
    }
}

/// Re-read the written trace and check what a viewer needs of it.
fn check_trace(path: &Path, kernels: usize) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("trace.json has no traceEvents array")?;
    let field = |e: &Json, key| e.get(key).and_then(Json::as_str).map(str::to_string);
    let pid = |e: &Json| e.get("pid").and_then(Json::as_u64);
    let slice = |e: &Json| field(e, "ph").as_deref() == Some("X");
    for lane in [trace::PID_PIPELINE, trace::PID_SIM] {
        let labelled = events
            .iter()
            .any(|e| field(e, "ph").as_deref() == Some("M") && pid(e) == Some(u64::from(lane)));
        if !labelled {
            return Err(format!("trace.json does not label lane {lane}"));
        }
    }
    if !events
        .iter()
        .any(|e| slice(e) && field(e, "cat").as_deref() == Some("analyze"))
    {
        return Err("trace.json has no `analyze` slice".into());
    }
    let search_selected = events.iter().any(|e| {
        slice(e)
            && field(e, "cat").as_deref() == Some("search")
            && field(e, "name").as_deref() == Some("analyze")
            && e.get("args").and_then(|a| a.get("selected")).is_some()
    });
    if !search_selected {
        return Err("trace.json has no `search/analyze` slice naming the selection".into());
    }
    let kernel_slices = events
        .iter()
        .filter(|e| {
            slice(e)
                && pid(e) == Some(u64::from(trace::PID_SIM))
                && field(e, "cat").as_deref() == Some("sim")
        })
        .count();
    if kernel_slices != kernels {
        return Err(format!(
            "trace.json has {kernel_slices} simulated kernel slices for {kernels} kernels"
        ));
    }
    Ok(())
}
