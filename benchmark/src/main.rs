//! The repository benchmark: end-to-end and per-layer numbers for the
//! compiler, the engine, the sharded front door and the autotuners.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--report PATH]
//! ```
//!
//! Each run is one process running one workload. Its inputs come from the
//! seed (default 42) and its window lasts `--seconds` (default 20). An
//! untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) reports the layer metrics. Both print the run's
//! facts and a row per catalog program (median compile and simulate µs,
//! unscaled, and simulated GPU µs, with geometric means), then end with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! `--report PATH` also writes all of it, with a traced run's spans, as
//! JSON.
//!
//! The exit code is 0 when every operation passed its checks; 1 when a
//! check failed (the result line still prints) or the set-up failed (no
//! result line); 2 for bad arguments.
//!
//! # Load shape
//!
//! Engine workers are fixed at 2 in total, whatever the host's core count,
//! and every serving load is closed-loop: 2 client threads, each waiting
//! for its reply before sending the next request, which is how engine
//! callers behave. Open-loop fixed-rate latency is left out: on a 2-core
//! host it spread 20–35% from run to run (p50 ranged 0.53–0.86 ms at 400
//! requests/s, and summed simulation time for an identical schedule
//! ranged 8.4–11.0 s), while closed-loop numbers stayed within 2–5%.
//!
//! The benchmark installs no `multidim_trace` sink and runs engines
//! without a flight recorder, so the program's internal tracing stays
//! off. Its generator, schedules, percentiles and JSON are its own, so
//! changes to the repository's load generator cannot change what it
//! measures.
//!
//! # Steadiness on a shared host
//!
//! Other tenants of a shared host make it run 10–40% slower for seconds at
//! a time. Three things keep the numbers steady:
//!
//! * Every time is scaled to a nominal host by a reference kernel the
//!   benchmark times while the system under test is idle (see `host`).
//! * The window runs in slices of about 2 s; throughput is the median
//!   slice's rate and tail latency the median slice's 99th percentile, so
//!   a stalled slice moves neither.
//! * The serving workloads start a fresh engine or front door for each
//!   slice, because where a target's threads land on the vCPUs is fixed
//!   for its life and moved throughput by ±10% between runs.
//!
//! With these, ten seeds of one workload spread (quartile distance over
//! median) 1.5–7.5% on the host this was written on; before them, 10–40%.
//!
//! # Workloads
//!
//! Every run first loads the 27-program catalog, compiles and runs each
//! program, and checks the outputs against the reference interpreter.
//! This set-up is repeated five times and `setup_s` is the median.
//!
//! | name | load | why |
//! |---|---|---|
//! | `compile_catalog` | 1 thread calling `Compiler::compile`, no cache, on an even draw over the catalog. | The compiler alone, with nothing hiding it: locality and search take most of the time, simulation none. About 5,100 compiles/s. |
//! | `serve_warm` | 2 clients; one `Engine` of 2 workers with every program in its cache; zipf(1.0) over the catalog. | Every request hits the cache and simulation dominates: the bypass side of any compile or cache change. About 1,100 requests/s. |
//! | `serve_churn` | 2 clients; `FrontDoor` of 2 shards × 1 worker with 16-entry caches; zipf(1.0) over the catalog × 8 renamed variants (216 fingerprints), warmed by 64 requests per client. | Compiles, inserts and evictions beside hits (hit ratio 0.55), through routing and the fleet-wide single-flight table. About 580 requests/s. |
//! | `autotune_catalog` | Whole passes of `Compiler::autotune` over the catalog in a seeded order, as many as fit the window (at least one). | Candidate enumeration, the locality bound and one simulation per candidate: the serial path. About 8.5 s a pass. |
//! | `autotune_served` | Whole passes of `Engine::autotune` (2 workers). | The same search fanned out over the workers, unpruned. About 4 s a pass. |
//!
//! Zipf ranks are fixed, from the end of the catalog (applications first)
//! and variant-major, so the seed changes the draws but never which
//! program is hot. In catalog order the two costliest sum kernels held
//! rank 0 and 1, and the median request fell on the gap between cheap and
//! costly programs, where it moved ±30% between runs. `serve_warm` and
//! `compile_catalog` draw with an even (golden-ratio) walk, `serve_churn`
//! independently; see `rng`. On the autotune workloads the seed sets only
//! the order.
//!
//! # Correctness
//!
//! Checks run outside the timers, and any mismatch or error counts as a
//! failed operation:
//!
//! * set-up: every program's outputs match `multidim_ir::interpret`
//!   within a relative tolerance of 1e-6, except the two whose writes may
//!   race by design (MD002: QPSCD's HogWild epoch, BFS's frontier);
//! * `compile_catalog`: each compile reproduces the checked reference
//!   executable (mapping and kernels), or else its run matches the
//!   interpreter;
//! * `serve_*`: every response is bit-identical to the reference
//!   `Compiler::compile(..).run(..)` of its base program;
//! * autotune: every tuned executable matches the interpreter, a program
//!   selects the same mapping on every pass, and on `autotune_catalog`
//!   `Engine::autotune` selects what `Compiler::autotune` selected.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! | metric | unit | bound | meaning |
//! |---|---|---|---|
//! | `throughput_ops_s` | 1/s | 0.25 | Operations per second in the median slice: compiles, served requests, or programs tuned per second of the median pass. |
//! | `latency_p50_us` | us | 0.25 | Median time of one operation: a compile, a request from submit to reply, or one program's autotune. |
//! | `latency_p99_us` | us | 0.25 | Nearest-rank 99th percentile of the same: on compile and serve runs the median over slices of each slice's, from over 1,000 samples a slice; on autotune runs the median over passes of each pass's, which with 27 programs a pass is its slowest program. |
//! | `setup_s` | s | 0.25 | Median time of the five set-ups. |
//! | `peak_rss_mib` | MiB | 0.15 | Peak resident set (`VmHWM`) at the end of the run. |
//!
//! A bound is the share by which a metric may worsen against the parent
//! commit's median before a change counts as a regression. Each is at
//! least three times the widest spread seen over ten seeds (7.5% for the
//! timings, 3.2% for memory). Failures are not a metric: they are the
//! result line's `failed` count and fail the run.
//!
//! # Layer metrics (`--trace 1`)
//!
//! A traced run records spans (name, start, end, parent, request id)
//! around the benchmark's own calls into each layer, and measures the
//! same work untraced beside them: `compile_catalog` compiles every drawn
//! program both with `Compiler::compile` and through the stage functions
//! it calls (see `stages`), alternating which goes first; the serving
//! workloads measure half the window untraced and half traced; the
//! autotune workloads make one untraced and one traced pass. Every traced
//! run also compiles and simulates the catalog ten times at set-up, so
//! every workload reports those layers. A layer a workload does not
//! exercise reads 0. Outside `compile_catalog` the compile layers come
//! from that sweep alone, where each compile follows a simulation that
//! evicts its data from the caches, so they read 10–50% higher there;
//! compare a layer within one workload.
//!
//! | metric | unit | moves | on |
//! |---|---|---|---|
//! | `fuse.us`, `search.us`, `analyze.us`, `lower.us`, `validate.us`, `locality.us`: mean self time per compile | us | `throughput_ops_s`, `latency_p50_us` | `compile_catalog`; not `serve_warm` |
//! | `compile.unattributed_share` (1 − Σ stages / untraced compile), `search.candidates` | ratio, count | the same | `compile_catalog` |
//! | `simulate.us`: mean `run_program` per catalog program | us | `throughput_ops_s`, `latency_p99_us` | `serve_warm`, `autotune_*`; not `compile_catalog` |
//! | `engine.queue_wait_us_p99`, `engine.run_us_mean`, `engine.lookup_us_mean` (from `Response`), `engine.submit_us_p99`, `engine.handoff_us_mean` (client latency − queue wait − service time) | us | `latency_p50_us` | `serve_warm` |
//! | `cache.hit_ratio`, `cache.misses`, `cache.evictions`, `cache.coalesced`, `engine.compile_us_mean_miss`, `door.submit_us_p99`, `door.coalesced`, `door.spilled`, `door.shard_share_max` | ratio, count, us | `throughput_ops_s`, `latency_p99_us` | `serve_churn` |
//! | `tune.candidates`, `tune.measured`, `tune.pruned`, `tune.skipped`, `tune.pruned_ratio`, `tune.plan_s` (`prepare_tune`), `tune.measure_s` (`measure_candidate`), per pass | count, ratio, s | `throughput_ops_s` | `autotune_*` |
//! | `tune.residual_s`: untraced pass − plan − measurements ÷ threads; bounds and re-lowering | s | `throughput_ops_s` | `autotune_*` |
//! | `gpu_us_geomean`, `tuned_gpu_us_geomean`: geometric mean of simulated GPU time of the analytic and the tuned mappings | sim_us | generated-code quality | all; tuned on `autotune_*` |
//! | `trace.overhead_ratio`: the traced over the untraced cost of the same work, minus 1 | ratio | — | each |
//! | `host.reference_us`: median reference-kernel time, unscaled | us | — | each |
//!
//! The counts, `search.candidates`, the `tune.*` counts, `gpu_us_geomean`,
//! `tuned_gpu_us_geomean` and `cache.hit_ratio` on `serve_warm` (1) repeat
//! exactly from run to run.

mod catalog;
mod check;
mod compile;
mod harness;
mod host;
mod report;
mod rng;
mod serve;
mod spans;
mod stages;
mod stats;
mod tune;

use harness::{peak_rss_mib, Config, Run};
use report::{Json, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
[--report PATH]\n  workloads: compile_catalog, serve_warm, serve_churn, autotune_catalog, \
autotune_served";

const WORKLOADS: [&str; 5] = [
    "compile_catalog",
    "serve_warm",
    "serve_churn",
    "autotune_catalog",
    "autotune_served",
];

struct Args {
    workload: &'static str,
    cfg: Config,
    report: Option<PathBuf>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 42,
        seconds: 20.0,
        trace: false,
    };
    let mut report = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == name)
                        .ok_or(format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.1..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0.1..=3600"));
                }
                cfg.seconds = s;
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--report" => report = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        cfg,
        report,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match measure(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run the workload and print the report. `Ok(false)` when an operation
/// failed its checks.
fn measure(args: &Args) -> Result<bool, String> {
    let cfg = &args.cfg;
    let mut run: Run = match args.workload {
        "compile_catalog" => compile::run(cfg),
        "serve_warm" => serve::run(serve::Mode::Warm, cfg),
        "serve_churn" => serve::run(serve::Mode::Churn, cfg),
        "autotune_catalog" => tune::run(tune::Driver::Serial, cfg),
        _ => tune::run(tune::Driver::Served, cfg),
    }?;
    let metrics = if cfg.trace {
        run.layers
            .push(("host.reference_us", run.host.reference_us()));
        report::select_metrics(&PER_LAYER, &run.layers, true)?
    } else {
        let values = [
            ("throughput_ops_s", run.throughput_ops_s),
            ("latency_p50_us", stats::percentile(&run.latencies_us, 50.0)),
            ("latency_p99_us", run.latency_p99_us),
            ("setup_s", stats::median(&run.setup_s)),
            ("peak_rss_mib", peak_rss_mib()?),
        ];
        report::select_metrics(&END_TO_END, &values, false)?
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let header = vec![
        ("workload", Json::Str(args.workload.into())),
        ("seed", Json::Int(cfg.seed)),
        ("seconds", Json::Num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("nproc", Json::Int(nproc as u64)),
        ("host_reference_us", Json::Num(run.host.reference_us())),
        (
            "setup_s",
            Json::Arr(run.setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
    ];
    report::print(&header, &run, &metrics);
    if let Some(path) = &args.report {
        let text = report::json(header, &run, &metrics).render();
        std::fs::write(path, text + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("{}", report::result_line(&run, &metrics));
    Ok(run.tally.failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let a = args("--workload serve_churn --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(a.workload, "serve_churn");
        assert_eq!((a.cfg.seed, a.cfg.seconds, a.cfg.trace), (7, 3.0, true));
        assert_eq!(
            args("--workload compile_catalog")
                .expect("defaults")
                .cfg
                .seed,
            42
        );
        for bad in [
            "",
            "--workload nope",
            "--workload serve_warm --trace 2",
            "--workload serve_warm --seconds 0",
            "--workload serve_warm --seed",
            "--workload serve_warm --bogus 1",
        ] {
            assert!(args(bad).is_err(), "{bad:?} accepted");
        }
    }
}
