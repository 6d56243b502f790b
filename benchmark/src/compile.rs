//! `compile_catalog`: one thread compiling catalog programs, drawn
//! uniformly, with no cache in front of the compiler.

use crate::catalog::{self, Rows};
use crate::harness::{reserve, set_up, slice_p99, slice_rate, sliced, Config, Fact, Run, Slice};
use crate::rng::{digest, Draw, Schedule};
use crate::spans::{now_ns, self_us_by_name, Tracer};
use crate::stages::{self, check_compiled, CompileSamples, Stages};
use multidim::Compiler;
use std::time::Instant;

/// Untimed compiles of every program before the window opens.
const WARMUP_PASSES: usize = 2;

/// Compiles per second to reserve sample space for; more than the host
/// this was written on reaches.
const MAX_RATE: f64 = 20_000.0;

pub fn run(cfg: &Config) -> Result<Run, String> {
    let compiler = Compiler::new();
    let mut run = Run::default();
    let mut rows = Rows::default();
    let entries = set_up(cfg, &mut run, || catalog::load(&compiler, &mut rows))?;
    for _ in 0..WARMUP_PASSES {
        for e in &entries {
            std::hint::black_box(compiler.compile(&e.program, &e.bindings).ok());
        }
    }

    let mut schedule = Schedule::even(&Draw::Uniform(entries.len()), cfg.seed, 0);
    let digest = digest(std::slice::from_ref(&schedule), 4096);
    let mut samples = CompileSamples::default();
    let tracer = Tracer::new();
    let stages = if cfg.trace {
        let stages = Stages::prepare(&compiler, &entries)?;
        run.host.sample();
        stages::sweep(
            &tracer,
            &compiler,
            &stages,
            &entries,
            &mut rows,
            &mut run.tally,
            &mut samples,
        );
        Some(stages)
    } else {
        None
    };

    let window = cfg.window();
    if let Some(stages) = &stages {
        // Traced: every program compiles both ways, interleaved, so the
        // two see the same host.
        let mut request = 0;
        sliced(&mut run.host, window, |len| {
            Ok(Slice::timed(len, |until| {
                let before = request;
                while Instant::now() < until {
                    let i = schedule.next().expect("endless schedule");
                    let pair = (i, &entries[i]);
                    let staged_first = request % 2 == 0;
                    for outcome in stages.compile_both(
                        &tracer,
                        &compiler,
                        request,
                        pair,
                        staged_first,
                        &mut samples,
                    ) {
                        run.tally.record(outcome);
                    }
                    request += 1;
                }
                (request - before) as usize
            }))
        })?;
        run.spans = tracer.into_spans();
        let self_us = self_us_by_name(&run.spans, &run.host);
        run.layers = stages::layer_metrics(&self_us, &samples, &run.host);
        let overhead = stages::compile_overhead(&run.spans, &samples, &run.host);
        run.layers.push(("trace.overhead_ratio", overhead));
        run.facts.push(("samples", Fact::Int(request)));
    } else {
        // (start, unscaled µs) of every compile; checks run untimed after
        // each.
        let mut timed: Vec<(u64, f64)> = Vec::with_capacity(reserve(window, MAX_RATE));
        let slices = sliced(&mut run.host, window, |len| {
            Ok(Slice::timed(len, |until| {
                let before = timed.len();
                while Instant::now() < until {
                    let i = schedule.next().expect("endless schedule");
                    let e = &entries[i];
                    let start_ns = now_ns();
                    let start = Instant::now();
                    let exe = compiler.compile(&e.program, &e.bindings);
                    let us = start.elapsed().as_secs_f64() * 1e6;
                    timed.push((start_ns, us));
                    run.tally
                        .record(exe.map_err(|x| x.to_string()).and_then(|exe| {
                            check_compiled(e, exe.device(), &exe.mapping, &exe.kernels)
                        }));
                }
                timed.len() - before
            }))
        })?;
        run.throughput_ops_s = slice_rate(&run.host, &slices);
        run.latencies_us = timed.iter().map(|&(t, us)| run.scaled(t, us)).collect();
        run.latency_p99_us = slice_p99(&slices, &run.latencies_us);
        run.facts.push(("samples", Fact::Int(timed.len() as u64)));
    }
    run.facts.push(("threads", Fact::Int(1)));
    run.layers.push(("gpu_us_geomean", rows.gpu_us_geomean()));
    run.facts
        .push(("schedule_digest", Fact::Text(format!("{digest:016x}"))));
    run.rows = rows;
    Ok(run)
}
