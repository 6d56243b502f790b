//! `autotune_catalog` and `autotune_served`: whole passes of autotuning
//! over the catalog, in an order the seed shuffles.

use crate::catalog::{self, Entry, Rows};
use crate::harness::{engine_config, set_up, Config, Fact, Run, WORKERS};
use crate::rng::SplitMix64;
use crate::spans::{now_ns, self_us_by_name, Span, Tracer};
use crate::stages::{self, CompileSamples, Stages};
use crate::stats::{median, median_p99};
use multidim::prelude::MappingDecision;
use multidim::{Compiler, Executable, LocalityFacts, TunePrepared};
use multidim_codegen::{lower_planned, validate_kernels};
use multidim_engine::Engine;
use multidim_mapping::{select, tune_pruned, TuneOptions};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Driver {
    /// `Compiler::autotune`: one thread, candidates pruned by the
    /// locality lower bound.
    Serial,
    /// `Engine::autotune`: every candidate measured across the engine's
    /// workers.
    Served,
}

impl Driver {
    /// Threads that share the measurements.
    fn threads(self) -> usize {
        match self {
            Driver::Serial => 1,
            Driver::Served => WORKERS,
        }
    }
}

/// Candidate counts of one program's tuning.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Counts {
    candidates: usize,
    measured: usize,
    pruned: usize,
    skipped: usize,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.candidates += o.candidates;
        self.measured += o.measured;
        self.pruned += o.pruned;
        self.skipped += o.skipped;
    }
}

/// Tune one program through the driver's public entry point. The engine
/// reports only its measured count.
fn autotune(
    driver: Driver,
    compiler: &Compiler,
    engine: &Engine,
    e: &Entry,
) -> Result<(Executable, MappingDecision, Counts), String> {
    let opts = TuneOptions::default();
    match driver {
        Driver::Serial => {
            let (exe, r) = compiler
                .autotune(&e.program, &e.bindings, &e.inputs, &opts)
                .map_err(|x| x.to_string())?;
            let counts = Counts {
                candidates: r.measured.len() + r.pruned + r.skipped,
                measured: r.measured.len(),
                pruned: r.pruned,
                skipped: r.skipped,
            };
            Ok((exe, r.best, counts))
        }
        Driver::Served => {
            let (exe, record) = engine
                .autotune(&e.program, &e.bindings, &e.inputs, &opts)
                .map_err(|x| x.to_string())?;
            let counts = Counts {
                measured: record.measured as usize,
                ..Counts::default()
            };
            Ok(((*exe).clone(), record.mapping, counts))
        }
    }
}

/// The driver's tuning loop rebuilt from public calls, with spans:
/// `tune.plan` (`prepare_tune`), `tune.bound` (the locality lower bound
/// the serial driver prunes with), `tune.measure` (`measure_candidate`)
/// and `tune.compile` (`compile_tuned`).
fn traced_autotune(
    t: &Tracer,
    request: u64,
    driver: Driver,
    (compiler, stages): (&Compiler, &Stages),
    e: &Entry,
) -> Result<(MappingDecision, Counts, Vec<Span>), String> {
    let (b, inputs) = (&e.bindings, &e.inputs);
    let mut helper_spans = Vec::new();
    let result = t.span("tune", request, || {
        let prepared = t
            .span("tune.plan", request, || {
                compiler.prepare_tune(&e.program, b, &TuneOptions::default())
            })
            .map_err(|x| x.to_string())?;
        let measure = |t: &Tracer, m: &MappingDecision| {
            t.span("tune.measure", request, || {
                compiler.measure_candidate(&prepared, b, inputs, m)
            })
        };
        let result = match driver {
            Driver::Serial => {
                let facts = t.span("tune.bound", request, || {
                    LocalityFacts::of(&prepared.program, b)
                });
                tune_pruned(
                    &prepared.plan,
                    usize::MAX,
                    |c| {
                        t.span("tune.bound", request, || {
                            bound(stages, &prepared, e, &facts, &c.mapping)
                        })
                    },
                    |c| measure(t, &c.mapping),
                )
            }
            Driver::Served => {
                let n = prepared.plan.candidates.len();
                let costs = Mutex::new(vec![None; n]);
                let next = AtomicUsize::new(0);
                let parent = t.current();
                std::thread::scope(|scope| {
                    let workers: Vec<_> = (0..WORKERS)
                        .map(|_| {
                            scope.spawn(|| {
                                let helper = Tracer::under(parent);
                                loop {
                                    let i = next.fetch_add(1, Ordering::Relaxed);
                                    let Some(c) = prepared.plan.candidates.get(i) else {
                                        break;
                                    };
                                    let cost = measure(&helper, &c.mapping);
                                    costs.lock().expect("costs lock")[i] = cost;
                                }
                                helper.into_spans()
                            })
                        })
                        .collect();
                    for w in workers {
                        helper_spans.extend(w.join().expect("measure thread panicked"));
                    }
                });
                select(&prepared.plan, &costs.into_inner().expect("costs lock"))
            }
        }
        .ok_or("no candidate was executable")?;
        t.span("tune.compile", request, || {
            compiler.compile_tuned(&prepared, b, result.best.clone())
        })
        .map_err(|x| x.to_string())?;
        Ok::<_, String>((
            result.best,
            Counts {
                candidates: prepared.plan.candidates.len(),
                measured: result.measured.len(),
                pruned: result.pruned,
                skipped: result.skipped,
            },
        ))
    })?;
    Ok((result.0, result.1, helper_spans))
}

/// The proven lower bound on one candidate's simulated seconds, as the
/// serial driver computes it before deciding whether to measure.
fn bound(
    stages: &Stages,
    prepared: &TunePrepared,
    e: &Entry,
    facts: &LocalityFacts,
    mapping: &MappingDecision,
) -> Option<f64> {
    let (gpu, opts) = (stages.gpu(), stages.options());
    let kernels = lower_planned(&prepared.program, mapping, opts, &prepared.dynpar).ok()?;
    validate_kernels(&kernels, gpu.smem_per_sm).ok()?;
    let summary = multidim::locality_of(
        facts,
        mapping,
        &kernels,
        &e.bindings,
        gpu,
        opts.smem_prefetch,
    );
    Some(summary.seconds_lower_bound)
}

pub fn run(driver: Driver, cfg: &Config) -> Result<Run, String> {
    let mut run = Run::default();
    let mut rows = Rows::default();
    let (entries, engine) = set_up(cfg, &mut run, || {
        let compiler = Compiler::new();
        let entries = catalog::load(&compiler, &mut rows)?;
        Ok((entries, Engine::new(compiler, engine_config(WORKERS, 128))))
    })?;
    let compiler = Compiler::new();
    let n = entries.len();
    let mut rng = SplitMix64::new(cfg.seed);
    let mut selected: Vec<Option<MappingDecision>> = vec![None; n];
    let mut counts;
    let mut passes_s = Vec::new();

    // Whole passes only: a partial pass would weigh programs by where the
    // window happened to close. A traced run makes one untraced pass. The
    // host is sampled before each program, while the engine is idle.
    let window = cfg.window();
    let opened = Instant::now();
    let mut timed: Vec<(u64, f64)> = Vec::new();
    loop {
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let pass_start = timed.len();
        let pass_opened = Instant::now();
        counts = Counts::default();
        for &i in &order {
            let e = &entries[i];
            run.host.sample();
            let start_ns = now_ns();
            let start = Instant::now();
            let tuned = autotune(driver, &compiler, &engine, e);
            let dt = start.elapsed().as_secs_f64();
            timed.push((start_ns, dt));
            rows.tune_s[i].push(dt);
            let outcome = tuned.and_then(|(exe, mapping, c)| {
                counts += c;
                check_tuned(e, &exe, &mapping, &mut selected[i], &mut rows, i)
            });
            run.tally.record(outcome);
        }
        run.host.sample();
        passes_s.push(
            timed[pass_start..]
                .iter()
                .map(|&(t, s)| run.scaled(t, s))
                .sum::<f64>(),
        );
        let pass = pass_opened.elapsed();
        if cfg.trace || opened.elapsed() + pass > window {
            break;
        }
    }
    run.latencies_us = timed.iter().map(|&(t, s)| run.scaled(t, s) * 1e6).collect();
    // Per pass, as the other workloads take it per slice: a pass's 99th
    // percentile is its slowest program, and pooling the passes would
    // keep only the slowest tuning of the run.
    run.latency_p99_us = median_p99(run.latencies_us.chunks(n));
    run.throughput_ops_s = n as f64 / median(&passes_s);
    run.facts.extend([
        ("threads", Fact::Int(driver.threads() as u64)),
        ("passes", Fact::Int(passes_s.len() as u64)),
        ("samples", Fact::Int(run.latencies_us.len() as u64)),
        ("pass_s_median", Fact::Num(median(&passes_s))),
    ]);

    if driver == Driver::Serial {
        // The served driver must select what the serial one selected.
        for (i, e) in entries.iter().enumerate() {
            let outcome = autotune(Driver::Served, &compiler, &engine, e).and_then(|(_, m, _)| {
                if Some(&m) == selected[i].as_ref() {
                    Ok(())
                } else {
                    Err(format!("`{}`: Engine::autotune selected {m}", e.name()))
                }
            });
            run.tally.record(outcome);
        }
    }

    if cfg.trace {
        let untraced = (counts, passes_s[0]);
        traced_pass(
            driver, &compiler, &entries, &selected, untraced, &mut rng, &mut rows, &mut run,
        )?;
    }
    run.layers.push(("gpu_us_geomean", rows.gpu_us_geomean()));
    run.layers
        .push(("tuned_gpu_us_geomean", rows.tuned_gpu_us_geomean()));
    run.rows = rows;
    Ok(run)
}

/// A tuned executable runs correctly, and the program's selection is the
/// same on every pass.
fn check_tuned(
    e: &Entry,
    exe: &Executable,
    mapping: &MappingDecision,
    selected: &mut Option<MappingDecision>,
    rows: &mut Rows,
    i: usize,
) -> Result<(), String> {
    let report = exe.run(&e.inputs).map_err(|x| x.to_string())?;
    e.check_interpreter(&report.outputs)?;
    rows.tuned_gpu_us[i] = Some(report.gpu_seconds * 1e6);
    match selected {
        Some(first) if first != mapping => {
            Err(format!("`{}`: selected {mapping} after {first}", e.name()))
        }
        Some(_) => Ok(()),
        None => {
            *selected = Some(mapping.clone());
            Ok(())
        }
    }
}

/// The traced phase: the compile-stage sweep, then one pass of
/// [`traced_autotune`], checked against the untraced pass, whose counts
/// and wall time are `untraced`.
#[allow(clippy::too_many_arguments)]
fn traced_pass(
    driver: Driver,
    compiler: &Compiler,
    entries: &[Entry],
    selected: &[Option<MappingDecision>],
    (untraced, untraced_s): (Counts, f64),
    rng: &mut SplitMix64,
    rows: &mut Rows,
    run: &mut Run,
) -> Result<(), String> {
    let tracer = Tracer::new();
    let mut samples = CompileSamples::default();
    let stages = Stages::prepare(compiler, entries)?;
    run.host.sample();
    stages::sweep(
        &tracer,
        compiler,
        &stages,
        entries,
        rows,
        &mut run.tally,
        &mut samples,
    );

    let mut order: Vec<usize> = (0..entries.len()).collect();
    rng.shuffle(&mut order);
    let mut traced = Counts::default();
    let mut helper_spans = Vec::new();
    let mut traced_s = 0.0;
    for (k, &i) in order.iter().enumerate() {
        let e = &entries[i];
        run.host.sample();
        let start_ns = now_ns();
        let start = Instant::now();
        let tuned = traced_autotune(&tracer, k as u64, driver, (compiler, &stages), e);
        traced_s += start.elapsed().as_secs_f64() * run.host.scale_at(start_ns);
        let outcome = tuned.and_then(|(mapping, c, spans)| {
            traced += c;
            helper_spans.extend(spans);
            if Some(&mapping) == selected[i].as_ref() {
                Ok(())
            } else {
                Err(format!("`{}`: traced tuning selected {mapping}", e.name()))
            }
        });
        run.tally.record(outcome);
    }
    run.host.sample();
    run.tally.record(match driver {
        Driver::Serial if traced != untraced => Err(format!(
            "traced tuning counted {traced:?}, Compiler::autotune {untraced:?}"
        )),
        Driver::Served if traced.measured != untraced.measured => Err(format!(
            "traced tuning measured {}, Engine::autotune {}",
            traced.measured, untraced.measured
        )),
        _ => Ok(()),
    });

    run.spans = tracer.into_spans();
    run.spans.extend(helper_spans);
    let self_us = self_us_by_name(&run.spans, &run.host);
    let total_s = |name: &str| {
        self_us
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<f64>() / 1e6)
    };
    let (plan_s, measure_s) = (total_s("tune.plan"), total_s("tune.measure"));
    run.layers = stages::layer_metrics(&self_us, &samples, &run.host);
    run.layers.extend([
        ("tune.candidates", traced.candidates as f64),
        ("tune.measured", traced.measured as f64),
        ("tune.pruned", traced.pruned as f64),
        ("tune.skipped", traced.skipped as f64),
        (
            "tune.pruned_ratio",
            traced.pruned as f64 / traced.candidates as f64,
        ),
        ("tune.plan_s", plan_s),
        ("tune.measure_s", measure_s),
        (
            "tune.residual_s",
            untraced_s - plan_s - measure_s / driver.threads() as f64,
        ),
        ("trace.overhead_ratio", traced_s / untraced_s - 1.0),
    ]);
    Ok(())
}
