//! `serve_warm` and `serve_churn`: closed-loop clients, each waiting for
//! its reply before sending the next request, against the engine and the
//! sharded front door.

use crate::catalog::{self, Entry, Rows};
use crate::check::{bit_identical, Tally};
use crate::harness::{
    engine_config, reserve, set_up, slice_p99, slice_rate, sliced, Config, Fact, Run, Slice,
    CLIENTS, WORKERS,
};
use crate::host::Host;
use crate::rng::{digest, Draw, Schedule};
use crate::spans::{maybe_span, now_ns, self_us_by_name, Span, Tracer};
use crate::stages::{self, CompileSamples, Stages};
use crate::stats::{mean, percentile};
use multidim::Compiler;
use multidim_engine::{CacheStats, Engine, Request, Response};
use multidim_ir::Program;
use multidim_serve::{FrontDoor, FrontDoorConfig, FrontDoorStats};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Untimed requests per client before the window opens.
const WARMUP_REQUESTS: usize = 64;

/// Renamed copies of each catalog program on `serve_churn`.
const CHURN_VARIANTS: usize = 8;

/// Per-shard executable cache on `serve_churn`: far below the 216
/// fingerprints, so compiles and evictions run beside hits.
const CHURN_CACHE: usize = 16;

const ZIPF_SKEW: f64 = 1.0;

/// Requests per second to reserve sample space for; more than the host
/// this was written on reaches.
const MAX_RATE: f64 = 4_000.0;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// One engine, every catalog program already in its cache.
    Warm,
    /// Two front-door shards of one worker, small caches, eight renamed
    /// variants of every program.
    Churn,
}

enum Target {
    Engine(Engine),
    Door(FrontDoor),
}

impl Target {
    fn cache_stats(&self) -> CacheStats {
        match self {
            Target::Engine(e) => e.cache_stats(),
            Target::Door(d) => (0..d.shards()).map(|i| d.shard(i).cache_stats()).fold(
                CacheStats::default(),
                |a, s| CacheStats {
                    hits: a.hits + s.hits,
                    misses: a.misses + s.misses,
                    evictions: a.evictions + s.evictions,
                    coalesced: a.coalesced + s.coalesced,
                    failures: a.failures + s.failures,
                },
            ),
        }
    }

    fn door_stats(&self) -> FrontDoorStats {
        match self {
            Target::Engine(_) => FrontDoorStats::default(),
            Target::Door(d) => d.stats(),
        }
    }

    /// Submit and wait. Returns the response, the shard that served it
    /// and how long the submit call took.
    fn serve(
        &self,
        t: Option<&Tracer>,
        request_id: u64,
        request: Request,
    ) -> Result<(Response, usize, f64), String> {
        let start = Instant::now();
        match self {
            Target::Engine(e) => {
                let ticket = maybe_span(t, "submit", request_id, || e.submit(request))
                    .map_err(|x| x.to_string())?;
                let submit_us = start.elapsed().as_secs_f64() * 1e6;
                let response = maybe_span(t, "wait", request_id, || ticket.wait())
                    .map_err(|x| x.to_string())?;
                Ok((response, 0, submit_us))
            }
            Target::Door(d) => {
                let ticket = maybe_span(t, "submit", request_id, || d.submit("bench", request))
                    .map_err(|x| x.to_string())?;
                let submit_us = start.elapsed().as_secs_f64() * 1e6;
                let served = maybe_span(t, "wait", request_id, || ticket.wait())
                    .map_err(|x| x.to_string())?;
                Ok((served.response, served.shard, submit_us))
            }
        }
    }
}

/// A program as the clients send it: a catalog program, possibly renamed,
/// which must give its base program's reference outputs.
struct Variant {
    program: Program,
    base: usize,
}

struct Setup {
    entries: Vec<Entry>,
    target: Target,
    /// In rank order: variant `r` is drawn with weight `1 / (r + 1)`.
    variants: Vec<Variant>,
}

fn setup(mode: Mode, rows: &mut Rows) -> Result<Setup, String> {
    let entries = catalog::load(&Compiler::new(), rows)?;
    let copies = if mode == Mode::Warm {
        1
    } else {
        CHURN_VARIANTS
    };
    // Ranked from the end of the catalog: in catalog order the median
    // request fell on the gap between cheap and costly programs.
    let variants: Vec<Variant> = (0..copies)
        .flat_map(|v| {
            entries.iter().enumerate().rev().map(move |(base, e)| {
                let mut program = e.program.clone();
                if mode == Mode::Churn {
                    program.name = format!("{}@{v}", e.name());
                }
                Variant { program, base }
            })
        })
        .collect();
    let target = start_target(mode, &entries, &variants)?;
    if let Target::Door(door) = &target {
        let fingerprints: HashSet<_> = variants
            .iter()
            .map(|v| door.fingerprint_of(&v.program, &entries[v.base].bindings))
            .collect();
        if fingerprints.len() != variants.len() {
            return Err(format!(
                "{} variants share {} fingerprints",
                variants.len(),
                fingerprints.len()
            ));
        }
    }
    Ok(Setup {
        entries,
        target,
        variants,
    })
}

/// A new engine with every program compiled into its cache, or a new
/// front door with empty caches.
fn start_target(mode: Mode, entries: &[Entry], variants: &[Variant]) -> Result<Target, String> {
    Ok(match mode {
        Mode::Warm => {
            let engine = Engine::new(Compiler::new(), engine_config(WORKERS, 128));
            for v in variants {
                let e = &entries[v.base];
                let request = Request::new(v.program.clone(), e.bindings.clone(), e.inputs.clone());
                let response = engine
                    .submit(request)
                    .and_then(|t| t.wait())
                    .map_err(|x| format!("priming `{}`: {x}", e.name()))?;
                bit_identical(e.name(), &e.outputs, &response.run.outputs)?;
            }
            Target::Engine(engine)
        }
        Mode::Churn => Target::Door(FrontDoor::new(
            Compiler::new(),
            FrontDoorConfig {
                shards: WORKERS,
                shard: engine_config(1, CHURN_CACHE),
                ..FrontDoorConfig::default()
            },
        )),
    })
}

/// One served request as its client saw it; times are unscaled.
struct Sample {
    start_ns: u64,
    latency_us: f64,
    submit_us: f64,
    queue_us: f64,
    service_us: f64,
    /// Resolving the executable: a cache lookup on a hit, the whole
    /// compile on a miss.
    lookup_us: f64,
    run_us: f64,
    cache_hit: bool,
    shard: usize,
}

#[derive(Debug, Clone, Copy)]
enum Stop {
    After(usize),
    At(Instant),
}

/// A closed-loop client: send, wait, check, repeat.
fn client(
    s: &Setup,
    schedule: &mut Schedule,
    stop: Stop,
    t: Option<&Tracer>,
    client_id: usize,
) -> (Vec<Sample>, Tally) {
    let mut samples = Vec::new();
    let mut tally = Tally::default();
    for seq in 0.. {
        match stop {
            Stop::After(n) if seq >= n => break,
            Stop::At(when) if Instant::now() >= when => break,
            _ => {}
        }
        let v = &s.variants[schedule.next().expect("endless schedule")];
        let e = &s.entries[v.base];
        let request = Request::new(v.program.clone(), e.bindings.clone(), e.inputs.clone());
        let request_id = ((client_id as u64) << 32) | seq as u64;
        let start_ns = now_ns();
        let start = Instant::now();
        let served = maybe_span(t, "request", request_id, || {
            s.target.serve(t, request_id, request)
        });
        let latency_us = start.elapsed().as_secs_f64() * 1e6;
        let outcome = served.and_then(|(r, shard, submit_us)| {
            bit_identical(e.name(), &e.outputs, &r.run.outputs)?;
            samples.push(Sample {
                start_ns,
                latency_us,
                submit_us,
                queue_us: r.queue_wait.as_secs_f64() * 1e6,
                service_us: r.service_time.as_secs_f64() * 1e6,
                lookup_us: r.compile_time.as_secs_f64() * 1e6,
                run_us: r.run_time.as_secs_f64() * 1e6,
                cache_hit: r.cache_hit,
                shard,
            });
            Ok(())
        });
        tally.record(outcome);
    }
    (samples, tally)
}

/// Run every client until `stop`; returns their samples, merged.
fn drive(
    s: &Setup,
    schedules: &mut [Schedule],
    stop: Stop,
    traced: bool,
    (tally, spans): (&mut Tally, &mut Vec<Span>),
) -> Vec<Sample> {
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter_mut()
            .enumerate()
            .map(|(c, schedule)| {
                scope.spawn(move || {
                    let tracer = traced.then(Tracer::new);
                    let (samples, tally) = client(s, schedule, stop, tracer.as_ref(), c);
                    (samples, tally, tracer.map(Tracer::into_spans))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for (samples, client_tally, client_spans) in results {
        all.extend(samples);
        tally.merge(client_tally);
        spans.extend(client_spans.unwrap_or_default());
    }
    all
}

/// What the clients measured over one phase of the window.
struct Phase {
    samples: Vec<Sample>,
    slices: Vec<Slice>,
    /// Cache and front-door counters, summed over the slices.
    cache: CacheStats,
    door: FrontDoorStats,
}

/// Drive the clients through `window` in slices. Each slice starts a
/// fresh target and warms it untimed: where a target's threads land on
/// the host's vCPUs is fixed for its lifetime and moved throughput by
/// ±10% from run to run, so fresh targets spread that over the slices.
fn measure(
    s: &mut Setup,
    mode: Mode,
    schedules: &mut [Schedule],
    window: Duration,
    traced: bool,
    run: &mut Run,
) -> Result<Phase, String> {
    let mut samples = Vec::with_capacity(reserve(window, MAX_RATE));
    let (mut cache, mut door) = (CacheStats::default(), FrontDoorStats::default());
    let slices = sliced(&mut run.host, window, |len| {
        s.target = start_target(mode, &s.entries, &s.variants)?;
        let warmup = Stop::After(WARMUP_REQUESTS);
        drive(
            s,
            schedules,
            warmup,
            false,
            (&mut run.tally, &mut run.spans),
        );
        let (cache0, door0) = (s.target.cache_stats(), s.target.door_stats());
        let slice = Slice::timed(len, |until| {
            let got = drive(
                s,
                schedules,
                Stop::At(until),
                traced,
                (&mut run.tally, &mut run.spans),
            );
            let n = got.len();
            samples.extend(got);
            n
        });
        let (cache1, door1) = (s.target.cache_stats(), s.target.door_stats());
        cache.hits += cache1.hits - cache0.hits;
        cache.misses += cache1.misses - cache0.misses;
        cache.evictions += cache1.evictions - cache0.evictions;
        cache.coalesced += cache1.coalesced - cache0.coalesced;
        door.coalesced += door1.coalesced - door0.coalesced;
        door.spilled += door1.spilled - door0.spilled;
        Ok(slice)
    })?;
    Ok(Phase {
        samples,
        slices,
        cache,
        door,
    })
}

pub fn run(mode: Mode, cfg: &Config) -> Result<Run, String> {
    let mut run = Run {
        host: Host::new(WORKERS),
        ..Run::default()
    };
    let mut rows = Rows::default();
    let mut s = set_up(cfg, &mut run, || setup(mode, &mut rows))?;
    let draw = Draw::zipf(s.variants.len(), ZIPF_SKEW);
    let order = match mode {
        Mode::Warm => Schedule::even,
        Mode::Churn => Schedule::random,
    };
    let mut schedules: Vec<Schedule> = (0..CLIENTS).map(|c| order(&draw, cfg.seed, c)).collect();
    let digest = digest(&schedules, 4096);

    let mut samples = CompileSamples::default();
    let sweep_tracer = Tracer::new();
    if cfg.trace {
        let compiler = Compiler::new();
        let stages = Stages::prepare(&compiler, &s.entries)?;
        run.host.sample();
        stages::sweep(
            &sweep_tracer,
            &compiler,
            &stages,
            &s.entries,
            &mut rows,
            &mut run.tally,
            &mut samples,
        );
    }

    // A traced run measures half its window untraced and half traced.
    let window = if cfg.trace {
        cfg.window() / 2
    } else {
        cfg.window()
    };
    let untraced = measure(&mut s, mode, &mut schedules, window, false, &mut run)?;
    run.throughput_ops_s = slice_rate(&run.host, &untraced.slices);
    run.latencies_us = untraced
        .samples
        .iter()
        .map(|m| run.scaled(m.start_ns, m.latency_us))
        .collect();
    run.latency_p99_us = slice_p99(&untraced.slices, &run.latencies_us);
    let hits = untraced.samples.iter().filter(|m| m.cache_hit).count();
    run.facts.extend([
        ("workers", Fact::Int(WORKERS as u64)),
        ("clients", Fact::Int(CLIENTS as u64)),
        ("samples", Fact::Int(untraced.samples.len() as u64)),
        ("variants", Fact::Int(s.variants.len() as u64)),
        (
            "hit_ratio",
            Fact::Num(hits as f64 / untraced.samples.len() as f64),
        ),
        ("cache_misses", Fact::Int(untraced.cache.misses)),
        ("schedule_digest", Fact::Text(format!("{digest:016x}"))),
    ]);
    if mode == Mode::Churn {
        run.facts.push(("shards", Fact::Int(WORKERS as u64)));
    }

    if cfg.trace {
        let traced = measure(&mut s, mode, &mut schedules, window, true, &mut run)?;
        run.spans.extend(sweep_tracer.into_spans());
        let self_us = self_us_by_name(&run.spans, &run.host);
        run.layers = stages::layer_metrics(&self_us, &samples, &run.host);
        run.layers.extend(serve_layers(mode, &traced, &run.host));
        run.layers.push((
            "trace.overhead_ratio",
            run.throughput_ops_s / slice_rate(&run.host, &traced.slices) - 1.0,
        ));
        run.facts
            .push(("traced_samples", Fact::Int(traced.samples.len() as u64)));
    }
    run.layers.push(("gpu_us_geomean", rows.gpu_us_geomean()));
    run.rows = rows;
    Ok(run)
}

/// The engine, cache and door layer metrics of a traced phase.
fn serve_layers(mode: Mode, phase: &Phase, host: &Host) -> Vec<(&'static str, f64)> {
    let samples = &phase.samples;
    let of = |f: fn(&Sample) -> f64| {
        samples
            .iter()
            .map(|m| f(m) * host.scale_at(m.start_ns))
            .collect::<Vec<f64>>()
    };
    let (hits, misses): (Vec<&Sample>, Vec<&Sample>) = samples.iter().partition(|m| m.cache_hit);
    let lookup = |v: &[&Sample]| {
        mean(
            &v.iter()
                .map(|m| m.lookup_us * host.scale_at(m.start_ns))
                .collect::<Vec<_>>(),
        )
    };
    let handoff = of(|m| m.latency_us - m.queue_us - m.service_us);
    let submit_p99 = percentile(&of(|m| m.submit_us), 99.0);
    let mut out = vec![
        (
            "engine.queue_wait_us_p99",
            percentile(&of(|m| m.queue_us), 99.0),
        ),
        ("engine.run_us_mean", mean(&of(|m| m.run_us))),
        ("engine.lookup_us_mean", lookup(&hits)),
        ("engine.compile_us_mean_miss", lookup(&misses)),
        ("engine.handoff_us_mean", mean(&handoff)),
        ("cache.hit_ratio", hits.len() as f64 / samples.len() as f64),
        ("cache.misses", phase.cache.misses as f64),
        ("cache.evictions", phase.cache.evictions as f64),
        ("cache.coalesced", phase.cache.coalesced as f64),
    ];
    match mode {
        Mode::Warm => out.push(("engine.submit_us_p99", submit_p99)),
        Mode::Churn => {
            let mut per_shard = [0usize; WORKERS];
            for m in samples {
                per_shard[m.shard] += 1;
            }
            let busiest = per_shard.iter().copied().max().unwrap_or(0);
            out.extend([
                ("door.submit_us_p99", submit_p99),
                ("door.coalesced", phase.door.coalesced as f64),
                ("door.spilled", phase.door.spilled as f64),
                (
                    "door.shard_share_max",
                    busiest as f64 / samples.len() as f64,
                ),
            ]);
        }
    }
    out
}
