//! The fleet front door: N engine shards behind one submit surface.
//!
//! A request travels admission → routing → shedding → shard queue:
//!
//! 1. **Admission** — the tenant's token bucket (then the shared spare
//!    bucket) must yield a token, else the request is rejected with
//!    [`ServeError::QuotaExceeded`] and a retry hint.
//! 2. **Routing** — the request's program fingerprint picks its *home*
//!    shard by rendezvous hashing ([`Router`]), so a program always
//!    lands on the shard whose hot cache holds it. That is also what
//!    makes cold compiles single-flight fleet-wide: every submission of
//!    a program queues on one shard, whose compile cache runs one
//!    compile and parks the concurrent requests on it (only a spilled
//!    request can compile it again, on its spill shard).
//! 3. **Shedding** — if the home shard's estimated drain time already
//!    exceeds the request's deadline, the front door sheds at admission
//!    ([`ServeError::DeadlineUnmeetable`]) instead of queueing doomed
//!    work.
//! 4. **Spill** — if the home shard rejects by backpressure, the
//!    request falls to the least-loaded other shard; if that rejects
//!    too, the request is shed ([`ServeError::Overloaded`]) with
//!    per-tenant accounting.
//!
//! The cache is tiered: each shard's in-memory executable cache is the
//! hot tier, and a shared persistent tuning store (point every shard's
//! [`EngineConfig::store_path`] at the same file) is the warm tier —
//! a shard that has never seen a program still skips the mapping
//! search when any previous process tuned it. [`FrontDoor::preload`]
//! optionally walks a catalog through the fleet at startup so serving
//! begins warm.

use crate::error::ServeError;
use crate::quota::{Admission, QuotaPolicy};
use crate::router::Router;
use multidim::{Compiler, Executable, Fingerprint};
use multidim_engine::{
    trace_outcome, Engine, EngineConfig, EngineError, Request, Response, Ticket as EngineTicket,
    TuneRecord,
};
use multidim_obs::{
    Counter, CounterFamily, GaugeFamily, Histogram, HistogramFamily, Registry, Slo, SloStatus,
    SloTracker,
};
use multidim_trace::{RequestRoot, TraceContext, TraceOutcome};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Front-door sizing and policy.
#[derive(Debug, Clone)]
pub struct FrontDoorConfig {
    /// Engine shards to run. Default 4.
    pub shards: usize,
    /// Configuration applied to every shard. Point `store_path` at one
    /// shared file to give the fleet a common warm tier. Default:
    /// [`EngineConfig::default`].
    pub shard: EngineConfig,
    /// Per-tenant admission policy. Default: unlimited.
    pub quota: QuotaPolicy,
}

impl Default for FrontDoorConfig {
    fn default() -> FrontDoorConfig {
        FrontDoorConfig {
            shards: 4,
            shard: EngineConfig::default(),
            quota: QuotaPolicy::default(),
        }
    }
}

/// The availability each tenant's SLO tracker is judged against.
const TENANT_AVAILABILITY: f64 = 0.99;

/// The p99 latency, in seconds, each tenant's SLO tracker is judged
/// against.
const TENANT_P99_SECONDS: f64 = 0.050;

/// SLO windows retained per tenant (the burn-rate horizon).
const SLO_WINDOWS: usize = 64;

/// Front-door metric handles, all registered on one [`Registry`].
struct FrontMetrics {
    requests: Arc<Counter>,
    completed: Arc<Counter>,
    expired: Arc<Counter>,
    failed: Arc<Counter>,
    quota_rejected: Arc<Counter>,
    shed_deadline: Arc<Counter>,
    shed_overload: Arc<Counter>,
    spilled: Arc<Counter>,
    preloaded: Arc<Counter>,
    latency: Arc<Histogram>,
    tenant_requests: Arc<CounterFamily>,
    tenant_completed: Arc<CounterFamily>,
    tenant_quota_rejected: Arc<CounterFamily>,
    tenant_shed: Arc<CounterFamily>,
    tenant_failed: Arc<CounterFamily>,
    tenant_latency: Arc<HistogramFamily>,
    shard_requests: Arc<CounterFamily>,
    shard_spills: Arc<CounterFamily>,
    shard_queue_depth: Arc<GaugeFamily>,
    shard_in_flight: Arc<GaugeFamily>,
}

impl FrontMetrics {
    fn new(registry: &Registry) -> FrontMetrics {
        FrontMetrics {
            requests: registry.counter(
                "serve_requests_total",
                "requests submitted to the front door",
            ),
            completed: registry.counter("serve_completed_total", "requests served successfully"),
            expired: registry.counter(
                "serve_expired_total",
                "requests whose deadline expired in a shard",
            ),
            failed: registry.counter(
                "serve_failed_total",
                "requests that failed (compile/run/panic/timeout)",
            ),
            quota_rejected: registry.counter(
                "serve_quota_rejected_total",
                "requests rejected by tenant quota",
            ),
            shed_deadline: registry.counter(
                "serve_shed_deadline_total",
                "requests shed at admission: deadline unmeetable",
            ),
            shed_overload: registry.counter(
                "serve_shed_overload_total",
                "requests shed after every eligible shard rejected",
            ),
            spilled: registry.counter(
                "serve_spilled_total",
                "requests spilled off their home shard",
            ),
            preloaded: registry
                .counter("serve_preloaded_total", "catalog entries warmed by preload"),
            latency: registry.histogram(
                "serve_request_seconds",
                "end-to-end latency of served requests",
            ),
            tenant_requests: registry.counter_family(
                "serve_tenant_requests",
                "requests by tenant",
                "tenant",
            ),
            tenant_completed: registry.counter_family(
                "serve_tenant_completed",
                "completions by tenant",
                "tenant",
            ),
            tenant_quota_rejected: registry.counter_family(
                "serve_tenant_quota_rejected",
                "quota rejections by tenant",
                "tenant",
            ),
            tenant_shed: registry.counter_family(
                "serve_tenant_shed",
                "overload/deadline sheds by tenant",
                "tenant",
            ),
            tenant_failed: registry.counter_family(
                "serve_tenant_failed",
                "failures by tenant",
                "tenant",
            ),
            tenant_latency: registry.histogram_family(
                "serve_tenant_request_seconds",
                "request latency by tenant",
                "tenant",
            ),
            shard_requests: registry.counter_family(
                "serve_shard_requests",
                "requests queued by shard",
                "shard",
            ),
            shard_spills: registry.counter_family(
                "serve_shard_spills",
                "spilled requests received by shard",
                "shard",
            ),
            shard_queue_depth: registry.gauge_family(
                "serve_shard_queue_depth",
                "request-queue depth by shard",
                "shard",
            ),
            shard_in_flight: registry.gauge_family(
                "serve_shard_in_flight",
                "requests being processed by shard",
                "shard",
            ),
        }
    }
}

/// State shared between the front door and its outstanding tickets.
struct DoorShared {
    registry: Arc<Registry>,
    metrics: FrontMetrics,
    slo: Mutex<BTreeMap<String, SloTracker>>,
}

impl DoorShared {
    /// Record one outcome on the tenant's SLO tracker, creating it on
    /// first sight.
    fn record_slo(&self, tenant: &str, latency_seconds: f64, success: bool) {
        let mut map = self.slo.lock().expect("slo lock poisoned");
        let tracker = map.entry(tenant.to_string()).or_insert_with(|| {
            let slo = Slo::new(tenant, TENANT_AVAILABILITY, TENANT_P99_SECONDS);
            SloTracker::new(slo, SLO_WINDOWS)
        });
        tracker.record(latency_seconds, success);
    }

    /// Account a finished request against counters, latency histograms,
    /// and the tenant's SLO. `exemplar` is the kept trace id, if the
    /// tail sampler retained this request's trace — the latency sample
    /// then publishes it as a bucket exemplar (only kept traces may be
    /// published, or exemplar lookups would dangle).
    fn record_outcome(
        &self,
        tenant: &str,
        outcome: &Result<Response, EngineError>,
        exemplar: Option<u128>,
    ) {
        let m = &self.metrics;
        match outcome {
            Ok(resp) => {
                let latency = (resp.queue_wait + resp.service_time).as_secs_f64();
                m.completed.inc();
                m.tenant_completed.with(tenant).inc();
                match exemplar {
                    Some(id) => {
                        m.latency.record_with_exemplar(latency, id);
                        m.tenant_latency
                            .with(tenant)
                            .record_with_exemplar(latency, id);
                    }
                    None => {
                        m.latency.record(latency);
                        m.tenant_latency.with(tenant).record(latency);
                    }
                }
                self.record_slo(tenant, latency, true);
            }
            Err(EngineError::DeadlineExceeded { .. }) => {
                m.expired.inc();
                m.tenant_shed.with(tenant).inc();
                self.record_slo(tenant, 0.0, false);
            }
            Err(EngineError::Rejected { .. }) => {
                // Backpressure is normally handled at submit time; a
                // rejection surfacing here still counts as a shed.
                m.shed_overload.inc();
                m.tenant_shed.with(tenant).inc();
                self.record_slo(tenant, 0.0, false);
            }
            Err(_) => {
                m.failed.inc();
                m.tenant_failed.with(tenant).inc();
                self.record_slo(tenant, 0.0, false);
            }
        }
    }
}

/// A trace the door minted. The door owns its root span, which covers
/// admission → outcome and carries the routing facts, so a stored trace
/// reads as one stitched tree: the serve root, then the shard's
/// queue/compile/run children.
struct DoorTrace {
    ctx: TraceContext,
    admitted: Instant,
    /// The program name, kept only for traced requests.
    workload: String,
}

/// Record the door's root span and seal the trace, when the door minted
/// one. Returns the trace id when the tail sampler kept the trace.
fn finish_door_trace(
    trace: Option<&DoorTrace>,
    tenant: &str,
    shard: Option<usize>,
    spilled: bool,
    outcome: TraceOutcome,
    reason: Option<&impl std::fmt::Display>,
    latency_seconds: Option<f64>,
) -> Option<u128> {
    let trace = trace?;
    let mut args: Vec<(&'static str, multidim_trace::Value)> =
        vec![("tenant", tenant.into()), ("spilled", spilled.into())];
    if let Some(shard) = shard {
        args.push(("shard", (shard as u64).into()));
    }
    let root = RequestRoot {
        cat: "serve",
        start: trace.admitted,
        workload: &trace.workload,
        args,
    };
    multidim_trace::finish_request(&trace.ctx, root, outcome, reason, latency_seconds)
}

/// A front-door completion handle: the shard ticket plus the routing
/// facts (tenant, shard, spill flag) that annotate the
/// response and drive per-tenant accounting when the result lands.
pub struct Ticket {
    inner: EngineTicket,
    shared: Arc<DoorShared>,
    tenant: String,
    /// The trace the door minted for this request (`None` when tracing
    /// is off or an upstream caller supplied its own context).
    trace: Option<DoorTrace>,
    /// Shard the request was queued on.
    pub shard: usize,
    /// `true` when the home shard rejected and the request ran on the
    /// spill target instead.
    pub spilled: bool,
}

impl Ticket {
    fn conclude(
        shared: &DoorShared,
        trace: Option<&DoorTrace>,
        tenant: &str,
        shard: usize,
        spilled: bool,
        outcome: Result<Response, EngineError>,
    ) -> Result<ServeResponse, ServeError> {
        let latency = outcome
            .as_ref()
            .ok()
            .map(|resp| (resp.queue_wait + resp.service_time).as_secs_f64());
        let kept = finish_door_trace(
            trace,
            tenant,
            Some(shard),
            spilled,
            trace_outcome(&outcome),
            outcome.as_ref().err(),
            latency,
        );
        shared.record_outcome(tenant, &outcome, kept);
        match outcome {
            Ok(response) => Ok(ServeResponse {
                tenant: tenant.to_string(),
                shard,
                spilled,
                response,
            }),
            Err(e) => Err(ServeError::Engine(e)),
        }
    }

    /// Block until the response arrives.
    pub fn wait(self) -> Result<ServeResponse, ServeError> {
        let outcome = self.inner.wait();
        let trace = self.trace.as_ref();
        Self::conclude(
            &self.shared,
            trace,
            &self.tenant,
            self.shard,
            self.spilled,
            outcome,
        )
    }

    /// Block up to `timeout`. On expiry the request may still complete
    /// in a shard, but its result is discarded and the wait is
    /// accounted as a failure.
    pub fn wait_timeout(self, timeout: Duration) -> Result<ServeResponse, ServeError> {
        let outcome = self.inner.wait_timeout(timeout);
        let trace = self.trace.as_ref();
        Self::conclude(
            &self.shared,
            trace,
            &self.tenant,
            self.shard,
            self.spilled,
            outcome,
        )
    }

    /// Park up to `timeout` for the result to become ready without
    /// consuming it. Returns `true` when a subsequent [`Ticket::poll`]
    /// will yield the outcome.
    pub fn wait_ready(&self, timeout: Duration) -> bool {
        self.inner.wait_ready(timeout)
    }

    /// Non-blocking check; yields the outcome exactly once.
    pub fn poll(&self) -> Option<Result<ServeResponse, ServeError>> {
        let outcome = self.inner.poll()?;
        let trace = self.trace.as_ref();
        Some(Self::conclude(
            &self.shared,
            trace,
            &self.tenant,
            self.shard,
            self.spilled,
            outcome,
        ))
    }
}

/// A served request, annotated with how the front door handled it.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// The submitting tenant.
    pub tenant: String,
    /// Shard that served the request.
    pub shard: usize,
    /// `true` when the request ran off its home shard.
    pub spilled: bool,
    /// The shard's response.
    pub response: Response,
}

/// What [`FrontDoor::preload`] accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreloadReport {
    /// Entries now resident in a shard's hot cache.
    pub warmed: usize,
    /// Entries whose mapping came from the warm tier (tuning store)
    /// rather than a fresh search.
    pub tuned: usize,
    /// Entries that failed to compile or run.
    pub failed: usize,
}

/// Counter snapshot of everything the front door has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontDoorStats {
    /// Requests submitted (before admission).
    pub submitted: u64,
    /// Requests served successfully.
    pub completed: u64,
    /// Deadline expiries inside shards.
    pub expired: u64,
    /// Compile/run/panic/timeout failures.
    pub failed: u64,
    /// Quota rejections.
    pub quota_rejected: u64,
    /// Admission-time deadline sheds.
    pub shed_deadline: u64,
    /// Sheds after every eligible shard rejected.
    pub shed_overload: u64,
    /// Requests that ran off their home shard.
    pub spilled: u64,
    /// Requests that waited on another request's in-flight compile in a
    /// shard's cache: the sum of the shards' `CacheStats::coalesced`.
    pub coalesced: u64,
}

/// The sharded, multi-tenant serving tier: N [`Engine`]s behind
/// admission control, rendezvous routing, and overload shedding. See the [module docs](self) for the request
/// path.
pub struct FrontDoor {
    shards: Vec<Engine>,
    router: Router,
    admission: Admission,
    shard_deadline: Option<Duration>,
    epoch: Instant,
    shared: Arc<DoorShared>,
}

impl FrontDoor {
    /// A front door whose shards all share one compiler configuration
    /// (identical configurations ⇒ identical fingerprints ⇒ coherent
    /// routing).
    pub fn new(compiler: Compiler, config: FrontDoorConfig) -> FrontDoor {
        let shards: Vec<Engine> = (0..config.shards.max(1))
            .map(|_| Engine::new(compiler.clone(), config.shard.clone()))
            .collect();
        let registry = Arc::new(Registry::new());
        let metrics = FrontMetrics::new(&registry);
        FrontDoor {
            router: Router::new(shards.len()),
            admission: Admission::new(config.quota),
            shard_deadline: config.shard.default_deadline,
            epoch: Instant::now(),
            shared: Arc::new(DoorShared {
                registry,
                metrics,
                slo: Mutex::new(BTreeMap::new()),
            }),
            shards,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Direct access to one shard's engine (tests, dashboards).
    pub fn shard(&self, index: usize) -> &Engine {
        &self.shards[index]
    }

    /// The routing function.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The front door's own metric registry (shard engines keep their
    /// own; see [`Engine::registry`]).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.registry)
    }

    /// The content address `(program, bindings)` routes by.
    pub fn fingerprint_of(
        &self,
        program: &multidim_ir::Program,
        bindings: &multidim_ir::Bindings,
    ) -> Fingerprint {
        self.shards[0].fingerprint_of(program, bindings)
    }

    /// The home shard of a fingerprint.
    pub fn home_shard(&self, fp: Fingerprint) -> usize {
        self.router.route(fp)
    }

    /// Aggregate queued requests across shards.
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(|e| e.queue_depth()).sum()
    }

    /// Aggregate in-flight requests across shards.
    pub fn in_flight(&self) -> usize {
        self.shards.iter().map(|e| e.in_flight()).sum()
    }

    /// Estimated time before a newly queued request on `shard` reaches
    /// a worker: queued work × average service time ÷ workers. `None`
    /// until the shard completes its first request.
    pub fn estimated_wait(&self, shard: usize) -> Option<Duration> {
        let e = &self.shards[shard];
        let service = e.estimated_service_seconds()?;
        let queued = (e.queue_depth() + e.in_flight()) as f64;
        Some(Duration::from_secs_f64(
            service * (queued + 1.0) / e.workers().max(1) as f64,
        ))
    }

    /// Submit one request on behalf of `tenant`.
    ///
    /// Errors are admission-time rejections; see [`ServeError`]. A
    /// returned [`Ticket`] means the request is queued on
    /// [`Ticket::shard`].
    pub fn submit(&self, tenant: &str, request: Request) -> Result<Ticket, ServeError> {
        let mut request = request;
        // Mint the request's trace context at the outermost boundary —
        // before the retry clone below, so a spilled resubmission
        // continues the *same* trace — and stamp the admission instant
        // so shard queue accounting covers the full wait.
        let admitted = *request.admitted_at.get_or_insert_with(Instant::now);
        let door_trace = if request.trace.is_none() && multidim_trace::store_enabled() {
            let ctx = TraceContext::mint();
            request.trace = Some(ctx);
            Some(DoorTrace {
                ctx,
                admitted,
                workload: request.program.name.clone(),
            })
        } else {
            None
        };
        // Seals the door's trace for a request that gets no shard ticket.
        let reject = |shard, spilled, outcome, reason: &dyn std::fmt::Display| {
            finish_door_trace(
                door_trace.as_ref(),
                tenant,
                shard,
                spilled,
                outcome,
                Some(&reason),
                None,
            );
        };

        let m = &self.shared.metrics;
        m.requests.inc();
        m.tenant_requests.with(tenant).inc();

        // 1. Admission: the tenant's bucket, then the spare.
        let now = self.epoch.elapsed().as_secs_f64();
        if let Err(retry_after) = self.admission.admit(tenant, now) {
            m.quota_rejected.inc();
            m.tenant_quota_rejected.with(tenant).inc();
            self.shared.record_slo(tenant, 0.0, false);
            let err = ServeError::QuotaExceeded {
                tenant: tenant.to_string(),
                retry_after,
            };
            reject(None, false, TraceOutcome::QuotaRejected, &err);
            return Err(err);
        }

        // 2. Routing: the fingerprint's home shard.
        let fp = self.fingerprint_of(&request.program, &request.bindings);
        let home = self.router.route(fp);

        // 3. Shed-by-deadline: don't queue work that cannot finish.
        let deadline = request.deadline.or(self.shard_deadline);
        if let (Some(deadline), Some(estimated_wait)) = (deadline, self.estimated_wait(home)) {
            if estimated_wait > deadline {
                m.shed_deadline.inc();
                m.tenant_shed.with(tenant).inc();
                self.shared.record_slo(tenant, 0.0, false);
                let err = ServeError::DeadlineUnmeetable {
                    shard: home,
                    estimated_wait,
                    deadline,
                };
                reject(Some(home), false, TraceOutcome::Shed, &err);
                return Err(err);
            }
        }

        // 4. Queue on the home shard; spill once on backpressure.
        let spillable = self.shards.len() > 1;
        let retry = spillable.then(|| request.clone());
        match self.shards[home].submit(request) {
            Ok(inner) => Ok(self.admitted(inner, tenant, home, false, door_trace)),
            Err(EngineError::Rejected {
                queue_depth,
                retry_after,
                ..
            }) => {
                if let Some(request) = retry {
                    let alt = self.least_loaded_except(home);
                    let spill_started = Instant::now();
                    match self.shards[alt].submit(request) {
                        Ok(inner) => {
                            m.spilled.inc();
                            m.shard_spills.with(&alt.to_string()).inc();
                            // The retry clone carries the same context,
                            // so the spill hop shows up inside the one
                            // trace rather than starting a second one.
                            if let Some(trace) = &door_trace {
                                multidim_trace::record_elapsed_span(
                                    &trace.ctx,
                                    "serve",
                                    "spill",
                                    spill_started,
                                    vec![
                                        ("from_shard", (home as u64).into()),
                                        ("to_shard", (alt as u64).into()),
                                    ],
                                );
                            }
                            Ok(self.admitted(inner, tenant, alt, true, door_trace))
                        }
                        Err(EngineError::Rejected {
                            queue_depth,
                            retry_after,
                            ..
                        }) => {
                            self.shed_overload(tenant);
                            let err = ServeError::Overloaded {
                                home_shard: home,
                                spill_shard: Some(alt),
                                queue_depth,
                                retry_after,
                            };
                            reject(Some(alt), true, TraceOutcome::Shed, &err);
                            Err(err)
                        }
                        Err(e) => {
                            self.failed(tenant);
                            reject(Some(alt), true, TraceOutcome::Failed, &e);
                            Err(ServeError::Engine(e))
                        }
                    }
                } else {
                    self.shed_overload(tenant);
                    let err = ServeError::Overloaded {
                        home_shard: home,
                        spill_shard: None,
                        queue_depth,
                        retry_after,
                    };
                    reject(Some(home), false, TraceOutcome::Shed, &err);
                    Err(err)
                }
            }
            Err(e) => {
                self.failed(tenant);
                reject(Some(home), false, TraceOutcome::Failed, &e);
                Err(ServeError::Engine(e))
            }
        }
    }

    /// Wrap a shard ticket after a successful queue.
    fn admitted(
        &self,
        inner: EngineTicket,
        tenant: &str,
        shard: usize,
        spilled: bool,
        trace: Option<DoorTrace>,
    ) -> Ticket {
        self.shared
            .metrics
            .shard_requests
            .with(&shard.to_string())
            .inc();
        Ticket {
            inner,
            shared: Arc::clone(&self.shared),
            tenant: tenant.to_string(),
            trace,
            shard,
            spilled,
        }
    }

    fn shed_overload(&self, tenant: &str) {
        let m = &self.shared.metrics;
        m.shed_overload.inc();
        m.tenant_shed.with(tenant).inc();
        self.shared.record_slo(tenant, 0.0, false);
    }

    fn failed(&self, tenant: &str) {
        let m = &self.shared.metrics;
        m.failed.inc();
        m.tenant_failed.with(tenant).inc();
        self.shared.record_slo(tenant, 0.0, false);
    }

    /// The least-loaded shard other than `except` (queue depth plus
    /// in-flight; ties break low).
    fn least_loaded_except(&self, except: usize) -> usize {
        self.shards
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != except)
            .min_by_key(|(_, e)| e.queue_depth() + e.in_flight())
            .map(|(i, _)| i)
            .unwrap_or(except)
    }

    /// Warm the fleet: route every request to its home shard and run
    /// them all (bypassing admission control — preload is operator
    /// work, not tenant traffic). Entries previously tuned into the
    /// shared store come back with `tuned = true`, counting the warm
    /// tier's contribution.
    pub fn preload(&self, requests: Vec<Request>) -> PreloadReport {
        let mut per_shard: Vec<Vec<Request>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for request in requests {
            let fp = self.fingerprint_of(&request.program, &request.bindings);
            per_shard[self.router.route(fp)].push(request);
        }
        let mut report = PreloadReport::default();
        let outcomes: Vec<Vec<Result<Response, EngineError>>> = std::thread::scope(|s| {
            let handles: Vec<_> = per_shard
                .into_iter()
                .enumerate()
                .map(|(i, batch)| s.spawn(move || self.shards[i].run_batch(batch)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("preload batch panicked"))
                .collect()
        });
        for outcome in outcomes.into_iter().flatten() {
            match outcome {
                Ok(resp) => {
                    report.warmed += 1;
                    if resp.tuned {
                        report.tuned += 1;
                    }
                }
                Err(_) => report.failed += 1,
            }
        }
        self.shared.metrics.preloaded.add(report.warmed as u64);
        report
    }

    /// Autotune one program on its home shard, persisting the winning
    /// mapping into the shared tuning store — this is how the warm tier
    /// is populated. Routed like any request so the tuned executable
    /// also lands in the hot cache that will serve it.
    pub fn autotune(
        &self,
        program: &multidim_ir::Program,
        bindings: &multidim_ir::Bindings,
        inputs: &std::collections::HashMap<multidim_ir::ArrayId, Vec<f64>>,
        options: &multidim_mapping::TuneOptions,
    ) -> Result<(Arc<Executable>, TuneRecord), ServeError> {
        let home = self
            .router
            .route(self.shards[0].fingerprint_of(program, bindings));
        self.shards[home]
            .autotune(program, bindings, inputs, options)
            .map_err(ServeError::Engine)
    }

    /// Counter snapshot (reads the same counters the registry exports).
    pub fn stats(&self) -> FrontDoorStats {
        let m = &self.shared.metrics;
        FrontDoorStats {
            submitted: m.requests.get(),
            completed: m.completed.get(),
            expired: m.expired.get(),
            failed: m.failed.get(),
            quota_rejected: m.quota_rejected.get(),
            shed_deadline: m.shed_deadline.get(),
            shed_overload: m.shed_overload.get(),
            spilled: m.spilled.get(),
            coalesced: self.shards.iter().map(|e| e.cache_stats().coalesced).sum(),
        }
    }

    /// One tenant's SLO status, if the tenant has been seen.
    pub fn slo_status(&self, tenant: &str) -> Option<SloStatus> {
        self.shared
            .slo
            .lock()
            .expect("slo lock poisoned")
            .get(tenant)
            .map(|t| t.status())
    }

    /// Every tenant's SLO status, name order.
    pub fn slo_statuses(&self) -> Vec<(String, SloStatus)> {
        self.shared
            .slo
            .lock()
            .expect("slo lock poisoned")
            .iter()
            .map(|(name, t)| (name.clone(), t.status()))
            .collect()
    }

    /// Rotate every tenant's SLO window — call on the telemetry cadence
    /// to keep burn rates fresh.
    pub fn rotate_slo(&self) {
        for tracker in self.shared.slo.lock().expect("slo lock poisoned").values() {
            tracker.rotate();
        }
    }

    /// Refresh the per-shard gauges and render the front door's
    /// registry as Prometheus text exposition.
    pub fn render_metrics(&self) -> String {
        let m = &self.shared.metrics;
        for (i, e) in self.shards.iter().enumerate() {
            let shard = i.to_string();
            m.shard_queue_depth.with(&shard).set(e.queue_depth() as f64);
            m.shard_in_flight.with(&shard).set(e.in_flight() as f64);
        }
        self.shared.registry.render_text()
    }

    /// Drain every shard (waiting for queued work) and persist the
    /// shared tuning store.
    pub fn shutdown(self) {
        for shard in self.shards {
            shard.shutdown();
        }
    }
}
