//! The engine: a concurrent compile/run service over the multidim
//! pipeline.

use crate::cache::{CacheStats, CompileCache};
use crate::error::EngineError;
use crate::pool::{Refused, WorkerPool};
use crate::store::{LoadOutcome, TuneRecord, TuningStore};
use multidim::{Compiler, Executable, Fingerprint, RunReport, TuneTally};
use multidim_ir::{ArrayId, Bindings, Program};
use multidim_obs::{Counter, CounterFamily, Histogram, HistogramFamily, Registry};
use multidim_trace::{RequestRoot, TraceContext, TraceOutcome};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Engine sizing and policy.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads, and the threads an [`Engine::autotune`] pass
    /// measures on (the caller's among them). Default: available
    /// parallelism, capped at 8.
    pub workers: usize,
    /// Bounded request-queue capacity; a full queue rejects
    /// ([`EngineError::Rejected`]) instead of blocking. Default 64.
    pub queue_capacity: usize,
    /// Compilation-cache capacity (ready executables). Default 128.
    pub cache_capacity: usize,
    /// Deadline applied to requests that don't carry their own; `None`
    /// means no deadline. Checked when a worker dequeues the request and
    /// again between its compile and run phases (the phases themselves
    /// are not preempted).
    pub default_deadline: Option<Duration>,
    /// Where to persist tuned mappings; `None` keeps them in memory only.
    pub store_path: Option<PathBuf>,
    /// Nothing reads this field.
    pub flight_recorder_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            queue_capacity: 64,
            cache_capacity: 128,
            default_deadline: None,
            store_path: None,
            flight_recorder_capacity: 128,
        }
    }
}

/// One compile+run request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The program to compile (or fetch from cache) and execute.
    pub program: Program,
    /// Launch-size bindings.
    pub bindings: Bindings,
    /// Input arrays.
    pub inputs: HashMap<ArrayId, Vec<f64>>,
    /// Per-request deadline override (else [`EngineConfig::default_deadline`]).
    pub deadline: Option<Duration>,
    /// Request-scoped trace context. `None` lets the engine mint one at
    /// submission (when a trace store is installed); an upstream tier
    /// (the sharded front door) sets it to stitch its own spans and the
    /// engine's into one trace — whoever minted the context owns the
    /// root span and the tail-sampling decision.
    pub trace: Option<TraceContext>,
    /// When the request was first admitted upstream. Queue accounting
    /// uses this instead of the submission instant, so a spilled
    /// resubmission is charged for its *full* wait, not just the slice
    /// after the retry. `None` means "admitted now".
    pub admitted_at: Option<Instant>,
}

impl Request {
    /// A request with no private deadline.
    pub fn new(
        program: Program,
        bindings: Bindings,
        inputs: HashMap<ArrayId, Vec<f64>>,
    ) -> Request {
        Request {
            program,
            bindings,
            inputs,
            deadline: None,
            trace: None,
            admitted_at: None,
        }
    }
}

/// A served request.
#[derive(Debug, Clone)]
pub struct Response {
    /// Content address of the compiled artifact.
    pub fingerprint: Fingerprint,
    /// The shared executable — pointer-equal across cache hits.
    pub executable: Arc<Executable>,
    /// Simulation outcome (outputs, simulated seconds, per-kernel data).
    pub run: RunReport,
    /// `false` when this request compiled the executable; `true` when it
    /// reused a cached one.
    pub cache_hit: bool,
    /// `true` when the mapping came from the persistent tuning store
    /// rather than the analytic search.
    pub tuned: bool,
    /// Time spent queued before a worker picked the request up.
    pub queue_wait: Duration,
    /// Worker time (fingerprint + compile-or-hit + run).
    pub service_time: Duration,
    /// Time resolving the executable: a cache lookup on a hit, the full
    /// pipeline on a miss.
    pub compile_time: Duration,
    /// Time executing on the simulator (wall clock).
    pub run_time: Duration,
    /// The trace context the request ran under, when tracing was on.
    pub trace: Option<TraceContext>,
}

/// How a request's trace ends, given its result: the one mapping both
/// the engine and the front door seal traces with.
pub fn trace_outcome(result: &Result<Response, EngineError>) -> TraceOutcome {
    match result {
        Ok(_) => TraceOutcome::Completed,
        Err(EngineError::DeadlineExceeded { .. }) => TraceOutcome::Expired,
        Err(EngineError::Rejected { .. }) => TraceOutcome::Shed,
        Err(_) => TraceOutcome::Failed,
    }
}

/// The completion slot shared by a [`Ticket`] and its worker-side
/// [`TicketSender`]: a mutex-guarded state cell plus a condvar, so
/// waiters *block* on resolution instead of busy-sweeping a channel.
struct TicketSlot {
    state: Mutex<SlotState>,
    resolved: Condvar,
}

enum SlotState {
    /// The request is queued or running.
    Pending,
    /// The result arrived and nobody consumed it yet.
    Ready(Box<Result<Response, EngineError>>),
    /// The result was consumed by `wait`/`poll`.
    Taken,
}

impl TicketSlot {
    fn new() -> TicketSlot {
        TicketSlot {
            state: Mutex::new(SlotState::Pending),
            resolved: Condvar::new(),
        }
    }

    /// Publish the result (first write wins) and wake every waiter.
    fn fulfill(&self, result: Result<Response, EngineError>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if matches!(*state, SlotState::Pending) {
            *state = SlotState::Ready(Box::new(result));
        }
        drop(state);
        self.resolved.notify_all();
    }
}

/// Worker-side handle: fulfills the slot with the response, or — if the
/// job is dropped unrun (pool shutdown, rejected submission) — with
/// [`EngineError::Canceled`], so no waiter ever hangs.
pub(crate) struct TicketSender {
    slot: Arc<TicketSlot>,
}

impl TicketSender {
    /// Deliver the result to the waiting ticket.
    pub(crate) fn send(&self, result: Result<Response, EngineError>) {
        self.slot.fulfill(result);
    }
}

impl Drop for TicketSender {
    fn drop(&mut self) {
        // No-op if `send` already ran (fulfill is first-write-wins).
        self.slot.fulfill(Err(EngineError::Canceled));
    }
}

/// Handle to an in-flight request, backed by a condvar: `wait` parks the
/// caller until the worker publishes the response — no polling loop, no
/// channel allocation per wait.
pub struct Ticket {
    slot: Arc<TicketSlot>,
}

impl Ticket {
    fn new() -> (Ticket, TicketSender) {
        let slot = Arc::new(TicketSlot::new());
        (Ticket { slot: slot.clone() }, TicketSender { slot })
    }

    /// Block until the response arrives.
    pub fn wait(self) -> Result<Response, EngineError> {
        let mut state = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match std::mem::replace(&mut *state, SlotState::Taken) {
                SlotState::Ready(r) => return *r,
                SlotState::Taken => return Err(EngineError::Canceled),
                SlotState::Pending => {
                    *state = SlotState::Pending;
                    state = self
                        .slot
                        .resolved
                        .wait(state)
                        .unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    /// Block up to `timeout`. On timeout the request keeps running but
    /// its result is discarded.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Response, EngineError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match std::mem::replace(&mut *state, SlotState::Taken) {
                SlotState::Ready(r) => return *r,
                SlotState::Taken => return Err(EngineError::Canceled),
                SlotState::Pending => {
                    *state = SlotState::Pending;
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(EngineError::WaitTimeout { waited: timeout });
                    }
                    let (guard, _) = self
                        .slot
                        .resolved
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(|e| e.into_inner());
                    state = guard;
                }
            }
        }
    }

    /// Park up to `timeout` waiting for the request to resolve, *without*
    /// consuming the result: `true` once a later [`Ticket::poll`] would
    /// return `Some`. This is the sweep primitive for open-loop clients
    /// and the front door — wait on the condvar for the oldest in-flight
    /// ticket instead of sleeping-and-re-polling.
    pub fn wait_ready(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match *state {
                SlotState::Ready(_) | SlotState::Taken => return true,
                SlotState::Pending => {
                    let now = Instant::now();
                    if now >= deadline {
                        return false;
                    }
                    let (guard, _) = self
                        .slot
                        .resolved
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(|e| e.into_inner());
                    state = guard;
                }
            }
        }
    }

    /// Non-blocking poll: `Some` once the request resolved (an open-loop
    /// load client sweeps its in-flight tickets between sends), `None`
    /// while it is still queued or running.
    pub fn poll(&self) -> Option<Result<Response, EngineError>> {
        let mut state = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        match std::mem::replace(&mut *state, SlotState::Taken) {
            SlotState::Ready(r) => Some(*r),
            SlotState::Taken => Some(Err(EngineError::Canceled)),
            SlotState::Pending => {
                *state = SlotState::Pending;
                None
            }
        }
    }
}

/// Aggregate request counters (monotonic since engine construction),
/// read from the engine's registry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests rejected by backpressure.
    pub rejected: u64,
    /// Requests that failed (compile, run, deadline, panic).
    pub failed: u64,
    /// Requests whose deadline expired.
    pub expired: u64,
    /// Requests that panicked in a worker (isolated, worker survived).
    pub panicked: u64,
    /// Requests served with a mapping from the tuning store.
    pub tuned_served: u64,
}

/// Pre-resolved registry handles for the engine's hot-path metrics, so
/// serving a request never takes the registry's name-lookup lock.
struct EngineMetrics {
    requests_total: Arc<Counter>,
    completed_total: Arc<Counter>,
    failed_total: Arc<Counter>,
    rejected_total: Arc<Counter>,
    expired_total: Arc<Counter>,
    panicked_total: Arc<Counter>,
    tuned_served_total: Arc<Counter>,
    autotune_total: Arc<Counter>,
    request_seconds: Arc<Histogram>,
    queue_seconds: Arc<Histogram>,
    compile_seconds: Arc<Histogram>,
    run_seconds: Arc<Histogram>,
    // Labelled (per-workload) families: the under-load view. The label is
    // the request's program name, so a skewed load generator can read shed
    // rate, deadline-miss rate, tail latency, and cache behaviour per
    // workload straight out of the exposition.
    requests_by_workload: Arc<CounterFamily>,
    shed_by_workload: Arc<CounterFamily>,
    expired_by_workload: Arc<CounterFamily>,
    failed_by_workload: Arc<CounterFamily>,
    request_seconds_by_workload: Arc<HistogramFamily>,
    cache_hits_by_workload: Arc<CounterFamily>,
    cache_misses_by_workload: Arc<CounterFamily>,
    // Dynamic-parallelism visibility: the simulator's global
    // `sim_child_*_total` counters can't say *which* workload launched
    // child kernels; these families can.
    child_launches_by_workload: Arc<CounterFamily>,
    child_blocks_by_workload: Arc<CounterFamily>,
    /// The simulator's `sim_*` counters, folded per served run.
    sim: multidim::RunCounters,
}

impl EngineMetrics {
    fn new(registry: &Registry) -> EngineMetrics {
        EngineMetrics {
            requests_total: registry
                .counter("engine_requests_total", "requests accepted into the queue"),
            completed_total: registry
                .counter("engine_completed_total", "requests served successfully"),
            failed_total: registry.counter(
                "engine_failed_total",
                "requests that failed (compile, run, deadline, panic)",
            ),
            rejected_total: registry
                .counter("engine_rejected_total", "requests rejected by backpressure"),
            expired_total: registry
                .counter("engine_expired_total", "requests whose deadline expired"),
            panicked_total: registry.counter(
                "engine_panicked_total",
                "requests that panicked in a worker (isolated)",
            ),
            tuned_served_total: registry.counter(
                "engine_tuned_served_total",
                "requests served with a mapping from the tuning store",
            ),
            autotune_total: registry.counter("engine_autotune_total", "autotune runs completed"),
            request_seconds: registry.histogram(
                "engine_request_seconds",
                "end-to-end request latency (queue wait + service)",
            ),
            queue_seconds: registry.histogram("engine_queue_seconds", "time requests spend queued"),
            compile_seconds: registry.histogram(
                "engine_compile_seconds",
                "compile time of cache-miss requests",
            ),
            run_seconds: registry.histogram("engine_run_seconds", "simulator wall-clock run time"),
            requests_by_workload: registry.counter_family(
                "engine_requests_by_workload",
                "requests accepted, by program",
                "workload",
            ),
            shed_by_workload: registry.counter_family(
                "engine_shed_by_workload",
                "requests shed by backpressure, by program",
                "workload",
            ),
            expired_by_workload: registry.counter_family(
                "engine_expired_by_workload",
                "requests whose deadline expired, by program",
                "workload",
            ),
            failed_by_workload: registry.counter_family(
                "engine_failed_by_workload",
                "requests that failed for any reason, by program",
                "workload",
            ),
            request_seconds_by_workload: registry.histogram_family(
                "engine_request_seconds_by_workload",
                "end-to-end request latency, by program",
                "workload",
            ),
            cache_hits_by_workload: registry.counter_family(
                "engine_cache_hits_by_workload",
                "compile-cache hits, by program",
                "workload",
            ),
            cache_misses_by_workload: registry.counter_family(
                "engine_cache_misses_by_workload",
                "compile-cache misses (cold compiles), by program",
                "workload",
            ),
            child_launches_by_workload: registry.counter_family(
                "engine_child_launches_by_workload",
                "dynamic-parallelism child kernel launches, by program",
                "workload",
            ),
            child_blocks_by_workload: registry.counter_family(
                "engine_child_blocks_by_workload",
                "dynamic-parallelism child blocks launched, by program",
                "workload",
            ),
            sim: multidim::RunCounters::new(registry),
        }
    }
}

struct Shared {
    compiler: Arc<Compiler>,
    cache: CompileCache,
    store: TuningStore,
    registry: Arc<Registry>,
    metrics: EngineMetrics,
    /// Requests currently being served by a worker (dequeued, not yet
    /// resolved) — the overload sampler's companion to queue depth.
    in_flight: AtomicU64,
    /// Exponential moving average of per-request service time (seconds,
    /// stored as f64 bits; 0-bits = no completions yet). Feeds the
    /// `retry_after` hint on [`EngineError::Rejected`].
    ema_service_bits: AtomicU64,
}

/// EMA weight of the newest service-time sample.
const EMA_ALPHA: f64 = 0.1;

impl Shared {
    fn observe_service_time(&self, seconds: f64) {
        let old = f64::from_bits(self.ema_service_bits.load(Ordering::Relaxed));
        let next = if old > 0.0 {
            (1.0 - EMA_ALPHA) * old + EMA_ALPHA * seconds
        } else {
            seconds
        };
        self.ema_service_bits
            .store(next.to_bits(), Ordering::Relaxed);
    }

    fn ema_service_seconds(&self) -> Option<f64> {
        let v = f64::from_bits(self.ema_service_bits.load(Ordering::Relaxed));
        (v > 0.0).then_some(v)
    }
}

/// The concurrent compile/run engine. See the crate docs for the full
/// tour; in short:
///
/// * [`Engine::submit`] enqueues one request (backpressure on a full
///   queue) and returns a [`Ticket`];
/// * [`Engine::run_batch`] drives a whole batch through the queue with
///   flow control and collects every result;
/// * [`Engine::autotune`] measures mapping candidates on as many threads
///   as the pool has workers and persists the winner in the tuning
///   store, after which matching requests transparently use the tuned
///   mapping.
pub struct Engine {
    shared: Arc<Shared>,
    pool: WorkerPool,
    store_load: LoadOutcome,
    default_deadline: Option<Duration>,
    queue_capacity: usize,
}

impl Engine {
    /// Build an engine around `compiler` (the compiler is shared,
    /// immutable, by every worker).
    pub fn new(compiler: Compiler, config: EngineConfig) -> Engine {
        let (store, store_load) = match &config.store_path {
            Some(path) => TuningStore::open(path),
            None => (TuningStore::in_memory(), LoadOutcome::default()),
        };
        let registry = Arc::new(Registry::new());
        let metrics = EngineMetrics::new(&registry);
        Engine {
            shared: Arc::new(Shared {
                compiler: compiler.shared(),
                cache: CompileCache::new(config.cache_capacity),
                store,
                registry,
                metrics,
                in_flight: AtomicU64::new(0),
                ema_service_bits: AtomicU64::new(0),
            }),
            pool: WorkerPool::new(config.workers, config.queue_capacity),
            store_load,
            default_deadline: config.default_deadline,
            queue_capacity: config.queue_capacity.max(1),
        }
    }

    /// What the tuning store found on disk at startup.
    pub fn store_load(&self) -> &LoadOutcome {
        &self.store_load
    }

    /// Enqueue one request.
    ///
    /// # Errors
    ///
    /// [`EngineError::Rejected`] when the bounded queue is full (typed
    /// backpressure — the call never blocks), [`EngineError::ShuttingDown`]
    /// when the pool is draining.
    pub fn submit(&self, request: Request) -> Result<Ticket, EngineError> {
        let mut request = request;
        // Mint a trace at the boundary when nobody upstream did — the
        // engine then owns the root span and the tail-sampling decision.
        // An upstream-minted context (the front door's) is carried through
        // untouched; its minter finishes the trace.
        let owns_trace = request.trace.is_none();
        if owns_trace && multidim_trace::store_enabled() {
            request.trace = Some(TraceContext::mint());
        }
        let trace = request.trace;
        let (ticket, sender) = Ticket::new();
        let shared = self.shared.clone();
        let deadline = request.deadline.or(self.default_deadline);
        // A spilled resubmission carries its original admission instant so
        // queue accounting charges the full wait, not the retry's slice.
        let enqueued = request.admitted_at.unwrap_or_else(Instant::now);
        let workload = request.program.name.clone();
        let job = Box::new(move || {
            process_request(&shared, request, deadline, enqueued, owns_trace, &sender);
        });
        match self.pool.try_submit(job) {
            Ok(()) => {
                self.shared.metrics.requests_total.inc();
                self.shared
                    .metrics
                    .requests_by_workload
                    .with(&workload)
                    .inc();
                Ok(ticket)
            }
            Err(Refused::Full) => {
                self.shared.metrics.rejected_total.inc();
                self.shared.metrics.shed_by_workload.with(&workload).inc();
                let err = self.rejection();
                let owned = trace.filter(|_| owns_trace);
                finish_engine_trace(
                    owned,
                    enqueued,
                    &workload,
                    TraceOutcome::Shed,
                    Some(&err),
                    None,
                );
                Err(err)
            }
            Err(Refused::Closed) => Err(EngineError::ShuttingDown),
        }
    }

    /// The typed backpressure rejection for the current overload state:
    /// observed queue depth, configured capacity, and a drain-time
    /// `retry_after` hint (queued work x average service time / workers)
    /// once at least one request has completed.
    fn rejection(&self) -> EngineError {
        let queue_depth = self.pool.queue_depth();
        let retry_after = self.shared.ema_service_seconds().map(|ema| {
            Duration::from_secs_f64(ema * (queue_depth.max(1) as f64) / self.pool.workers() as f64)
        });
        EngineError::Rejected {
            queue_depth,
            capacity: self.queue_capacity,
            retry_after,
        }
    }

    /// Drive a whole batch through the bounded queue: submit with flow
    /// control (when the queue is full, wait for the oldest in-flight
    /// request instead of spinning), and return one result per request,
    /// in request order.
    pub fn run_batch(&self, requests: Vec<Request>) -> Vec<Result<Response, EngineError>> {
        let n = requests.len();
        let mut results: Vec<Option<Result<Response, EngineError>>> =
            (0..n).map(|_| None).collect();
        let mut inflight: Vec<(usize, Ticket)> = Vec::new();
        for (i, req) in requests.into_iter().enumerate() {
            loop {
                match self.submit(req.clone()) {
                    Ok(ticket) => {
                        inflight.push((i, ticket));
                        break;
                    }
                    Err(EngineError::Rejected { .. }) if !inflight.is_empty() => {
                        // Flow control: retire the oldest in-flight
                        // request, freeing a queue slot, then retry.
                        let (j, ticket) = inflight.remove(0);
                        results[j] = Some(ticket.wait());
                    }
                    Err(EngineError::Rejected { .. }) => {
                        // Queue full with nothing of ours in flight (other
                        // submitters): back off briefly and retry.
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => {
                        results[i] = Some(Err(e));
                        break;
                    }
                }
            }
        }
        for (i, ticket) in inflight {
            results[i] = Some(ticket.wait());
        }
        results
            .into_iter()
            .map(|r| r.expect("every request resolved"))
            .collect()
    }

    /// Tune `program`'s mapping by measuring candidates on
    /// [`EngineConfig::workers`] threads, then persist the winner so
    /// subsequent [`Engine::submit`]s of the same request transparently
    /// use it.
    ///
    /// The pass runs [`multidim_mapping::tune_parallel`], as
    /// [`Compiler::autotune`] does, with the calling thread counted as one
    /// of its threads; it takes no slot of the request queue. No candidate
    /// is pruned on its locality floor, so every candidate is measured,
    /// and the measurements commit in score order under
    /// `max_measurements`: the pass selects the mapping
    /// [`Compiler::autotune`] selects, and stops claiming candidates once
    /// the cap is reached. Each measurement runs against the best cost
    /// committed before it and stops once its cost provably exceeds it,
    /// before its first block and before copying its inputs when the
    /// floor of its kernels already does (`multidim_sim::run_program_capped`:
    /// the static floor, then the one that reads the inputs); such a
    /// candidate still counts as measured, with the bound it stopped at.
    /// The analytic mapping's measurement runs uncut, so the record's
    /// `analytic_cost` is exact. A measurement that panics counts as not
    /// executable.
    ///
    /// A traced pass records an `engine/autotune` span with the arguments
    /// of `core/autotune` ([`TuneTally::record`]); its `simulations` counts
    /// the measurements started, `pruned` is 0, and the helper threads
    /// adopt the caller's trace context, so their `sim/*` spans nest under
    /// it.
    ///
    /// # Errors
    ///
    /// [`EngineError::Compile`] when `max_measurements` is 0 (refused
    /// before any candidate is measured), when validation fails, or when
    /// no candidate is executable.
    pub fn autotune(
        &self,
        program: &Program,
        bindings: &Bindings,
        inputs: &HashMap<ArrayId, Vec<f64>>,
        options: &multidim_mapping::TuneOptions,
    ) -> Result<(Arc<Executable>, TuneRecord), EngineError> {
        let compiler = &self.shared.compiler;
        let mut sp = multidim_trace::span("engine", "autotune");
        let prepared = compiler.prepare_tune(program, bindings, options)?;
        let analytic = compiler.analytic_mapping(&prepared, bindings);
        // The analytic mapping runs under a ceiling nothing lowers.
        let unbounded = AtomicU64::new(f64::INFINITY.to_bits());
        let candidates = prepared.plan.candidates.len();
        let threads = self.pool.workers().min(candidates);
        let tally = TuneTally::default();
        let result = multidim_mapping::tune_parallel(
            &prepared.plan,
            options.max_measurements,
            threads,
            |_| (None, ()),
            |cand, (), ceiling| {
                let ceiling = if cand.mapping == analytic {
                    &unbounded
                } else {
                    ceiling
                };
                tally.simulated(
                    catch_unwind(AssertUnwindSafe(|| {
                        compiler.measure_candidate_capped(
                            &prepared,
                            bindings,
                            inputs,
                            &cand.mapping,
                            ceiling,
                        )
                    }))
                    .unwrap_or(None),
                )
            },
        );
        let name = prepared.program.name.as_str();
        tally.record(sp.as_mut(), name, candidates, threads, result.as_ref());
        let result = result.ok_or_else(|| {
            EngineError::Compile(multidim::CompileError(
                "no mapping candidate was executable".into(),
            ))
        })?;

        // The analytic baseline is the mapping `Compiler::compile` picks;
        // its cost is known only when it was one of the measured
        // candidates.
        let analytic_cost = result
            .measured
            .iter()
            .find(|m| m.candidate.mapping == analytic)
            .map(|m| m.cost);
        let record = TuneRecord {
            fingerprint: compiler.fingerprint(program, bindings),
            program: program.name.clone(),
            mapping: result.best.clone(),
            tuned_cost: result.best_cost,
            analytic_cost,
            measured: result.measured.len() as u64,
        };
        self.shared.store.insert(record.clone());
        let _ = self.shared.store.save();
        self.shared.metrics.autotune_total.inc();
        if let Some(delta) = record.analytic_delta() {
            // The ratio analytic cost / tuned cost: above 1 when the
            // tuned mapping beat the analytic one.
            self.shared
                .registry
                .gauge(
                    "engine_tuned_delta",
                    "analytic-vs-tuned cost delta of the most recent autotune",
                )
                .set(delta);
        }

        let exe = Arc::new(compiler.compile_tuned(&prepared, bindings, result.best.clone())?);
        // Replace any analytically-mapped cache entry so subsequent
        // requests are served the tuned executable immediately.
        self.shared.cache.insert(record.fingerprint, exe.clone());
        Ok((exe, record))
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Request counters (reads the same counters the registry exports).
    pub fn stats(&self) -> EngineStats {
        let m = &self.shared.metrics;
        EngineStats {
            submitted: m.requests_total.get(),
            completed: m.completed_total.get(),
            rejected: m.rejected_total.get(),
            failed: m.failed_total.get(),
            expired: m.expired_total.get(),
            panicked: m.panicked_total.get(),
            tuned_served: m.tuned_served_total.get(),
        }
    }

    /// Current queue depth (requests waiting for a worker).
    pub fn queue_depth(&self) -> usize {
        self.pool.queue_depth()
    }

    /// Configured request-queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The content fingerprint this engine would key `(program, bindings)`
    /// under — the address a sharded front door routes on. Identical
    /// compiler configurations (all shards of one fleet) produce identical
    /// fingerprints.
    pub fn fingerprint_of(&self, program: &Program, bindings: &Bindings) -> Fingerprint {
        self.shared.compiler.fingerprint(program, bindings)
    }

    /// Exponential moving average of per-request service time, `None`
    /// until the first completion. The basis of the `retry_after` hint on
    /// [`EngineError::Rejected`] and of front-door shed-by-deadline
    /// estimates.
    pub fn estimated_service_seconds(&self) -> Option<f64> {
        self.shared.ema_service_seconds()
    }

    /// Requests currently being served by a worker (dequeued but not yet
    /// resolved). Together with [`Engine::queue_depth`] this is the
    /// overload sampler's live view of the engine.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed) as usize
    }

    /// Number of tuning-store records.
    pub fn store_len(&self) -> usize {
        self.shared.store.len()
    }

    /// The engine's metrics registry. Counters and histograms update as
    /// requests are served; share the arc with exporters freely.
    pub fn registry(&self) -> Arc<Registry> {
        self.shared.registry.clone()
    }

    /// Render the Prometheus-style text exposition of every engine metric,
    /// after syncing point-in-time gauges (queue depth, cache counters,
    /// store size) into the registry.
    pub fn render_metrics(&self) -> String {
        self.sync_gauges();
        self.shared.registry.render_text()
    }

    /// Snapshot point-in-time state into registry gauges.
    fn sync_gauges(&self) {
        let r = &self.shared.registry;
        r.gauge("engine_queue_depth", "requests waiting for a worker")
            .set(self.queue_depth() as f64);
        r.gauge("engine_in_flight", "requests currently being served")
            .set(self.in_flight() as f64);
        let cs = self.cache_stats();
        r.gauge("engine_cache_hits", "compile-cache hits")
            .set(cs.hits as f64);
        r.gauge("engine_cache_misses", "compile-cache misses")
            .set(cs.misses as f64);
        r.gauge(
            "engine_cache_coalesced",
            "compile-cache lookups coalesced onto an in-flight compile",
        )
        .set(cs.coalesced as f64);
        r.gauge("engine_cache_evictions", "compile-cache LRU evictions")
            .set(cs.evictions as f64);
        r.gauge("engine_cache_entries", "ready compile-cache entries")
            .set(self.shared.cache.len() as f64);
        r.gauge("engine_store_records", "tuning-store records")
            .set(self.store_len() as f64);
    }

    /// Drain the queue, join the workers, and persist the tuning store.
    /// Also performed on drop.
    pub fn shutdown(mut self) {
        self.pool.shutdown();
        let _ = self.shared.store.save();
    }
}

/// Decrements the in-flight gauge on every exit path (including a
/// propagating panic).
struct InFlightGuard<'a>(&'a AtomicU64);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Record the engine's root span and seal `trace`, which must be one the
/// engine minted (a front door seals its own). Returns the trace id when
/// the tail sampler kept it.
fn finish_engine_trace(
    trace: Option<TraceContext>,
    enqueued: Instant,
    workload: &str,
    outcome: TraceOutcome,
    reason: Option<&EngineError>,
    latency_seconds: Option<f64>,
) -> Option<u128> {
    let root = RequestRoot {
        cat: "engine",
        start: enqueued,
        workload,
        args: Vec::new(),
    };
    multidim_trace::finish_request(&trace?, root, outcome, reason, latency_seconds)
}

fn process_request(
    shared: &Shared,
    request: Request,
    deadline: Option<Duration>,
    enqueued: Instant,
    owns_trace: bool,
    sender: &TicketSender,
) {
    shared.in_flight.fetch_add(1, Ordering::Relaxed);
    let _in_flight = InFlightGuard(&shared.in_flight);
    // Make the request's context current on this worker thread so every
    // span recorded below (and inside `serve`) stitches into one trace
    // even though admission happened on a different thread.
    let trace = request.trace;
    let _ctx_guard = trace.map(multidim_trace::set_current);
    let workload = request.program.name.clone();
    let queue_wait = enqueued.elapsed();
    shared
        .metrics
        .queue_seconds
        .record(queue_wait.as_secs_f64());
    if let Some(ctx) = &trace {
        multidim_trace::record_elapsed_span(ctx, "engine", "queue", enqueued, Vec::new());
    }
    // Deadline check #1: the request may have expired while queued.
    let result = if deadline.is_some_and(|d| queue_wait > d) {
        Err(EngineError::DeadlineExceeded { waited: queue_wait })
    } else {
        catch_unwind(AssertUnwindSafe(|| {
            serve(shared, &request, deadline, enqueued, queue_wait)
        }))
        .unwrap_or_else(|payload| {
            shared.metrics.panicked_total.inc();
            Err(EngineError::WorkerPanic(panic_message(payload.as_ref())))
        })
    };
    // Seal the trace before touching the histograms: the sampler's
    // keep/drop verdict decides whether the latency sample carries an
    // exemplar.
    let latency = match &result {
        Ok(resp) => Some((resp.queue_wait + resp.service_time).as_secs_f64()),
        Err(EngineError::DeadlineExceeded { .. }) => Some(enqueued.elapsed().as_secs_f64()),
        Err(_) => None,
    };
    let kept_trace = finish_engine_trace(
        trace.filter(|_| owns_trace),
        enqueued,
        &workload,
        trace_outcome(&result),
        result.as_ref().err(),
        latency,
    );
    match &result {
        Ok(resp) => {
            shared.metrics.completed_total.inc();
            if resp.tuned {
                shared.metrics.tuned_served_total.inc();
            }
            let latency = (resp.queue_wait + resp.service_time).as_secs_f64();
            // Kept traces become exemplars: the p99 bucket of the latency
            // histogram then links to a trace the store can actually
            // resolve (dropped traces never publish their ids).
            match kept_trace {
                Some(id) => {
                    shared
                        .metrics
                        .request_seconds
                        .record_with_exemplar(latency, id);
                    shared
                        .metrics
                        .request_seconds_by_workload
                        .with(&workload)
                        .record_with_exemplar(latency, id);
                }
                None => {
                    shared.metrics.request_seconds.record(latency);
                    shared
                        .metrics
                        .request_seconds_by_workload
                        .with(&workload)
                        .record(latency);
                }
            }
            shared
                .metrics
                .run_seconds
                .record(resp.run_time.as_secs_f64());
            if resp.cache_hit {
                shared.metrics.cache_hits_by_workload.with(&workload).inc();
            } else {
                shared
                    .metrics
                    .cache_misses_by_workload
                    .with(&workload)
                    .inc();
                shared
                    .metrics
                    .compile_seconds
                    .record(resp.compile_time.as_secs_f64());
            }
            // Fold the simulator's roofline counters into the registry.
            let cost = shared
                .metrics
                .sim
                .record(&resp.run.kernels, resp.run.gpu_seconds);
            if cost.child_launches > 0 {
                shared
                    .metrics
                    .child_launches_by_workload
                    .with(&workload)
                    .add(cost.child_launches);
                shared
                    .metrics
                    .child_blocks_by_workload
                    .with(&workload)
                    .add(cost.child_blocks);
            }
            shared.observe_service_time(resp.service_time.as_secs_f64());
        }
        Err(err) => {
            shared.metrics.failed_total.inc();
            shared.metrics.failed_by_workload.with(&workload).inc();
            if matches!(err, EngineError::DeadlineExceeded { .. }) {
                shared.metrics.expired_total.inc();
                shared.metrics.expired_by_workload.with(&workload).inc();
            }
        }
    }
    sender.send(result);
}

fn serve(
    shared: &Shared,
    request: &Request,
    deadline: Option<Duration>,
    enqueued: Instant,
    queue_wait: Duration,
) -> Result<Response, EngineError> {
    let started = Instant::now();
    let fp = shared
        .compiler
        .fingerprint(&request.program, &request.bindings);
    let tuned_record = shared.store.get(fp);
    let tuned = tuned_record.is_some();
    let mut cache_hit = true;
    let compile_started = Instant::now();
    // A live guard wraps the phase: if compilation errors out (`?`) or
    // panics, the drop still records the span with the time spent so
    // far — and with the fingerprint, set as the span opens.
    let mut compile_span = multidim_trace::span("engine", "compile");
    if let Some(span) = compile_span.as_mut() {
        span.arg("fingerprint", fp.to_string());
    }
    let exe = shared.cache.get_or_compile(fp, || {
        cache_hit = false;
        match &tuned_record {
            // Prefer the empirically best mapping from the store; fall
            // back to the analytic pipeline if it no longer lowers.
            Some(rec) => shared
                .compiler
                .compile_with_mapping(&request.program, &request.bindings, rec.mapping.clone())
                .or_else(|_| shared.compiler.compile(&request.program, &request.bindings)),
            None => shared.compiler.compile(&request.program, &request.bindings),
        }
    })?;
    if let Some(span) = compile_span.as_mut() {
        span.arg("cache_hit", cache_hit);
        span.arg("tuned", tuned);
        span.arg("mapping", exe.mapping.to_string());
        if !exe.diagnostics.diagnostics.is_empty() {
            span.arg("diagnostics", exe.diagnostics.codes());
        }
    }
    drop(compile_span);
    let compile_time = compile_started.elapsed();
    if !cache_hit {
        if let Some(analysis) = &exe.analysis {
            multidim_mapping::observe_analysis(&shared.registry, analysis);
        }
        // Expose lint pressure: one labelled counter per diagnostic code
        // (MD001..MD015) emitted for freshly compiled programs, so load
        // runs surface how many served programs carry static findings.
        let family = shared.registry.counter_family(
            "analyze_diagnostics_total",
            "static-analysis diagnostics emitted at compile time, by MD code",
            "code",
        );
        for d in &exe.diagnostics.diagnostics {
            family.with(&d.code.to_string()).inc();
        }
    }
    // Deadline check #2: compiling may have eaten the budget.
    if let Some(d) = deadline {
        let waited = enqueued.elapsed();
        if waited > d {
            return Err(EngineError::DeadlineExceeded { waited });
        }
    }
    let run_started = Instant::now();
    let run_span = multidim_trace::span("engine", "run");
    let run = exe.run(&request.inputs)?;
    drop(run_span);
    let run_time = run_started.elapsed();
    Ok(Response {
        fingerprint: fp,
        executable: exe,
        run,
        cache_hit,
        tuned,
        queue_wait,
        service_time: started.elapsed(),
        compile_time,
        run_time,
        trace: request.trace,
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
