//! The engine: a concurrent compile/run service over the multidim
//! pipeline.

use crate::cache::{CacheStats, CompileCache};
use crate::error::EngineError;
use crate::pool::WorkerPool;
use crate::store::{LoadOutcome, TuneRecord, TuningStore};
use multidim::{Compiler, Executable, Fingerprint, RunReport};
use multidim_ir::{ArrayId, Bindings, Program};
use multidim_obs::{
    Counter, CounterFamily, FlightRecorder, Histogram, HistogramFamily, PhaseBreakdown, PostMortem,
    Registry, RequestProfile, SearchBreakdown,
};
use multidim_trace::{instant_us, Sink, SpanRecord, TraceContext, TraceOutcome};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Post-mortem bundles retained by the engine (oldest dropped first).
const POST_MORTEM_CAP: usize = 32;

/// Engine sizing and policy.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads. Default: available parallelism, capped at 8.
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
    /// Trace events each worker retains for post-mortem bundles (the
    /// flight recorder's per-thread ring size). `0` disables the recorder
    /// — workers then trace only to an explicitly installed shared sink.
    /// Default 128.
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

/// Aggregate request counters (monotonic since engine construction).
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

#[derive(Default)]
struct AtomicEngineStats {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    expired: AtomicU64,
    panicked: AtomicU64,
    tuned_served: AtomicU64,
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
    post_mortems_dropped_total: Arc<Counter>,
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
            post_mortems_dropped_total: registry.counter(
                "engine_post_mortems_dropped_total",
                "post-mortem bundles evicted unread from the bounded ring",
            ),
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
        }
    }
}

struct Shared {
    compiler: Arc<Compiler>,
    cache: CompileCache,
    store: TuningStore,
    stats: AtomicEngineStats,
    registry: Arc<Registry>,
    metrics: EngineMetrics,
    recorder: Option<Arc<FlightRecorder>>,
    post_mortems: Mutex<VecDeque<PostMortem>>,
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
/// * [`Engine::autotune`] measures mapping candidates across the worker
///   pool and persists the winner in the tuning store, after which
///   matching requests transparently use the tuned mapping.
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
        let recorder = (config.flight_recorder_capacity > 0)
            .then(|| Arc::new(FlightRecorder::new(config.flight_recorder_capacity)));
        // Install the recorder as each worker's thread-local sink: the
        // events a request emits (search spans, cache gauges, run spans)
        // land in that worker's ring, ready for a post-mortem bundle.
        let worker_sink = recorder.clone().map(|r| r as Arc<dyn Sink + Send + Sync>);
        Engine {
            shared: Arc::new(Shared {
                compiler: compiler.shared(),
                cache: CompileCache::new(config.cache_capacity),
                store,
                stats: AtomicEngineStats::default(),
                registry,
                metrics,
                recorder,
                post_mortems: Mutex::new(VecDeque::new()),
                in_flight: AtomicU64::new(0),
                ema_service_bits: AtomicU64::new(0),
            }),
            pool: WorkerPool::with_sink(config.workers, config.queue_capacity, worker_sink),
            store_load,
            default_deadline: config.default_deadline,
            queue_capacity: config.queue_capacity.max(1),
        }
    }

    /// An engine with the paper's default compiler and default sizing.
    pub fn with_defaults() -> Engine {
        Engine::new(Compiler::new(), EngineConfig::default())
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
                self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
                self.shared.metrics.requests_total.inc();
                self.shared
                    .metrics
                    .requests_by_workload
                    .with(&workload)
                    .inc();
                Ok(ticket)
            }
            Err(Some(_full)) => {
                self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                self.shared.metrics.rejected_total.inc();
                self.shared.metrics.shed_by_workload.with(&workload).inc();
                finish_trace(trace, owns_trace, TraceOutcome::Shed, None);
                Err(self.rejection())
            }
            Err(None) => Err(EngineError::ShuttingDown),
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

    /// Tune `program`'s mapping by measuring candidates **in parallel
    /// across the worker pool**, then persist the winner so subsequent
    /// [`Engine::submit`]s of the same request transparently use it.
    ///
    /// Every candidate is measured (no locality pruning), then the costs
    /// are replayed in score order through
    /// [`multidim_mapping::tune_pruned`], which applies
    /// `max_measurements` and tie-breaks on candidate index, so the result
    /// is identical to the serial [`Compiler::autotune`]. Candidates that
    /// cannot be enqueued (full queue) are measured inline on the calling
    /// thread — tuning degrades to partial parallelism under load rather
    /// than failing or deadlocking.
    ///
    /// # Errors
    ///
    /// [`EngineError::Compile`] when validation fails or no candidate is
    /// executable.
    pub fn autotune(
        &self,
        program: &Program,
        bindings: &Bindings,
        inputs: &HashMap<ArrayId, Vec<f64>>,
        options: &multidim_mapping::TuneOptions,
    ) -> Result<(Arc<Executable>, TuneRecord), EngineError> {
        let compiler = &self.shared.compiler;
        let prepared = Arc::new(compiler.prepare_tune(program, bindings, options)?);
        let n = prepared.plan.candidates.len();
        let bindings_shared = Arc::new(bindings.clone());
        let inputs_shared = Arc::new(inputs.clone());

        let (tx, rx) = channel::<(usize, Option<f64>)>();
        let mut pending = 0usize;
        for index in 0..n {
            let job_ctx = (
                self.shared.clone(),
                prepared.clone(),
                bindings_shared.clone(),
                inputs_shared.clone(),
                tx.clone(),
            );
            let job = Box::new(move || {
                let (shared, prepared, bindings, inputs, tx) = job_ctx;
                let mapping = &prepared.plan.candidates[index].mapping;
                let cost = catch_unwind(AssertUnwindSafe(|| {
                    shared
                        .compiler
                        .measure_candidate(&prepared, &bindings, &inputs, mapping)
                }))
                .unwrap_or(None);
                let _ = tx.send((index, cost));
            });
            match self.pool.try_submit(job) {
                Ok(()) => pending += 1,
                Err(rejected) => {
                    // Queue full or shutting down: measure inline.
                    if let Some(crate::pool::QueueFull(job)) = rejected {
                        job();
                        pending += 1;
                    } else {
                        let mapping = &prepared.plan.candidates[index].mapping;
                        let cost = compiler.measure_candidate(&prepared, bindings, inputs, mapping);
                        let _ = tx.send((index, cost));
                        pending += 1;
                    }
                }
            }
        }
        drop(tx);

        let mut costs: Vec<Option<f64>> = vec![None; n];
        for _ in 0..pending {
            match rx.recv() {
                Ok((index, cost)) => costs[index] = cost,
                Err(_) => break,
            }
        }

        // Replay the costs through the serial measurement loop, which
        // visits candidates in score order and honors `max_measurements`
        // exactly as `Compiler::autotune` does. No bound, so every
        // candidate is visited in turn until the cap.
        let mut replay = costs.into_iter();
        let result = multidim_mapping::tune_pruned(
            &prepared.plan,
            options.max_measurements,
            |_| None,
            |_| replay.next().flatten(),
        )
        .ok_or_else(|| {
            EngineError::Compile(multidim::CompileError(
                "no mapping candidate was executable".into(),
            ))
        })?;

        // The analytic baseline is the mapping `Compiler::compile` picks;
        // its cost is known only when it was one of the measured
        // candidates.
        let analytic = compiler.analytic_mapping(&prepared, bindings);
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
        if multidim_trace::enabled() {
            let mut ev = multidim_trace::Event::gauge("engine", "autotune")
                .arg("program", record.program.as_str())
                .arg("tuned_cost", record.tuned_cost)
                .arg("measured", record.measured);
            if let Some(delta) = record.analytic_delta() {
                ev = ev.arg("analytic_delta", delta);
            }
            multidim_trace::emit(ev);
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

    /// Request counters.
    pub fn stats(&self) -> EngineStats {
        let s = &self.shared.stats;
        EngineStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            failed: s.failed.load(Ordering::Relaxed),
            expired: s.expired.load(Ordering::Relaxed),
            panicked: s.panicked.load(Ordering::Relaxed),
            tuned_served: s.tuned_served.load(Ordering::Relaxed),
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

    /// Post-mortem bundles evicted unread because the bounded ring (cap
    /// 32) was full — nonzero means crash evidence has been lost.
    pub fn post_mortems_dropped(&self) -> u64 {
        self.shared.metrics.post_mortems_dropped_total.get()
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

    /// Post-mortem bundles of recently failed requests, oldest first.
    /// Bounded: only the most recent 32 failures are retained. A bundle
    /// exists for every request that panicked, missed its deadline, or
    /// failed to compile or run.
    pub fn post_mortems(&self) -> Vec<PostMortem> {
        let q = self
            .shared
            .post_mortems
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        q.iter().cloned().collect()
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

    /// Stitch one served request into a [`RequestProfile`]: latency phases
    /// (queue → compile → run), the mapping search's score breakdown (when
    /// the *MultiDim* analysis ran), and the simulator's roofline counters.
    pub fn profile(&self, response: &Response) -> RequestProfile {
        let exe = &response.executable;
        let search = exe.analysis.as_ref().map(|a| SearchBreakdown {
            mapping: a.decision.to_string(),
            score: a.score,
            normalized_score: a.normalized_score,
            dop: a.dop,
            candidates: a.candidates as u64,
            pruned: a.pruned as u64,
        });
        RequestProfile {
            program: exe.program.name.clone(),
            fingerprint: response.fingerprint.to_string(),
            cache_hit: response.cache_hit,
            tuned: response.tuned,
            phases: PhaseBreakdown {
                queue_seconds: response.queue_wait.as_secs_f64(),
                compile_seconds: response.compile_time.as_secs_f64(),
                run_seconds: response.run_time.as_secs_f64(),
                total_seconds: (response.queue_wait + response.service_time).as_secs_f64(),
            },
            search,
            metrics: exe.metrics(&response.run).to_json(),
        }
    }

    /// Emit engine + cache counters as `multidim-trace` gauge events on
    /// the calling thread's sink.
    pub fn emit_stats(&self) {
        if multidim_trace::enabled() {
            let s = self.stats();
            multidim_trace::emit(
                multidim_trace::Event::gauge("engine", "requests")
                    .arg("submitted", s.submitted)
                    .arg("completed", s.completed)
                    .arg("rejected", s.rejected)
                    .arg("failed", s.failed)
                    .arg("expired", s.expired)
                    .arg("panicked", s.panicked)
                    .arg("tuned_served", s.tuned_served)
                    .arg("queue_depth", self.queue_depth()),
            );
        }
        self.shared.cache.emit_trace();
    }

    /// Persist the tuning store now (also happens on shutdown/drop).
    ///
    /// # Errors
    ///
    /// Propagates the underlying IO failure.
    pub fn flush(&self) -> Result<(), std::io::Error> {
        self.shared.store.save()
    }

    /// Drain the queue, join the workers, and persist the tuning store.
    /// Also performed on drop.
    pub fn shutdown(mut self) {
        self.pool.shutdown();
        let _ = self.shared.store.save();
    }
}

/// How far `serve` got before returning or unwinding: filled in as the
/// phases progress so a failure can report partial timings and the request
/// fingerprint even when it never produced a [`Response`].
#[derive(Default)]
struct ServePhases {
    fingerprint: Option<Fingerprint>,
    cache_hit: Option<bool>,
    compile_started: Option<Instant>,
    compile: Option<Duration>,
    run_started: Option<Instant>,
    run: Option<Duration>,
}

impl ServePhases {
    /// Completed-phase duration, or time spent in the phase so far when
    /// the failure interrupted it mid-flight.
    fn phase_seconds(done: Option<Duration>, started: Option<Instant>) -> Option<f64> {
        done.map(|d| d.as_secs_f64())
            .or_else(|| started.map(|t| t.elapsed().as_secs_f64()))
    }

    fn compile_seconds(&self) -> Option<f64> {
        Self::phase_seconds(self.compile, self.compile_started)
    }

    fn run_seconds(&self) -> Option<f64> {
        Self::phase_seconds(self.run, self.run_started)
    }
}

/// Build a post-mortem bundle on the failing worker thread (so the flight
/// recorder's `recent()` reads this worker's ring) and retain it in the
/// engine's bounded queue.
fn record_failure(
    shared: &Shared,
    request: &Request,
    reason: String,
    queue_wait: Duration,
    phases: &ServePhases,
) {
    let diagnostics = phases
        .fingerprint
        .and_then(|fp| shared.cache.peek(fp))
        .map(|exe| {
            exe.diagnostics
                .diagnostics
                .iter()
                .map(|d| d.render_line())
                .collect()
        })
        .unwrap_or_default();
    let events = shared
        .recorder
        .as_ref()
        .map(|r| r.recent())
        .unwrap_or_default();
    let pm = PostMortem {
        program: request.program.name.clone(),
        fingerprint: phases.fingerprint.map(|fp| fp.to_string()),
        reason,
        queue_seconds: queue_wait.as_secs_f64(),
        compile_seconds: phases.compile_seconds(),
        run_seconds: phases.run_seconds(),
        diagnostics,
        events,
    };
    let mut q = shared
        .post_mortems
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    if q.len() == POST_MORTEM_CAP {
        // Evicting an unread bundle silently loses crash evidence; count
        // it so the exposition shows the loss.
        q.pop_front();
        shared.metrics.post_mortems_dropped_total.inc();
    }
    q.push_back(pm);
}

/// Decrements the in-flight gauge on every exit path (including the
/// early deadline return and a propagating panic).
struct InFlightGuard<'a>(&'a AtomicU64);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Finish a trace in the installed store if this tier minted it; the
/// context's minter owns the sampling decision. Returns the kept trace id
/// when the sampler retained the trace.
fn finish_trace(
    trace: Option<TraceContext>,
    owns: bool,
    outcome: TraceOutcome,
    latency_seconds: Option<f64>,
) -> Option<u128> {
    if !owns {
        return None;
    }
    let ctx = trace.filter(|c| c.sampled)?;
    let store = multidim_trace::store()?;
    store
        .finish(&ctx, outcome, latency_seconds)
        .then_some(ctx.trace_id)
}

/// Record one already-elapsed child span of `ctx` (queue waits and other
/// phases reconstructed after the fact, where a live [`RequestSpan`]
/// guard can't wrap the work).
fn record_child_span(
    ctx: &TraceContext,
    cat: &'static str,
    name: &'static str,
    start: Instant,
    dur: Duration,
    args: Vec<(&'static str, multidim_trace::Value)>,
) {
    if !ctx.sampled {
        return;
    }
    if let Some(store) = multidim_trace::store() {
        let child = ctx.child();
        store.record(
            ctx,
            SpanRecord {
                span_id: child.span_id,
                parent: Some(ctx.span_id),
                cat,
                name,
                start_us: instant_us(start),
                dur_us: dur.as_secs_f64() * 1e6,
                args,
            },
        );
    }
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
        record_child_span(ctx, "engine", "queue", enqueued, queue_wait, Vec::new());
    }
    // Deadline check #1: the request may have expired while queued.
    if let Some(d) = deadline {
        if queue_wait > d {
            shared.stats.expired.fetch_add(1, Ordering::Relaxed);
            shared.stats.failed.fetch_add(1, Ordering::Relaxed);
            shared.metrics.expired_total.inc();
            shared.metrics.failed_total.inc();
            shared.metrics.expired_by_workload.with(&workload).inc();
            shared.metrics.failed_by_workload.with(&workload).inc();
            let err = EngineError::DeadlineExceeded { waited: queue_wait };
            // The request never reached `serve`, so compute the
            // fingerprint here purely for the bundle (guarded: a hostile
            // binding can make fingerprinting itself panic).
            let phases = ServePhases {
                fingerprint: catch_unwind(AssertUnwindSafe(|| {
                    shared
                        .compiler
                        .fingerprint(&request.program, &request.bindings)
                }))
                .ok(),
                ..ServePhases::default()
            };
            record_failure(shared, &request, err.to_string(), queue_wait, &phases);
            record_root_span(trace, owns_trace, &workload, enqueued, "expired");
            finish_trace(
                trace,
                owns_trace,
                TraceOutcome::Expired,
                Some(queue_wait.as_secs_f64()),
            );
            sender.send(Err(err));
            return;
        }
    }
    let started = Instant::now();
    let mut phases = ServePhases::default();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        serve(shared, &request, deadline, enqueued, &mut phases)
    }));
    let result = match outcome {
        Ok(r) => r,
        Err(payload) => {
            shared.stats.panicked.fetch_add(1, Ordering::Relaxed);
            shared.metrics.panicked_total.inc();
            Err(EngineError::WorkerPanic(panic_message(payload.as_ref())))
        }
    };
    let result = result.map(|(fingerprint, executable, run, cache_hit, tuned)| {
        if tuned {
            shared.stats.tuned_served.fetch_add(1, Ordering::Relaxed);
            shared.metrics.tuned_served_total.inc();
        }
        Response {
            fingerprint,
            executable,
            run,
            cache_hit,
            tuned,
            queue_wait,
            service_time: started.elapsed(),
            compile_time: phases.compile.unwrap_or_default(),
            run_time: phases.run.unwrap_or_default(),
            trace,
        }
    });
    // Stitch the trace before touching the histograms: the root span must
    // land before `finish` seals the trace, and the sampler's keep/drop
    // verdict decides whether the latency sample carries an exemplar.
    let (trace_outcome, trace_latency) = match &result {
        Ok(resp) => (
            TraceOutcome::Completed,
            Some((resp.queue_wait + resp.service_time).as_secs_f64()),
        ),
        Err(EngineError::DeadlineExceeded { .. }) => (
            TraceOutcome::Expired,
            Some(enqueued.elapsed().as_secs_f64()),
        ),
        Err(_) => (TraceOutcome::Failed, None),
    };
    record_root_span(
        trace,
        owns_trace,
        &workload,
        enqueued,
        trace_outcome.as_str(),
    );
    let kept_trace = finish_trace(trace, owns_trace, trace_outcome, trace_latency);
    match &result {
        Ok(resp) => {
            shared.stats.completed.fetch_add(1, Ordering::Relaxed);
            shared.metrics.completed_total.inc();
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
            let run_metrics = resp.executable.metrics(&resp.run);
            run_metrics.record(&shared.registry);
            let (child_launches, child_blocks) = run_metrics.child_totals();
            if child_launches > 0 {
                shared
                    .metrics
                    .child_launches_by_workload
                    .with(&workload)
                    .add(child_launches);
                shared
                    .metrics
                    .child_blocks_by_workload
                    .with(&workload)
                    .add(child_blocks);
            }
            shared.observe_service_time(resp.service_time.as_secs_f64());
        }
        Err(err) => {
            shared.stats.failed.fetch_add(1, Ordering::Relaxed);
            shared.metrics.failed_total.inc();
            shared.metrics.failed_by_workload.with(&workload).inc();
            if matches!(err, EngineError::DeadlineExceeded { .. }) {
                shared.stats.expired.fetch_add(1, Ordering::Relaxed);
                shared.metrics.expired_total.inc();
                shared.metrics.expired_by_workload.with(&workload).inc();
            }
            record_failure(shared, &request, err.to_string(), queue_wait, &phases);
        }
    }
    sender.send(result);
}

/// Record the root "request" span when this tier minted the context (an
/// upstream front door records its own root covering admission→outcome).
fn record_root_span(
    trace: Option<TraceContext>,
    owns: bool,
    workload: &str,
    enqueued: Instant,
    outcome: &'static str,
) {
    if !owns {
        return;
    }
    let Some(ctx) = trace.filter(|c| c.sampled) else {
        return;
    };
    if let Some(store) = multidim_trace::store() {
        store.record(
            &ctx,
            SpanRecord {
                span_id: ctx.span_id,
                parent: None,
                cat: "engine",
                name: "request",
                start_us: instant_us(enqueued),
                dur_us: enqueued.elapsed().as_secs_f64() * 1e6,
                args: vec![
                    ("workload", workload.to_string().into()),
                    ("outcome", outcome.into()),
                ],
            },
        );
    }
}

type Served = (Fingerprint, Arc<Executable>, RunReport, bool, bool);

fn serve(
    shared: &Shared,
    request: &Request,
    deadline: Option<Duration>,
    enqueued: Instant,
    phases: &mut ServePhases,
) -> Result<Served, EngineError> {
    let fp = shared
        .compiler
        .fingerprint(&request.program, &request.bindings);
    phases.fingerprint = Some(fp);
    let tuned_record = shared.store.get(fp);
    let tuned = tuned_record.is_some();
    let mut cache_hit = true;
    phases.compile_started = Some(Instant::now());
    // A live guard wraps the phase: if compilation errors out (`?`), the
    // drop still records the span with the time spent so far.
    let mut compile_span = multidim_trace::request_span("engine", "compile");
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
    }
    drop(compile_span);
    phases.compile = phases.compile_started.map(|t| t.elapsed());
    phases.cache_hit = Some(cache_hit);
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
    phases.run_started = Some(Instant::now());
    let run_span = multidim_trace::request_span("engine", "run");
    let run = exe.run(&request.inputs)?;
    drop(run_span);
    phases.run = phases.run_started.map(|t| t.elapsed());
    Ok((fp, exe, run, cache_hit, tuned))
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
