//! A deterministic zipf-distributed load generator over the workload
//! catalog, driving [`Engine::submit`] from N concurrent clients.
//!
//! The paper's serving story ("heavy traffic from millions of users")
//! needs skewed traffic: real request streams follow a power law, and a
//! power law is exactly what stresses the engine's cache (hot programs
//! stay resident, cold ones churn) and backpressure (bursts shed). This
//! module provides:
//!
//! * a [`ZipfSampler`] — rank `r` of `n` workloads drawn with probability
//!   proportional to `1/(r+1)^skew`;
//! * deterministic per-client request **schedules** ([`client_schedule`]):
//!   with a fixed seed the sequence of workload indices each client
//!   submits is identical across runs and machines — only how *far* a
//!   duration-bounded run gets through the schedule varies;
//! * closed-loop (each client waits for its response) and open-loop
//!   (clients fire on a fixed cadence and never wait; a full queue sheds)
//!   drivers, plus an **overdrive** mode that calibrates closed-loop
//!   capacity first and then targets a multiple of it — machine-
//!   independent overload;
//! * a [`LoadTarget`] abstraction so the same clients drive either a
//!   single [`Engine`] ([`run_load`]) or the sharded multi-tenant
//!   [`FrontDoor`] ([`run_load_fleet`]), with clients assigned to
//!   tenants deterministically from the seed;
//! * a [`LoadReport`] carrying the gate metrics (`p99_under_load_us`,
//!   `shed_rate`, `availability`), per-workload and per-tenant rows,
//!   the [`SloStatus`] dashboard, and overload time series;
//! * closed-loop **alerting**: the coordinator thread evaluates an
//!   [`AlertEngine`] once per window rotation against the run's SLO
//!   tracker and a live metrics registry (`p99_under_load_us`,
//!   `shed_rate`, `availability`, `queue_depth`), and the report carries
//!   the transition log — ticket-severity burn alerts fire by design
//!   under overdrive, page-severity rules come from a committed baseline
//!   (see the `check_alerts` gate);
//! * trace-linked **exemplars**: when a
//!   [`TraceStore`](multidim_trace::TraceStore) is installed, each
//!   completion whose trace the tail sampler kept lands in the latency
//!   histogram with its trace id attached, so the report's p99 links to
//!   a stored trace.

use multidim_engine::{Engine, EngineError, Request, Response, Ticket};
use multidim_obs::{
    AlertEngine, AlertEvent, AlertRule, AlertSeverity, BurnObjective, BurnRateRule, Exemplar,
    HistogramSnapshot, Registry, Slo, SloStatus, SloTracker, TimeSeries,
};
use multidim_serve::{FrontDoor, ServeError};
use multidim_trace::json::Json;
use multidim_workloads::catalog::CatalogEntry;
use multidim_workloads::data::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retained samples per overload time series.
const SERIES_CAP: usize = 1024;

/// Schedule prefix length hashed into [`LoadReport::schedule_digest`]:
/// long enough that any plausible run consumes less, so the digest is
/// identical across machines of different speeds.
const DIGEST_PREFIX: usize = 4096;

/// A zipf (discrete power-law) sampler over `n` ranked items: item `r`
/// is drawn with probability proportional to `1/(r+1)^skew`. `skew = 0`
/// is uniform; `skew = 1` is the classic zipf; larger is spikier.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// A sampler over `n` items (at least 1) with the given skew.
    pub fn new(n: usize, skew: f64) -> ZipfSampler {
        let n = n.max(1);
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(skew);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfSampler { cdf }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// `true` for a sampler over a single item.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Probability mass of item `r`.
    pub fn mass(&self, r: usize) -> f64 {
        let lo = if r == 0 { 0.0 } else { self.cdf[r - 1] };
        self.cdf[r] - lo
    }

    /// Draw one item index.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        // First index whose cumulative mass exceeds the draw.
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The deterministic workload-index schedule of one client: the first
/// `len` draws of the client's private generator. Two runs with the same
/// `(n, skew, seed, client)` produce identical schedules — this is the
/// reproducibility contract the load bench is gated on.
pub fn client_schedule(n: usize, skew: f64, seed: u64, client: usize, len: usize) -> Vec<usize> {
    let zipf = ZipfSampler::new(n, skew);
    let mut rng = client_rng(seed, client);
    (0..len).map(|_| zipf.sample(&mut rng)).collect()
}

/// Each client's generator is seeded independently of the others so the
/// schedule does not depend on thread interleaving.
fn client_rng(seed: u64, client: usize) -> Rng {
    Rng::new(seed ^ (client as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// FNV-1a over every client's schedule prefix: a cheap cross-run,
/// cross-machine fingerprint of "the same requests in the same order".
pub fn schedule_digest(n: usize, skew: f64, seed: u64, clients: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for client in 0..clients {
        for idx in client_schedule(n, skew, seed, client, DIGEST_PREFIX) {
            h ^= idx as u64 + 1;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Deterministic client → tenant assignment: a pure function of the
/// master seed, so the tenant mix is reproducible across runs and
/// machines (and reshuffles when the seed changes, unlike a plain
/// `client % tenants`).
pub fn tenant_of(seed: u64, client: usize, tenants: usize) -> usize {
    if tenants <= 1 {
        return 0;
    }
    (Rng::new(seed ^ 0x7e4a_4a7e ^ (client as u64).wrapping_mul(0xd134_2543_de82_ef95)).next_u64()
        % tenants as u64) as usize
}

/// The tenant label used for index `i` in reports and submissions.
pub fn tenant_name(i: usize) -> String {
    format!("tenant-{i}")
}

/// What the load generator drives: a single engine or the sharded
/// front door. The clients, pacing, and report are identical either
/// way — only submission and telemetry sampling dispatch.
#[derive(Clone, Copy)]
pub enum LoadTarget<'a> {
    /// One in-process engine; tenant labels are ignored.
    Engine(&'a Engine),
    /// The sharded serving tier; submissions carry tenant labels and
    /// pass through admission control.
    Fleet(&'a FrontDoor),
}

impl<'a> LoadTarget<'a> {
    fn submit(&self, tenant: &str, request: Request) -> Result<AnyTicket, Outcome> {
        match self {
            LoadTarget::Engine(engine) => match engine.submit(request) {
                Ok(t) => Ok(AnyTicket::Engine(t)),
                Err(e) => Err(Outcome::from_engine_error(&e)),
            },
            LoadTarget::Fleet(door) => match door.submit(tenant, request) {
                Ok(t) => Ok(AnyTicket::Fleet(t)),
                Err(e) => Err(Outcome::from_serve_error(&e)),
            },
        }
    }

    fn queue_depth(&self) -> usize {
        match self {
            LoadTarget::Engine(engine) => engine.queue_depth(),
            LoadTarget::Fleet(door) => door.queue_depth(),
        }
    }

    fn in_flight(&self) -> usize {
        match self {
            LoadTarget::Engine(engine) => engine.in_flight(),
            LoadTarget::Fleet(door) => door.in_flight(),
        }
    }

    fn rotate_target_slo(&self) {
        if let LoadTarget::Fleet(door) = self {
            door.rotate_slo();
        }
    }
}

/// A completion handle from either target.
enum AnyTicket {
    Engine(Ticket),
    Fleet(multidim_serve::Ticket),
}

impl AnyTicket {
    /// Condvar-backed park: block up to `timeout` for the result to be
    /// ready without consuming it (the open-loop sweep primitive — no
    /// busy-polling).
    fn wait_ready(&self, timeout: Duration) -> bool {
        match self {
            AnyTicket::Engine(t) => t.wait_ready(timeout),
            AnyTicket::Fleet(t) => t.wait_ready(timeout),
        }
    }

    /// Non-blocking check; yields the outcome exactly once.
    fn poll(&self) -> Option<Outcome> {
        match self {
            AnyTicket::Engine(t) => t.poll().map(|o| Outcome::from_engine(&o)),
            AnyTicket::Fleet(t) => t.poll().map(|o| Outcome::from_serve(&o)),
        }
    }

    /// Block until the outcome arrives.
    fn wait(self) -> Outcome {
        match self {
            AnyTicket::Engine(t) => Outcome::from_engine(&t.wait()),
            AnyTicket::Fleet(t) => Outcome::from_serve(&t.wait()),
        }
    }
}

/// Unified classification of one request's fate, target-independent.
enum Outcome {
    /// Served; carries end-to-end latency (seconds), the cache view, and
    /// the request's trace id when tracing was on for it.
    Completed {
        latency: f64,
        cache_hit: bool,
        trace: Option<u128>,
    },
    /// Rejected by backpressure or shed at admission (deadline
    /// unmeetable, every shard overloaded).
    Shed,
    /// Deadline expired inside a shard.
    Expired,
    /// Rejected by tenant quota — only the fleet target produces this.
    QuotaRejected,
    /// Compile/run/panic/timeout failure. `shutting_down` marks the
    /// engine refusing new work: the client should stop, not retry.
    Failed { shutting_down: bool },
}

impl Outcome {
    fn from_engine(outcome: &Result<Response, EngineError>) -> Outcome {
        match outcome {
            Ok(resp) => Outcome::Completed {
                latency: (resp.queue_wait + resp.service_time).as_secs_f64(),
                cache_hit: resp.cache_hit,
                trace: resp.trace.map(|c| c.trace_id),
            },
            Err(e) => Outcome::from_engine_error(e),
        }
    }

    fn from_engine_error(e: &EngineError) -> Outcome {
        match e {
            EngineError::Rejected { .. } => Outcome::Shed,
            EngineError::DeadlineExceeded { .. } => Outcome::Expired,
            EngineError::ShuttingDown => Outcome::Failed {
                shutting_down: true,
            },
            _ => Outcome::Failed {
                shutting_down: false,
            },
        }
    }

    fn from_serve(outcome: &Result<multidim_serve::ServeResponse, ServeError>) -> Outcome {
        match outcome {
            Ok(served) => Outcome::Completed {
                latency: (served.response.queue_wait + served.response.service_time).as_secs_f64(),
                cache_hit: served.response.cache_hit,
                trace: served.response.trace.map(|c| c.trace_id),
            },
            Err(e) => Outcome::from_serve_error(e),
        }
    }

    fn from_serve_error(e: &ServeError) -> Outcome {
        match e {
            ServeError::QuotaExceeded { .. } => Outcome::QuotaRejected,
            ServeError::Overloaded { .. } | ServeError::DeadlineUnmeetable { .. } => Outcome::Shed,
            ServeError::Engine(e) => Outcome::from_engine_error(e),
        }
    }

    fn is_shutdown(&self) -> bool {
        matches!(
            self,
            Outcome::Failed {
                shutting_down: true
            }
        )
    }
}

/// How the clients pace themselves.
#[derive(Debug, Clone)]
pub enum LoadMode {
    /// Closed loop: each client submits, waits for the response, repeats,
    /// for exactly `requests_per_client` requests. Fully deterministic
    /// request count; used by tests.
    ClosedCount {
        /// Requests each client issues.
        requests_per_client: usize,
    },
    /// Closed loop until `duration` elapses.
    ClosedDuration {
        /// Wall-clock run length.
        duration: Duration,
    },
    /// Open loop: the fleet targets `target_rps` split evenly across
    /// clients; nobody waits for responses, and a full queue sheds.
    Open {
        /// Aggregate target request rate.
        target_rps: f64,
        /// Wall-clock run length.
        duration: Duration,
    },
    /// Open loop at `factor ×` the engine's measured closed-loop
    /// capacity (calibrated with a short closed-loop burst before the
    /// timed run) — machine-independent overload, so shed-rate is set by
    /// `factor`, not by how fast CI hardware happens to be.
    Overdrive {
        /// Multiple of calibrated capacity to target (e.g. `3.0`).
        factor: f64,
        /// Wall-clock run length of the timed phase.
        duration: Duration,
    },
}

/// Load-generator configuration. `Default` is the CI smoke config:
/// 8 clients, skew 1.0, seed 42, 3x overdrive for 5 s.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent clients.
    pub clients: usize,
    /// Tenants the clients are spread over (deterministically from the
    /// seed; see [`tenant_of`]). `1` means everything is one tenant.
    pub tenants: usize,
    /// Zipf skew over the workload catalog.
    pub skew: f64,
    /// Master seed; every client derives its own stream from it.
    pub seed: u64,
    /// Pacing mode.
    pub mode: LoadMode,
    /// SLO the run is judged against.
    pub slo: Slo,
    /// SLO window rotation / telemetry sampling cadence.
    pub window: Duration,
    /// SLO windows retained (the burn-rate horizon).
    pub windows: usize,
    /// Alert rules the coordinator evaluates once per window rotation.
    /// Defaults to [`LoadConfig::default_alert_rules`]; extend with
    /// page-severity rules derived from a committed baseline to make a
    /// run CI-gateable (see `alerts_gate::rules_from_baseline`).
    pub alert_rules: Vec<AlertRule>,
}

impl LoadConfig {
    /// The standing rule set: ticket-severity multi-window burn alerts
    /// on both halves of the SLO. Overdrive burns budget *by design* —
    /// these fire to show the pipeline is live, and being tickets they
    /// never fail the CI alert gate (page rules are reserved for
    /// baseline-conditioned regressions).
    pub fn default_alert_rules() -> Vec<AlertRule> {
        vec![
            AlertRule::Burn(BurnRateRule {
                name: "availability-burn".to_string(),
                severity: AlertSeverity::Ticket,
                slo: "load".to_string(),
                objective: BurnObjective::Availability,
                fast_windows: 4,
                slow_windows: 16,
                threshold: 6.0,
            }),
            AlertRule::Burn(BurnRateRule {
                name: "latency-burn".to_string(),
                severity: AlertSeverity::Ticket,
                slo: "load".to_string(),
                objective: BurnObjective::Latency,
                fast_windows: 4,
                slow_windows: 16,
                threshold: 6.0,
            }),
        ]
    }
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            clients: 8,
            tenants: 1,
            skew: 1.0,
            seed: 42,
            mode: LoadMode::Overdrive {
                factor: 3.0,
                duration: Duration::from_secs(5),
            },
            // Overdrive sheds ~2/3 of traffic by design, so judge
            // availability only over admitted (non-shed) work would be
            // kinder — but the SLO deliberately counts sheds: the report
            // should *show* the budget burning under overload.
            slo: Slo::new("load", 0.99, 0.050),
            window: Duration::from_millis(250),
            windows: 64,
            alert_rules: LoadConfig::default_alert_rules(),
        }
    }
}

/// One workload's outcome counters (client-side view).
#[derive(Debug, Clone, Default)]
pub struct WorkloadRow {
    /// Program name.
    pub name: String,
    /// Requests the schedule directed at this workload.
    pub attempted: u64,
    /// Served successfully.
    pub completed: u64,
    /// Rejected by backpressure.
    pub shed: u64,
    /// Deadline expiries.
    pub expired: u64,
    /// Other failures (compile, run, panic).
    pub failed: u64,
    /// Cache hits among completions.
    pub cache_hits: u64,
    /// Cache misses among completions (cold compiles).
    pub cache_misses: u64,
    /// p99 latency of completions, in microseconds (NaN when none).
    pub p99_us: f64,
}

/// One tenant's outcome counters (client-side view).
#[derive(Debug, Clone, Default)]
pub struct TenantRow {
    /// Tenant label ([`tenant_name`]).
    pub name: String,
    /// Requests this tenant's clients attempted.
    pub requests: u64,
    /// Served successfully.
    pub completed: u64,
    /// Rejected by backpressure or shed at admission.
    pub shed: u64,
    /// Rejected by quota.
    pub quota_rejected: u64,
    /// Deadline expiries.
    pub expired: u64,
    /// Other failures.
    pub failed: u64,
    /// p99 latency of completions, in microseconds (NaN when none).
    pub p99_us: f64,
}

/// One overload telemetry series, exported with summary stats.
pub struct SeriesReport {
    /// Series name (`queue_depth`, `in_flight`, `shed_per_sec`, …).
    pub name: String,
    /// The samples.
    pub series: TimeSeries,
}

/// Everything one load run produced. Render with
/// [`LoadReport::render_text`] (dashboard) or [`LoadReport::to_json`]
/// (the `--report` schema the `check_alerts` gate consumes).
pub struct LoadReport {
    /// Clients that ran.
    pub clients: usize,
    /// Tenants the clients were spread over.
    pub tenants: usize,
    /// Shards behind the target (`None` for a single engine).
    pub shards: Option<usize>,
    /// Zipf skew used.
    pub skew: f64,
    /// Master seed used.
    pub seed: u64,
    /// Mode label (`closed` / `open` / `overdrive`).
    pub mode: String,
    /// Aggregate target rate, when the mode had one.
    pub target_rps: Option<f64>,
    /// Calibrated closed-loop capacity, when overdrive measured one.
    pub calibrated_rps: Option<f64>,
    /// Cross-run schedule fingerprint (seed + skew + clients).
    pub schedule_digest: u64,
    /// Timed-phase wall clock, seconds.
    pub elapsed: f64,
    /// Requests the clients attempted to submit.
    pub attempted: u64,
    /// Requests served successfully.
    pub completed: u64,
    /// Requests rejected by backpressure or shed at admission.
    pub shed: u64,
    /// Requests rejected by tenant quota.
    pub quota_rejected: u64,
    /// Requests whose deadline expired.
    pub expired: u64,
    /// Requests that failed otherwise.
    pub failed: u64,
    /// End-to-end latency of completions (seconds).
    pub latency: HistogramSnapshot,
    /// Per-workload rows, catalog order.
    pub per_workload: Vec<WorkloadRow>,
    /// Per-tenant rows, tenant order.
    pub per_tenant: Vec<TenantRow>,
    /// Workload names classified hot (smallest set covering ≥ half the
    /// attempted requests) — the cache's resident set under skew.
    pub hot_workloads: Vec<String>,
    /// Cache hit rate over hot workloads' completions.
    pub hot_hit_rate: Option<f64>,
    /// Cache hit rate over the remaining (cold) workloads' completions.
    pub cold_hit_rate: Option<f64>,
    /// SLO status over the run.
    pub slo: SloStatus,
    /// Overload telemetry (queue depth, in-flight, shed rate, …).
    pub series: Vec<SeriesReport>,
    /// Alert transition log (firing/resolved edges, evaluation order).
    pub alerts: Vec<AlertEvent>,
    /// `(bucket, exemplar)` pairs from the end-to-end latency histogram:
    /// trace ids of kept traces, one per occupied bucket. Empty when no
    /// trace store was installed for the run.
    pub exemplars: Vec<(usize, Exemplar)>,
}

impl LoadReport {
    /// Served fraction of attempted requests (1.0 when nothing ran).
    pub fn availability(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.completed as f64 / self.attempted as f64
        }
    }

    /// Shed fraction of attempted requests.
    pub fn shed_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.shed as f64 / self.attempted as f64
        }
    }

    /// Quota-rejected fraction of attempted requests.
    pub fn quota_rejected_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.quota_rejected as f64 / self.attempted as f64
        }
    }

    /// Deadline-miss fraction of attempted requests.
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.expired as f64 / self.attempted as f64
        }
    }

    /// Completions per second of the timed phase.
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed > 0.0 {
            self.completed as f64 / self.elapsed
        } else {
            0.0
        }
    }

    /// p99 end-to-end latency of completions, microseconds.
    pub fn p99_under_load_us(&self) -> f64 {
        self.latency.quantile(0.99).unwrap_or(f64::NAN) * 1e6
    }

    /// The `--report` JSON. Top-level keys are the load-gate
    /// schema (`p99_under_load_us`, `shed_rate`, `availability`,
    /// `samples`); the rest nests under `per_workload`, `slo`, `series`.
    pub fn to_json(&self) -> Json {
        let num = |v: f64| Json::Num((v * 1e6).round() / 1e6);
        let opt = |v: Option<f64>| v.map(num).unwrap_or(Json::Null);
        let rows = self
            .per_workload
            .iter()
            .map(|w| {
                Json::Obj(vec![
                    ("workload".to_string(), Json::Str(w.name.clone())),
                    ("attempted".to_string(), Json::Num(w.attempted as f64)),
                    ("completed".to_string(), Json::Num(w.completed as f64)),
                    ("shed".to_string(), Json::Num(w.shed as f64)),
                    ("expired".to_string(), Json::Num(w.expired as f64)),
                    ("failed".to_string(), Json::Num(w.failed as f64)),
                    ("cache_hits".to_string(), Json::Num(w.cache_hits as f64)),
                    ("cache_misses".to_string(), Json::Num(w.cache_misses as f64)),
                    (
                        "p99_us".to_string(),
                        if w.p99_us.is_finite() {
                            num(w.p99_us)
                        } else {
                            Json::Null
                        },
                    ),
                ])
            })
            .collect();
        let tenant_rows = self
            .per_tenant
            .iter()
            .map(|t| {
                Json::Obj(vec![
                    ("tenant".to_string(), Json::Str(t.name.clone())),
                    ("requests".to_string(), Json::Num(t.requests as f64)),
                    ("completed".to_string(), Json::Num(t.completed as f64)),
                    ("shed".to_string(), Json::Num(t.shed as f64)),
                    (
                        "quota_rejected".to_string(),
                        Json::Num(t.quota_rejected as f64),
                    ),
                    ("expired".to_string(), Json::Num(t.expired as f64)),
                    ("failed".to_string(), Json::Num(t.failed as f64)),
                    (
                        "p99_us".to_string(),
                        if t.p99_us.is_finite() {
                            num(t.p99_us)
                        } else {
                            Json::Null
                        },
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("clients".to_string(), Json::Num(self.clients as f64)),
            ("tenants".to_string(), Json::Num(self.tenants as f64)),
            (
                "shards".to_string(),
                self.shards
                    .map(|s| Json::Num(s as f64))
                    .unwrap_or(Json::Null),
            ),
            ("skew".to_string(), num(self.skew)),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("mode".to_string(), Json::Str(self.mode.clone())),
            ("target_rps".to_string(), opt(self.target_rps)),
            ("calibrated_rps".to_string(), opt(self.calibrated_rps)),
            (
                "schedule_digest".to_string(),
                Json::Str(format!("{:016x}", self.schedule_digest)),
            ),
            ("elapsed_seconds".to_string(), num(self.elapsed)),
            ("requests".to_string(), Json::Num(self.attempted as f64)),
            ("samples".to_string(), Json::Num(self.completed as f64)),
            ("completed".to_string(), Json::Num(self.completed as f64)),
            ("shed".to_string(), Json::Num(self.shed as f64)),
            (
                "quota_rejected".to_string(),
                Json::Num(self.quota_rejected as f64),
            ),
            ("expired".to_string(), Json::Num(self.expired as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("availability".to_string(), num(self.availability())),
            ("shed_rate".to_string(), num(self.shed_rate())),
            (
                "quota_rejected_rate".to_string(),
                num(self.quota_rejected_rate()),
            ),
            (
                "deadline_miss_rate".to_string(),
                num(self.deadline_miss_rate()),
            ),
            ("throughput_rps".to_string(), num(self.throughput_rps())),
            (
                "p99_under_load_us".to_string(),
                num(self.p99_under_load_us()),
            ),
            (
                "p50_under_load_us".to_string(),
                num(self.latency.quantile(0.5).unwrap_or(f64::NAN) * 1e6),
            ),
            ("hot_hit_rate".to_string(), opt(self.hot_hit_rate)),
            ("cold_hit_rate".to_string(), opt(self.cold_hit_rate)),
            (
                "hot_workloads".to_string(),
                Json::Arr(
                    self.hot_workloads
                        .iter()
                        .map(|n| Json::Str(n.clone()))
                        .collect(),
                ),
            ),
            ("per_workload".to_string(), Json::Arr(rows)),
            ("per_tenant".to_string(), Json::Arr(tenant_rows)),
            ("slo".to_string(), self.slo.to_json()),
            (
                "series".to_string(),
                Json::Arr(self.series.iter().map(|s| s.series.to_json()).collect()),
            ),
            (
                "alerts".to_string(),
                Json::Arr(self.alerts.iter().map(AlertEvent::to_json).collect()),
            ),
            (
                "exemplars".to_string(),
                Json::Arr(
                    self.exemplars
                        .iter()
                        .map(|(bucket, e)| {
                            Json::Obj(vec![
                                ("bucket".to_string(), Json::Num(*bucket as f64)),
                                ("trace_id".to_string(), Json::Str(e.trace_hex())),
                                ("latency_seconds".to_string(), num(e.value)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Multi-line text dashboard: headline rates, the SLO block,
    /// sparklines, and the busiest per-workload rows.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "=== load report ===");
        let _ = writeln!(
            out,
            "  {} clients over {} tenant{}{}, zipf skew {}, seed {}, mode {}{}",
            self.clients,
            self.tenants,
            if self.tenants == 1 { "" } else { "s" },
            match self.shards {
                Some(n) => format!(", {n} shards"),
                None => ", single engine".to_string(),
            },
            self.skew,
            self.seed,
            self.mode,
            match (self.target_rps, self.calibrated_rps) {
                (Some(t), Some(c)) => format!(" (target {t:.0} rps = overdrive of {c:.0} rps)"),
                (Some(t), None) => format!(" (target {t:.0} rps)"),
                _ => String::new(),
            }
        );
        let _ = writeln!(
            out,
            "  schedule digest {:016x} (seed-stable across runs)",
            self.schedule_digest
        );
        let _ = writeln!(
            out,
            "  attempted {}  completed {}  shed {}  quota-rejected {}  expired {}  failed {}  in {:.2} s",
            self.attempted,
            self.completed,
            self.shed,
            self.quota_rejected,
            self.expired,
            self.failed,
            self.elapsed
        );
        let _ = writeln!(
            out,
            "  availability {:.3}%  shed rate {:.3}%  quota-rejected rate {:.3}%  deadline-miss rate {:.3}%  throughput {:.0} rps",
            self.availability() * 100.0,
            self.shed_rate() * 100.0,
            self.quota_rejected_rate() * 100.0,
            self.deadline_miss_rate() * 100.0,
            self.throughput_rps()
        );
        let q = |p: f64| self.latency.quantile(p).unwrap_or(f64::NAN) * 1e3;
        let _ = writeln!(
            out,
            "  latency (served) p50 {:.2} ms  p90 {:.2} ms  p99 {:.2} ms  max {:.2} ms",
            q(0.5),
            q(0.9),
            q(0.99),
            q(1.0)
        );
        let hit = |v: Option<f64>| match v {
            Some(v) => format!("{:.1}%", v * 100.0),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "  cache hit rate: hot {} ({} workloads: {})  cold {}",
            hit(self.hot_hit_rate),
            self.hot_workloads.len(),
            self.hot_workloads.join(", "),
            hit(self.cold_hit_rate)
        );
        out.push('\n');
        out.push_str(&self.slo.render_text());
        out.push('\n');
        for s in &self.series {
            if let Some(st) = s.series.stats() {
                let _ = writeln!(
                    out,
                    "  {:<16} {}  min {:.1} max {:.1} last {:.1}",
                    s.name,
                    s.series.sparkline(48),
                    st.min,
                    st.max,
                    st.last
                );
            }
        }
        out.push('\n');
        if self.alerts.is_empty() {
            let _ = writeln!(out, "  alerts: none fired");
        } else {
            let _ = writeln!(out, "  alerts ({} transitions):", self.alerts.len());
            for e in &self.alerts {
                let _ = writeln!(out, "    {}", e.render_line());
            }
        }
        if !self.exemplars.is_empty() {
            let slowest = self
                .exemplars
                .iter()
                .max_by(|(a, _), (b, _)| a.cmp(b))
                .expect("non-empty");
            let _ = writeln!(
                out,
                "  exemplars: {} buckets carry trace ids (slowest {} @ {:.2} ms)",
                self.exemplars.len(),
                slowest.1.trace_hex(),
                slowest.1.value * 1e3
            );
        }
        if self.per_tenant.len() > 1 {
            out.push('\n');
            let _ = writeln!(
                out,
                "  {:<14}{:>10}{:>11}{:>8}{:>15}{:>9}{:>12}",
                "tenant", "requests", "completed", "shed", "quota-rejected", "expired", "p99 (µs)"
            );
            for t in &self.per_tenant {
                let _ = writeln!(
                    out,
                    "  {:<14}{:>10}{:>11}{:>8}{:>15}{:>9}{:>12.1}",
                    t.name, t.requests, t.completed, t.shed, t.quota_rejected, t.expired, t.p99_us
                );
            }
        }
        out.push('\n');
        let mut rows: Vec<&WorkloadRow> = self.per_workload.iter().collect();
        rows.sort_by_key(|w| std::cmp::Reverse(w.attempted));
        let _ = writeln!(
            out,
            "  {:<22}{:>10}{:>10}{:>8}{:>9}{:>10}{:>12}",
            "workload", "attempted", "completed", "shed", "expired", "hit rate", "p99 (µs)"
        );
        for w in rows.iter().take(10) {
            let hits = w.cache_hits + w.cache_misses;
            let _ = writeln!(
                out,
                "  {:<22}{:>10}{:>10}{:>8}{:>9}{:>9.1}%{:>12.1}",
                w.name,
                w.attempted,
                w.completed,
                w.shed,
                w.expired,
                100.0 * w.cache_hits as f64 / hits.max(1) as f64,
                w.p99_us
            );
        }
        out
    }
}

/// Per-workload atomics shared by the client threads.
#[derive(Default)]
struct WorkloadCounters {
    attempted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    failed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

/// Per-tenant atomics shared by the client threads.
#[derive(Default)]
struct TenantCounters {
    requests: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    quota_rejected: AtomicU64,
    expired: AtomicU64,
    failed: AtomicU64,
}

/// Shared run state: counters, the SLO tracker, and latency histograms.
/// The end-to-end latency histogram lives in a [`Registry`] (as
/// `load_request_seconds`) so alert threshold rules can read it and
/// attach its exemplars to firing events.
struct RunState {
    workloads: Vec<WorkloadCounters>,
    tenants: Vec<TenantCounters>,
    registry: Registry,
    latency: Arc<multidim_obs::Histogram>,
    per_workload_latency: Vec<multidim_obs::Histogram>,
    per_tenant_latency: Vec<multidim_obs::Histogram>,
    tracker: SloTracker,
    attempted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    quota_rejected: AtomicU64,
    expired: AtomicU64,
    failed: AtomicU64,
}

impl RunState {
    fn new(n: usize, tenants: usize, slo: Slo, windows: usize) -> RunState {
        let tenants = tenants.max(1);
        let registry = Registry::new();
        let latency = registry.histogram(
            "load_request_seconds",
            "end-to-end latency of served requests (client view)",
        );
        RunState {
            workloads: (0..n).map(|_| WorkloadCounters::default()).collect(),
            tenants: (0..tenants).map(|_| TenantCounters::default()).collect(),
            registry,
            latency,
            per_workload_latency: (0..n).map(|_| multidim_obs::Histogram::new()).collect(),
            per_tenant_latency: (0..tenants)
                .map(|_| multidim_obs::Histogram::new())
                .collect(),
            tracker: SloTracker::new(slo, windows),
            attempted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            quota_rejected: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }
    }

    fn attempt(&self, workload: usize, tenant: usize) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        self.workloads[workload]
            .attempted
            .fetch_add(1, Ordering::Relaxed);
        self.tenants[tenant]
            .requests
            .fetch_add(1, Ordering::Relaxed);
    }

    fn record(&self, workload: usize, tenant: usize, outcome: &Outcome) {
        let w = &self.workloads[workload];
        let t = &self.tenants[tenant];
        match outcome {
            Outcome::Completed {
                latency,
                cache_hit,
                trace,
            } => {
                self.completed.fetch_add(1, Ordering::Relaxed);
                w.completed.fetch_add(1, Ordering::Relaxed);
                t.completed.fetch_add(1, Ordering::Relaxed);
                if *cache_hit {
                    w.cache_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    w.cache_misses.fetch_add(1, Ordering::Relaxed);
                }
                // Attach the trace id as an exemplar only when the tail
                // sampler kept the trace (the serving tier finishes the
                // trace before the outcome reaches the client), so every
                // published exemplar resolves to a stored trace.
                let kept =
                    trace.filter(|id| multidim_trace::store().is_some_and(|s| s.contains(*id)));
                match kept {
                    Some(id) => self.latency.record_with_exemplar(*latency, id),
                    None => self.latency.record(*latency),
                }
                self.per_workload_latency[workload].record(*latency);
                self.per_tenant_latency[tenant].record(*latency);
                self.tracker.record(*latency, true);
            }
            Outcome::Shed => {
                self.shed.fetch_add(1, Ordering::Relaxed);
                w.shed.fetch_add(1, Ordering::Relaxed);
                t.shed.fetch_add(1, Ordering::Relaxed);
                self.tracker.record(0.0, false);
            }
            Outcome::QuotaRejected => {
                self.quota_rejected.fetch_add(1, Ordering::Relaxed);
                t.quota_rejected.fetch_add(1, Ordering::Relaxed);
                self.tracker.record(0.0, false);
            }
            Outcome::Expired => {
                self.expired.fetch_add(1, Ordering::Relaxed);
                w.expired.fetch_add(1, Ordering::Relaxed);
                t.expired.fetch_add(1, Ordering::Relaxed);
                self.tracker.record(0.0, false);
            }
            Outcome::Failed { .. } => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                w.failed.fetch_add(1, Ordering::Relaxed);
                t.failed.fetch_add(1, Ordering::Relaxed);
                self.tracker.record(0.0, false);
            }
        }
    }
}

/// Refresh the gauges alert threshold rules read. The names mirror the
/// report's gate schema (`p99_under_load_us`, `shed_rate`,
/// `availability`) so the same baseline-derived rules work against a
/// live run and against a finished report in the `check_alerts` gate.
fn sample_alert_gauges(state: &RunState, target: LoadTarget<'_>) {
    let r = &state.registry;
    if let Some(p99) = state.latency.quantile(0.99) {
        r.gauge(
            "p99_under_load_us",
            "p99 latency of completions so far (µs)",
        )
        .set(p99 * 1e6);
    }
    let attempted = state.attempted.load(Ordering::Relaxed);
    if attempted > 0 {
        let shed = state.shed.load(Ordering::Relaxed);
        let completed = state.completed.load(Ordering::Relaxed);
        r.gauge("shed_rate", "shed fraction of attempted requests")
            .set(shed as f64 / attempted as f64);
        r.gauge("availability", "served fraction of attempted requests")
            .set(completed as f64 / attempted as f64);
    }
    r.gauge("queue_depth", "target queue depth at last sample")
        .set(target.queue_depth() as f64);
}

fn request_for(entry: &CatalogEntry) -> Request {
    Request::new(
        entry.program.clone(),
        entry.bindings.clone(),
        entry.inputs.clone(),
    )
}

/// Closed-loop client body: walk the schedule, wait for each response.
fn closed_client(
    target: LoadTarget<'_>,
    entries: &[CatalogEntry],
    state: &RunState,
    zipf: &ZipfSampler,
    mut rng: Rng,
    tenant: usize,
    budget: ClientBudget,
) {
    let label = tenant_name(tenant);
    let start = Instant::now();
    let mut issued = 0usize;
    loop {
        match budget {
            ClientBudget::Count(n) if issued >= n => break,
            ClientBudget::Time(d) if start.elapsed() >= d => break,
            _ => {}
        }
        let wl = zipf.sample(&mut rng);
        issued += 1;
        state.attempt(wl, tenant);
        match target.submit(&label, request_for(&entries[wl])) {
            Ok(ticket) => state.record(wl, tenant, &ticket.wait()),
            Err(outcome) if outcome.is_shutdown() => break,
            Err(outcome) => state.record(wl, tenant, &outcome),
        }
    }
}

/// Open-loop client body: fire on a fixed cadence, sweep completions
/// between sends, drain at the end.
#[allow(clippy::too_many_arguments)]
fn open_client(
    target: LoadTarget<'_>,
    entries: &[CatalogEntry],
    state: &RunState,
    zipf: &ZipfSampler,
    mut rng: Rng,
    tenant: usize,
    interval: Duration,
    duration: Duration,
) {
    let label = tenant_name(tenant);
    let start = Instant::now();
    let mut pending: Vec<(usize, AnyTicket)> = Vec::new();
    let mut next = Duration::ZERO;
    while start.elapsed() < duration {
        // Sweep finished tickets so outcomes land near completion time
        // (burn-rate windows see them in the right rotation).
        pending.retain(|(wl, ticket)| match ticket.poll() {
            Some(outcome) => {
                state.record(*wl, tenant, &outcome);
                false
            }
            None => true,
        });
        let now = start.elapsed();
        if now < next {
            // Park on the oldest in-flight ticket's condvar until it is
            // ready or the cadence comes due — no busy-polling. With
            // nothing in flight, plain-sleep out the gap.
            let gap = next - now;
            match pending.first() {
                Some((_, ticket)) => {
                    ticket.wait_ready(gap);
                }
                None => std::thread::sleep(gap),
            }
            continue;
        }
        next += interval;
        let wl = zipf.sample(&mut rng);
        state.attempt(wl, tenant);
        match target.submit(&label, request_for(&entries[wl])) {
            Ok(ticket) => pending.push((wl, ticket)),
            Err(outcome) if outcome.is_shutdown() => break,
            Err(outcome) => state.record(wl, tenant, &outcome),
        }
    }
    for (wl, ticket) in pending {
        state.record(wl, tenant, &ticket.wait());
    }
}

enum ClientBudget {
    Count(usize),
    Time(Duration),
}

/// Short closed-loop burst measuring sustainable completion rate, for
/// [`LoadMode::Overdrive`].
fn calibrate(target: LoadTarget<'_>, entries: &[CatalogEntry], cfg: &LoadConfig) -> f64 {
    let state = RunState::new(entries.len(), cfg.tenants, cfg.slo.clone(), cfg.windows);
    let burst = Duration::from_millis(750);
    let started = Instant::now();
    std::thread::scope(|s| {
        for client in 0..cfg.clients {
            let state = &state;
            let zipf = ZipfSampler::new(entries.len(), cfg.skew);
            // Offset seed so the calibration burst does not replay the
            // exact prefix the timed run will use (cache state aside,
            // keeps the two phases' schedules independent).
            let rng = client_rng(cfg.seed ^ 0xca11_b8a7_e000_0000, client);
            let tenant = tenant_of(cfg.seed, client, cfg.tenants);
            s.spawn(move || {
                closed_client(
                    target,
                    entries,
                    state,
                    &zipf,
                    rng,
                    tenant,
                    ClientBudget::Time(burst),
                );
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    (state.completed.load(Ordering::Relaxed) as f64 / elapsed).max(1.0)
}

/// Run one load experiment against a single `engine` over `entries`.
///
/// The engine should be primed or cold as the experiment intends — this
/// function does not compile anything up front; cold-compile cost under
/// skew is part of what it measures.
pub fn run_load(engine: &Engine, entries: &[CatalogEntry], cfg: &LoadConfig) -> LoadReport {
    run_load_target(LoadTarget::Engine(engine), None, entries, cfg)
}

/// Run one load experiment against the sharded serving tier. Identical
/// clients, pacing, schedules, and report schema as [`run_load`] — the
/// only differences are that submissions carry tenant labels through
/// admission control and the report records the shard count.
pub fn run_load_fleet(door: &FrontDoor, entries: &[CatalogEntry], cfg: &LoadConfig) -> LoadReport {
    run_load_target(LoadTarget::Fleet(door), Some(door.shards()), entries, cfg)
}

fn run_load_target(
    target: LoadTarget<'_>,
    shards: Option<usize>,
    entries: &[CatalogEntry],
    cfg: &LoadConfig,
) -> LoadReport {
    assert!(!entries.is_empty(), "load needs at least one workload");
    let state = RunState::new(entries.len(), cfg.tenants, cfg.slo.clone(), cfg.windows);
    let zipf = ZipfSampler::new(entries.len(), cfg.skew);

    let (mode_label, target_rps, calibrated_rps, duration) = match &cfg.mode {
        LoadMode::ClosedCount { .. } => ("closed".to_string(), None, None, None),
        LoadMode::ClosedDuration { duration } => {
            ("closed".to_string(), None, None, Some(*duration))
        }
        LoadMode::Open {
            target_rps,
            duration,
        } => ("open".to_string(), Some(*target_rps), None, Some(*duration)),
        LoadMode::Overdrive { factor, duration } => {
            let capacity = calibrate(target, entries, cfg);
            (
                "overdrive".to_string(),
                Some(capacity * factor),
                Some(capacity),
                Some(*duration),
            )
        }
    };

    // Overload telemetry, sampled on the window cadence by the
    // coordinator thread below.
    let queue_depth = TimeSeries::new("queue_depth", SERIES_CAP);
    let in_flight = TimeSeries::new("in_flight", SERIES_CAP);
    let shed_per_sec = TimeSeries::new("shed_per_sec", SERIES_CAP);
    let miss_per_sec = TimeSeries::new("deadline_miss_per_sec", SERIES_CAP);
    let done_per_sec = TimeSeries::new("completed_per_sec", SERIES_CAP);

    let stop = std::sync::atomic::AtomicBool::new(false);
    let started = Instant::now();
    let mut alerts: Vec<AlertEvent> = Vec::new();
    std::thread::scope(|s| {
        // Coordinator: rotate SLO windows, sample overload telemetry,
        // and evaluate the alert rules on the window cadence until the
        // clients are done. Returns the alert transition log.
        let coordinator = {
            let state = &state;
            let stop = &stop;
            let series = (
                &queue_depth,
                &in_flight,
                &shed_per_sec,
                &miss_per_sec,
                &done_per_sec,
            );
            let mut engine = AlertEngine::new(cfg.alert_rules.clone());
            s.spawn(move || {
                let (queue_depth, in_flight, shed_per_sec, miss_per_sec, done_per_sec) = series;
                let mut last = (0u64, 0u64, 0u64);
                let window_secs = cfg.window.as_secs_f64().max(1e-3);
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(cfg.window);
                    let t = started.elapsed().as_secs_f64();
                    queue_depth.push(t, target.queue_depth() as f64);
                    in_flight.push(t, target.in_flight() as f64);
                    let now = (
                        state.shed.load(Ordering::Relaxed),
                        state.expired.load(Ordering::Relaxed),
                        state.completed.load(Ordering::Relaxed),
                    );
                    shed_per_sec.push(t, (now.0 - last.0) as f64 / window_secs);
                    miss_per_sec.push(t, (now.1 - last.1) as f64 / window_secs);
                    done_per_sec.push(t, (now.2 - last.2) as f64 / window_secs);
                    last = now;
                    // Evaluate *before* rotating: burn-rate spans start
                    // at the live window, which the rotation would empty.
                    sample_alert_gauges(state, target);
                    engine.evaluate(Some(&state.registry), &[("load", &state.tracker)]);
                    state.tracker.rotate();
                    target.rotate_target_slo();
                }
                // One final pass over the drained run so short tests that
                // never complete a full window still get an evaluation.
                sample_alert_gauges(state, target);
                engine.evaluate(Some(&state.registry), &[("load", &state.tracker)]);
                engine.log().to_vec()
            })
        };

        // Clients run (and are joined) in an inner scope so the stop
        // flag flips only after every client has drained.
        std::thread::scope(|cs| {
            for client in 0..cfg.clients {
                let state = &state;
                let zipf = zipf.clone();
                let rng = client_rng(cfg.seed, client);
                let tenant = tenant_of(cfg.seed, client, cfg.tenants);
                let mode = cfg.mode.clone();
                cs.spawn(move || match mode {
                    LoadMode::ClosedCount {
                        requests_per_client,
                    } => closed_client(
                        target,
                        entries,
                        state,
                        &zipf,
                        rng,
                        tenant,
                        ClientBudget::Count(requests_per_client),
                    ),
                    LoadMode::ClosedDuration { duration } => closed_client(
                        target,
                        entries,
                        state,
                        &zipf,
                        rng,
                        tenant,
                        ClientBudget::Time(duration),
                    ),
                    LoadMode::Open { .. } | LoadMode::Overdrive { .. } => {
                        let rate = target_rps.expect("open modes have a target");
                        let per_client = (rate / cfg.clients as f64).max(1.0);
                        let interval = Duration::from_secs_f64(1.0 / per_client);
                        open_client(
                            target,
                            entries,
                            state,
                            &zipf,
                            rng,
                            tenant,
                            interval,
                            duration.expect("open modes have a duration"),
                        );
                    }
                });
            }
        });
        stop.store(true, Ordering::Relaxed);
        alerts = coordinator.join().expect("coordinator thread panicked");
    });
    let elapsed = started.elapsed().as_secs_f64();

    finish_report(
        cfg,
        entries,
        state,
        shards,
        mode_label,
        target_rps,
        calibrated_rps,
        elapsed,
        alerts,
        vec![
            SeriesReport {
                name: "queue_depth".to_string(),
                series: queue_depth,
            },
            SeriesReport {
                name: "in_flight".to_string(),
                series: in_flight,
            },
            SeriesReport {
                name: "shed_per_sec".to_string(),
                series: shed_per_sec,
            },
            SeriesReport {
                name: "deadline_miss_per_sec".to_string(),
                series: miss_per_sec,
            },
            SeriesReport {
                name: "completed_per_sec".to_string(),
                series: done_per_sec,
            },
        ],
    )
}

#[allow(clippy::too_many_arguments)]
fn finish_report(
    cfg: &LoadConfig,
    entries: &[CatalogEntry],
    state: RunState,
    shards: Option<usize>,
    mode: String,
    target_rps: Option<f64>,
    calibrated_rps: Option<f64>,
    elapsed: f64,
    alerts: Vec<AlertEvent>,
    series: Vec<SeriesReport>,
) -> LoadReport {
    let per_workload: Vec<WorkloadRow> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let w = &state.workloads[i];
            WorkloadRow {
                name: e.name().to_string(),
                attempted: w.attempted.load(Ordering::Relaxed),
                completed: w.completed.load(Ordering::Relaxed),
                shed: w.shed.load(Ordering::Relaxed),
                expired: w.expired.load(Ordering::Relaxed),
                failed: w.failed.load(Ordering::Relaxed),
                cache_hits: w.cache_hits.load(Ordering::Relaxed),
                cache_misses: w.cache_misses.load(Ordering::Relaxed),
                p99_us: state.per_workload_latency[i]
                    .quantile(0.99)
                    .map(|v| v * 1e6)
                    .unwrap_or(f64::NAN),
            }
        })
        .collect();

    // Hot set: smallest attempted-ordered prefix covering >= 50% of
    // traffic. Under zipf skew this is the handful of programs the cache
    // should keep resident.
    let attempted_total: u64 = per_workload.iter().map(|w| w.attempted).sum();
    let mut order: Vec<usize> = (0..per_workload.len()).collect();
    order.sort_by(|&a, &b| per_workload[b].attempted.cmp(&per_workload[a].attempted));
    let mut hot = Vec::new();
    let mut covered = 0u64;
    for &i in &order {
        if covered * 2 >= attempted_total || per_workload[i].attempted == 0 {
            break;
        }
        covered += per_workload[i].attempted;
        hot.push(i);
    }
    let hit_rate = |set: &dyn Fn(usize) -> bool| {
        let (hits, total) = per_workload
            .iter()
            .enumerate()
            .fold((0u64, 0u64), |(h, t), (i, w)| {
                if set(i) {
                    (h + w.cache_hits, t + w.cache_hits + w.cache_misses)
                } else {
                    (h, t)
                }
            });
        (total > 0).then(|| hits as f64 / total as f64)
    };
    let hot_hit_rate = hit_rate(&|i| hot.contains(&i));
    let cold_hit_rate = hit_rate(&|i| !hot.contains(&i));

    let per_tenant: Vec<TenantRow> = state
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| TenantRow {
            name: tenant_name(i),
            requests: t.requests.load(Ordering::Relaxed),
            completed: t.completed.load(Ordering::Relaxed),
            shed: t.shed.load(Ordering::Relaxed),
            quota_rejected: t.quota_rejected.load(Ordering::Relaxed),
            expired: t.expired.load(Ordering::Relaxed),
            failed: t.failed.load(Ordering::Relaxed),
            p99_us: state.per_tenant_latency[i]
                .quantile(0.99)
                .map(|v| v * 1e6)
                .unwrap_or(f64::NAN),
        })
        .collect();

    LoadReport {
        clients: cfg.clients,
        tenants: state.tenants.len(),
        shards,
        skew: cfg.skew,
        seed: cfg.seed,
        mode,
        target_rps,
        calibrated_rps,
        schedule_digest: schedule_digest(entries.len(), cfg.skew, cfg.seed, cfg.clients),
        elapsed,
        attempted: state.attempted.load(Ordering::Relaxed),
        completed: state.completed.load(Ordering::Relaxed),
        shed: state.shed.load(Ordering::Relaxed),
        quota_rejected: state.quota_rejected.load(Ordering::Relaxed),
        expired: state.expired.load(Ordering::Relaxed),
        failed: state.failed.load(Ordering::Relaxed),
        latency: state.latency.snapshot(),
        hot_workloads: hot.iter().map(|&i| per_workload[i].name.clone()).collect(),
        hot_hit_rate,
        cold_hit_rate,
        per_workload,
        per_tenant,
        slo: state.tracker.status(),
        series,
        alerts,
        exemplars: state.latency.exemplars(),
    }
}
