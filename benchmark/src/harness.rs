//! What every workload shares: the run configuration, repeated set-up,
//! the sliced window, and the result a workload hands back to `main`.

use crate::catalog::Rows;
use crate::check::Tally;
use crate::host::Host;
use crate::spans::{now_ns, Span};
use crate::stats::{median, median_p99};
use multidim_engine::EngineConfig;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The window is measured in slices of about this length, with a host
/// sample between slices.
const SLICE: Duration = Duration::from_secs(2);

/// Engine workers in total, whatever the host's core count.
pub const WORKERS: usize = 2;

/// Closed-loop client threads on the serving workloads.
pub const CLIENTS: usize = 2;

#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Config {
    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// A fact about the run, printed and written to the JSON report.
#[derive(Debug, Clone)]
pub enum Fact {
    Int(u64),
    Num(f64),
    Text(String),
}

/// Everything a workload measured. Times are scaled to the nominal host
/// (see [`crate::host`]) unless they say otherwise.
#[derive(Debug, Default)]
pub struct Run {
    pub tally: Tally,
    pub host: Host,
    /// Each set-up's time.
    pub setup_s: Vec<f64>,
    pub throughput_ops_s: f64,
    /// One latency per measured operation.
    pub latencies_us: Vec<f64>,
    pub latency_p99_us: f64,
    /// Layer metrics of a traced run; layers the workload does not
    /// exercise are left out and read 0.
    pub layers: Vec<(&'static str, f64)>,
    pub facts: Vec<(&'static str, Fact)>,
    /// Per-program samples, unscaled.
    pub rows: Rows,
    pub spans: Vec<Span>,
}

impl Run {
    /// Scale a time measured from `start_ns` to the nominal host.
    pub fn scaled(&self, start_ns: u64, raw: f64) -> f64 {
        raw * self.host.scale_at(start_ns)
    }
}

/// Run `setup` [`SETUPS`] times (once when traced), recording each time
/// in `run.setup_s`, and keep the last result.
pub fn set_up<T>(
    cfg: &Config,
    run: &mut Run,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let times = if cfg.trace { 1 } else { SETUPS };
    let mut last = None;
    run.host.sample();
    for _ in 0..times {
        let start_ns = now_ns();
        let start = Instant::now();
        let value = setup()?;
        let raw = start.elapsed().as_secs_f64();
        // The previous instance drops here, after the timer and before
        // the host sample.
        last = Some(value);
        run.host.sample();
        run.setup_s.push(run.scaled(start_ns, raw));
    }
    Ok(last.expect("at least one set-up"))
}

/// A stretch of the window and the operations completed in it.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    start_ns: u64,
    end_ns: u64,
    ops: usize,
}

impl Slice {
    /// Time `work`, which runs operations until the instant it is given,
    /// `len` from now, and returns how many it completed.
    pub fn timed(len: Duration, work: impl FnOnce(Instant) -> usize) -> Slice {
        let start_ns = now_ns();
        let ops = work(Instant::now() + len);
        Slice {
            start_ns,
            end_ns: now_ns(),
            ops,
        }
    }
}

/// Fill `window` with slices of about [`SLICE`]: sample the host, then
/// let `slice` prepare and time one slice of the length it is given. The
/// host is sampled once more at the end. The first error stops the run.
pub fn sliced(
    host: &mut Host,
    window: Duration,
    mut slice: impl FnMut(Duration) -> Result<Slice, String>,
) -> Result<Vec<Slice>, String> {
    let n = ((window.as_secs_f64() / SLICE.as_secs_f64()).round() as u32).max(1);
    let mut slices = Vec::with_capacity(n as usize);
    for _ in 0..n {
        host.sample();
        slices.push(slice(window / n)?);
    }
    host.sample();
    Ok(slices)
}

/// Throughput: the median over slices of operations per second, scaled
/// to the nominal host. A median shrugs off the odd slice in which the
/// host stalled.
pub fn slice_rate(host: &Host, slices: &[Slice]) -> f64 {
    let rates: Vec<f64> = slices
        .iter()
        .map(|s| {
            let seconds = (s.end_ns - s.start_ns) as f64 / 1e9;
            s.ops as f64 / seconds / host.scale_at(s.start_ns)
        })
        .collect();
    median(&rates)
}

/// Tail latency: the median over slices of each slice's 99th percentile.
/// `latencies_us` holds the slices' operations in order, as many for each
/// as it counted. A host stall slows a run of requests in one slice,
/// which a pooled 99th percentile takes in whole and a median of slices
/// leaves out. On `serve_churn`, whose 99th percentile sits on a knee of
/// the latency curve, this cut the spread over ten seeds from 7.6–9.6%
/// to 5.2–5.4% in two sets of runs.
pub fn slice_p99(slices: &[Slice], latencies_us: &[f64]) -> f64 {
    let mut rest = latencies_us;
    median_p99(slices.iter().map(|s| {
        let (mine, later) = rest.split_at(s.ops);
        rest = later;
        mine
    }))
}

/// Sample slots for `rate` operations per second over `window`. Reserving
/// them up front keeps peak RSS from jumping with the operation count as
/// a growing vector doubles.
pub fn reserve(window: Duration, rate: f64) -> usize {
    (window.as_secs_f64() * rate) as usize
}

/// An engine of `workers` threads with no deadline, no persistent store
/// and no flight recorder, so the engine installs no trace sink.
pub fn engine_config(workers: usize, cache_capacity: usize) -> EngineConfig {
    EngineConfig {
        workers,
        queue_capacity: 64,
        cache_capacity,
        default_deadline: None,
        store_path: None,
        flight_recorder_capacity: 0,
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_fill_the_window_and_rate_is_their_median() {
        let mut host = Host::default();
        let mut calls = 0;
        let slices = sliced(&mut host, Duration::from_millis(30), |len| {
            calls += 1;
            Ok(Slice::timed(len, |until| {
                while Instant::now() < until {}
                10
            }))
        })
        .expect("no slice fails");
        assert_eq!(calls, 1);
        assert_eq!(slices.len(), 1);
        assert!(slices[0].end_ns - slices[0].start_ns >= 30_000_000);
        let fixed = [
            (0, 1_000_000_000, 10),
            (0, 2_000_000_000, 10),
            (0, 500_000_000, 10),
        ]
        .map(|(start_ns, end_ns, ops)| Slice {
            start_ns,
            end_ns,
            ops,
        });
        // Rates 10, 5 and 20 per second on an unsampled (nominal) host.
        assert_eq!(slice_rate(&Host::default(), &fixed), 10.0);
    }

    #[test]
    fn tail_is_the_median_of_the_slices_tails() {
        let slice = |ops| Slice {
            start_ns: 0,
            end_ns: 1,
            ops,
        };
        let slices = [slice(3), slice(0), slice(2), slice(4)];
        // Slice tails (nearest-rank p99 = the largest): 30, none, 500, 7.
        let latencies = [10.0, 30.0, 20.0, 500.0, 1.0, 4.0, 7.0, 2.0, 3.0];
        assert_eq!(slice_p99(&slices, &latencies), 30.0);
        assert_eq!(crate::stats::percentile(&latencies, 99.0), 500.0);
    }
}
