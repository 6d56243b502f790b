//! Host speed, so that timings taken on a shared host can be compared.
//!
//! Other tenants of a shared host make it run at a speed that drifts by
//! 10–40% over seconds to minutes, and the drift slows all code alike:
//! on the 2-vCPU host this benchmark was written on, the per-second rate
//! of a fixed kernel tracked the per-second compile rate with correlation
//! 0.98, and their ratio spread 1.3% where each alone spread 10%. So the
//! benchmark times a fixed kernel of its own between slices of work, while
//! the system under test is idle, and scales every timing to a nominal
//! host on which the kernel takes [`NOMINAL_REFERENCE_US`].

use crate::spans::now_ns;
use crate::stats::median;
use std::collections::HashMap;
use std::time::Instant;

/// The reference kernel's time on the nominal host, µs.
pub const NOMINAL_REFERENCE_US: f64 = 1000.0;

/// Kernel runs per sample; the sample is their median.
const RUNS: usize = 3;

/// One run of the reference kernel: integer mixing, a sort, hashing and
/// small allocations, the instruction mix of the compiler and simulator.
fn kernel() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut v: Vec<u64> = (0..20_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for (i, k) in v.iter().enumerate() {
        *counts.entry(k % 4096).or_default() += i as u64;
    }
    let names: Vec<String> = (0..2_000).map(|i| format!("item{i}")).collect();
    std::hint::black_box((counts.len(), names.len()));
    start.elapsed().as_secs_f64() * 1e6
}

/// Reference-kernel samples over the run, in time order.
#[derive(Debug, Default)]
pub struct Host {
    /// Threads that run the kernel at once. The serving workloads use
    /// their worker count, since their throughput follows both vCPUs and
    /// each drifts on its own; the rest use one (0 or 1).
    threads: usize,
    /// `(taken at, ns since the span epoch; kernel time, µs)`.
    samples: Vec<(u64, f64)>,
}

impl Host {
    pub fn new(threads: usize) -> Host {
        Host {
            threads,
            samples: Vec::new(),
        }
    }

    /// Time the kernel now, on this thread alone or on `threads` threads
    /// at once (their mean). Call only while the system under test is
    /// idle: between operations, with every client stopped.
    pub fn sample(&mut self) {
        let median_of_runs = || median(&(0..RUNS).map(|_| kernel()).collect::<Vec<_>>());
        let us = if self.threads <= 1 {
            median_of_runs()
        } else {
            let per_thread: Vec<f64> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.threads)
                    .map(|_| scope.spawn(median_of_runs))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("reference kernel panicked"))
                    .collect()
            });
            per_thread.iter().sum::<f64>() / per_thread.len() as f64
        };
        self.samples.push((now_ns(), us));
    }

    /// The factor that scales a time measured at `t_ns` to the nominal
    /// host: nominal over the mean of the samples either side of `t_ns`.
    pub fn scale_at(&self, t_ns: u64) -> f64 {
        let i = self.samples.partition_point(|&(at, _)| at <= t_ns);
        let before = i.checked_sub(1).and_then(|j| self.samples.get(j));
        let us = match (before, self.samples.get(i)) {
            (Some(a), Some(b)) => (a.1 + b.1) / 2.0,
            (Some(a), None) | (None, Some(a)) => a.1,
            (None, None) => return 1.0,
        };
        NOMINAL_REFERENCE_US / us
    }

    /// Median kernel time over the run, µs.
    pub fn reference_us(&self) -> f64 {
        median(&self.samples.iter().map(|&(_, us)| us).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_uses_the_samples_either_side() {
        let host = Host {
            threads: 1,
            samples: vec![(100, 1000.0), (200, 2000.0), (300, 500.0)],
        };
        assert_eq!(host.scale_at(50), 1.0); // before the first: first alone
        assert_eq!(host.scale_at(150), 1000.0 / 1500.0);
        assert_eq!(host.scale_at(250), 1000.0 / 1250.0);
        assert_eq!(host.scale_at(400), 2.0); // after the last: last alone
        assert_eq!(Host::default().scale_at(1), 1.0);
        assert_eq!(host.reference_us(), 1000.0);
    }

    #[test]
    fn sampling_records_a_positive_time() {
        for threads in [1, 2] {
            let mut host = Host::new(threads);
            host.sample();
            assert!(host.reference_us() > 0.0);
        }
    }
}
