//! A bounded worker pool on std threads and channels.
//!
//! Design constraints, in order:
//!
//! * **backpressure, not blocking** — [`WorkerPool::try_submit`] refuses
//!   ([`Refused::Full`]) when the queue is full; it never parks the
//!   caller;
//! * **panic isolation** — a panicking job is caught with
//!   [`std::panic::catch_unwind`]; the worker thread survives and keeps
//!   serving;
//! * **graceful drain** — dropping (or [`WorkerPool::shutdown`]) closes
//!   the submission side; workers finish everything already queued, then
//!   exit, and the pool joins them.
//!
//! Jobs are plain `FnOnce() + Send` closures; the engine submits one per
//! request. A job that serves a request makes the request's trace
//! context current, so the spans it opens land in that request's trace
//! when a `multidim_trace::TraceStore` is installed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// A job for the pool.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// The pool. Submission is `&self`; share behind an [`Arc`] or keep it
/// inside the engine.
pub struct WorkerPool {
    tx: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    depth: Arc<AtomicUsize>,
    panics: Arc<AtomicU64>,
}

/// Why [`WorkerPool::try_submit`] refused a job; the job is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// The queue is full (backpressure).
    Full,
    /// The pool is shutting down.
    Closed,
}

impl WorkerPool {
    /// Spawn `workers` threads behind a queue of `queue_capacity` slots
    /// (both forced to at least 1).
    pub fn new(workers: usize, queue_capacity: usize) -> WorkerPool {
        let workers = workers.max(1);
        let (tx, rx) = mpsc::sync_channel::<Job>(queue_capacity.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let depth = Arc::new(AtomicUsize::new(0));
        let panics = Arc::new(AtomicU64::new(0));
        let handles = (0..workers)
            .map(|i| {
                let rx = rx.clone();
                let depth = depth.clone();
                let panics = panics.clone();
                std::thread::Builder::new()
                    .name(format!("multidim-engine-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &depth, &panics))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers: handles,
            depth,
            panics,
        }
    }

    /// Enqueue a job, or refuse it if the queue is full or the pool is
    /// shutting down.
    pub fn try_submit(&self, job: Job) -> Result<(), Refused> {
        let Some(tx) = &self.tx else {
            return Err(Refused::Closed);
        };
        // Count before sending so a worker that dequeues immediately never
        // observes an underflowed depth.
        self.depth.fetch_add(1, Ordering::SeqCst);
        tx.try_send(job).map_err(|e| {
            self.depth.fetch_sub(1, Ordering::SeqCst);
            match e {
                TrySendError::Full(_) => Refused::Full,
                TrySendError::Disconnected(_) => Refused::Closed,
            }
        })
    }

    /// Jobs currently queued (excluding ones being executed).
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs that panicked (and were contained).
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Stop accepting work, let the workers drain the queue, and join
    /// them. Also performed on drop.
    pub fn shutdown(&mut self) {
        self.tx = None; // close the channel: workers exit once drained
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>, depth: &AtomicUsize, panics: &AtomicU64) {
    loop {
        // Hold the lock only while receiving, never while running the job.
        let job = match rx.lock().unwrap().recv() {
            Ok(job) => job,
            Err(_) => return, // all senders gone and queue drained
        };
        depth.fetch_sub(1, Ordering::SeqCst);
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    #[test]
    fn runs_jobs_and_returns_results_via_channels() {
        let pool = WorkerPool::new(4, 16);
        let (tx, rx) = channel();
        for i in 0..10u32 {
            let tx = tx.clone();
            pool.try_submit(Box::new(move || tx.send(i * i).unwrap()))
                .unwrap();
        }
        drop(tx);
        let mut got: Vec<u32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn full_queue_rejects_with_the_job_back() {
        let pool = WorkerPool::new(1, 1);
        let (block_tx, block_rx) = channel::<()>();
        // Occupy the single worker...
        pool.try_submit(Box::new(move || {
            let _ = block_rx.recv();
        }))
        .unwrap();
        // ...then fill the single queue slot. One of the next two submits
        // must be refused (the worker may have already dequeued the
        // blocker, leaving one free slot).
        let results = [
            pool.try_submit(Box::new(|| {})),
            pool.try_submit(Box::new(|| {})),
        ];
        assert!(
            results.contains(&Err(Refused::Full)),
            "bounded queue must reject when full: {results:?}"
        );
        block_tx.send(()).unwrap();
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1, 8);
        pool.try_submit(Box::new(|| panic!("job exploded")))
            .unwrap();
        let (tx, rx) = channel();
        pool.try_submit(Box::new(move || tx.send(41).unwrap()))
            .unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(41));
        assert_eq!(pool.panics(), 1);
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let (tx, rx) = channel();
        {
            let pool = WorkerPool::new(2, 64);
            for i in 0..32 {
                let tx = tx.clone();
                pool.try_submit(Box::new(move || tx.send(i).unwrap()))
                    .unwrap();
            }
            // Dropping the pool here must wait for all 32 jobs.
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 32);
    }
}
