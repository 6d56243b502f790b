//! # multidim-engine — a concurrent compile/run service
//!
//! The rest of the workspace is a single-threaded compiler pipeline:
//! parse → fuse → map (the paper's locality-aware search) → lower →
//! simulate. This crate wraps that pipeline in a service layer so many
//! programs can be compiled and executed concurrently without redoing
//! work:
//!
//! * **content-addressed compilation cache** ([`cache::CompileCache`]) —
//!   requests are keyed by a stable [`Fingerprint`] of the program
//!   structure, the shape of its size bindings, the [`GpuSpec`], and the
//!   compiler configuration. Identical requests share one
//!   `Arc<Executable>`; N concurrent requests for the same key trigger
//!   exactly one compilation (single-flight) while the rest wait on a
//!   condvar. Bounded LRU eviction; hit/miss/evict/coalesce counters
//!   exported through the engine's metrics registry.
//! * **bounded worker pool** ([`pool::WorkerPool`]) — std threads and a
//!   `sync_channel`, serving requests. A full queue *rejects*
//!   ([`EngineError::Rejected`]) instead of blocking, requests carry
//!   optional deadlines, panics are contained per-request with
//!   `catch_unwind`, and drop/shutdown drains the queue before joining
//!   the workers. `autotune` takes no queue slot: it measures candidates
//!   with `multidim_mapping::tune_parallel` on as many threads as the
//!   pool has workers, the caller's among them.
//! * **persistent tuning store** ([`store::TuningStore`]) — versioned
//!   JSON on disk keyed by the same fingerprints. `autotune` results
//!   survive restarts; the engine transparently prefers a stored
//!   empirically-best mapping over the analytic one and records the
//!   analytic-vs-tuned delta. Corrupt or version-mismatched files are
//!   quarantined, never fatal.
//!
//! ## Quick start
//!
//! ```
//! use multidim_engine::{Engine, EngineConfig, Request};
//! use multidim::Compiler;
//!
//! let engine = Engine::new(Compiler::new(), EngineConfig::default());
//! let (program, bindings, inputs) = multidim_engine::doctest_workload();
//! let ticket = engine.submit(Request::new(program, bindings, inputs)).unwrap();
//! let response = ticket.wait().unwrap();
//! assert!(!response.cache_hit); // first request compiles...
//! let stats = engine.cache_stats();
//! assert_eq!(stats.misses, 1); // ...and populates the cache
//! ```
//!
//! The capstone demo is `examples/serve.rs`, which replays the whole
//! 27-entry workload catalog through the engine and reports throughput,
//! cache hit rate, queue depth, and latency percentiles.

#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod error;
pub mod pool;
pub mod store;

pub use cache::{CacheStats, CompileCache};
pub use engine::{trace_outcome, Engine, EngineConfig, EngineStats, Request, Response, Ticket};
pub use error::EngineError;
pub use pool::{Job, Refused, WorkerPool};
pub use store::{LoadOutcome, TuneRecord, TuningStore, STORE_VERSION};

use multidim::{Executable, Fingerprint};
use multidim_device::GpuSpec;

// The whole service layer rests on the pipeline types being shareable
// across worker threads; fail compilation loudly if that ever regresses.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Executable>();
    assert_send_sync::<multidim::Compiler>();
    assert_send_sync::<GpuSpec>();
    assert_send_sync::<Fingerprint>();
    assert_send_sync::<Engine>();
    assert_send_sync::<EngineError>();
};

/// A tiny map workload for doctests: a program, bindings, and inputs
/// ready to [`Engine::submit`].
pub fn doctest_workload() -> (
    multidim_ir::Program,
    multidim_ir::Bindings,
    std::collections::HashMap<multidim_ir::ArrayId, Vec<f64>>,
) {
    use multidim_ir::{Expr, ProgramBuilder, ScalarKind, Size};
    let mut b = ProgramBuilder::new("doctest-saxpy");
    let n = b.sym("N");
    let x = b.input("x", ScalarKind::F32, &[Size::sym(n)]);
    let root = b.map(Size::sym(n), |b, i| {
        b.read(x, &[i.into()]) * Expr::lit(2.0) + Expr::lit(1.0)
    });
    let program = b
        .finish_map(root, "y", ScalarKind::F32)
        .expect("doctest program validates");
    let mut bindings = multidim_ir::Bindings::new();
    bindings.bind(n, 64);
    let mut inputs = std::collections::HashMap::new();
    inputs.insert(x, (0..64).map(f64::from).collect());
    (program, bindings, inputs)
}
