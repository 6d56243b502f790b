//! # multidim-serve — the sharded multi-tenant serving tier
//!
//! The paper's serving story ("heavy traffic from millions of users")
//! outgrows a single in-process [`Engine`](multidim_engine::Engine)
//! pool. This crate is the fleet layer above it: a [`FrontDoor`] that
//! owns N engine shards and gives every request the same four-step
//! path —
//!
//! * **routing** — each program's fingerprint picks its *home* shard by
//!   deterministic rendezvous hashing ([`Router`]), so a program always
//!   returns to the shard whose hot executable cache holds it, across
//!   restarts and with minimal reshuffle when the fleet resizes; that
//!   shard's cache single-flights a cold compile, so N clients during a
//!   cold compile produce one compile fleet-wide;
//! * **admission control** — per-tenant token-bucket quotas
//!   ([`QuotaPolicy`], [`Admission`]) with a typed
//!   [`QuotaExceeded`](ServeError::QuotaExceeded) rejection and a
//!   shared spare bucket that shares leftover capacity fairly;
//! * **tiered caching** — shard-local hot executables over the shared
//!   persistent tuning store as a warm tier, with optional catalog
//!   [`preload`](FrontDoor::preload) at startup;
//! * **graceful degradation** — shed-by-deadline at admission,
//!   load-aware spill to the least-loaded shard on home-shard
//!   backpressure, and per-tenant shed accounting when everything
//!   rejects.
//!
//! Observability rides along: per-shard and per-tenant metric families
//! (including per-shard queue-depth/in-flight gauges), per-tenant
//! [`SloTracker`](multidim_obs::SloTracker)s, and front-door request
//! profiles, all on the crate's own
//! [`Registry`](multidim_obs::Registry).
//!
//! # Example
//!
//! ```
//! use multidim::Compiler;
//! use multidim_engine::{doctest_workload, Request};
//! use multidim_serve::{FrontDoor, FrontDoorConfig};
//!
//! let door = FrontDoor::new(Compiler::new(), FrontDoorConfig {
//!     shards: 2,
//!     ..FrontDoorConfig::default()
//! });
//! let (program, bindings, inputs) = doctest_workload();
//! let home = door.home_shard(door.fingerprint_of(&program, &bindings));
//!
//! let ticket = door
//!     .submit("tenant-a", Request::new(program, bindings, inputs))
//!     .expect("admitted");
//! assert_eq!(ticket.shard, home);
//! let served = ticket.wait().expect("served");
//! assert_eq!(served.shard, home);
//! assert_eq!(door.stats().completed, 1);
//! door.shutdown();
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod front_door;
pub mod quota;
pub mod router;

pub use error::ServeError;
pub use front_door::{
    FrontDoor, FrontDoorConfig, FrontDoorStats, PreloadReport, ServeResponse, Ticket,
};
pub use quota::{Admission, AdmitSource, QuotaPolicy, TenantQuota, TokenBucket};
pub use router::Router;

// The request/response vocabulary is the engine's; re-export it so
// front-door callers need only this crate.
pub use multidim_engine::{doctest_workload, Request, Response};

// The front door is shared across client threads; fail compilation
// loudly if that ever regresses.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FrontDoor>();
    assert_send_sync::<Ticket>();
    assert_send_sync::<ServeError>();
    assert_send_sync::<Admission>();
};
