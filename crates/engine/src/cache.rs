//! Content-addressed compilation cache with single-flight deduplication.
//!
//! The cache maps a [`Fingerprint`] (see [`multidim::fingerprint`]) to a
//! shared [`Arc<Executable>`]. Three properties matter for a service:
//!
//! * **sharing** — N requests for the same program get the *same* arc, so
//!   a hot program is compiled once and held once;
//! * **single-flight** — N *concurrent* requests for a not-yet-cached
//!   program trigger exactly one compile; the others block on a condvar
//!   until the leader publishes (or fails, in which case one waiter takes
//!   over);
//! * **bounded memory** — least-recently-used entries are evicted once
//!   the capacity is exceeded.
//!
//! Hit/miss/eviction/coalesced-wait counters are kept as atomics; the
//! engine syncs them into its metrics registry at scrape time.

use multidim::{CompileError, Executable, Fingerprint};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Monotonic counters describing cache behavior since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a ready entry.
    pub hits: u64,
    /// Lookups that started a compile (exactly one per distinct in-flight
    /// fingerprint — the definition of single-flight).
    pub misses: u64,
    /// Ready entries evicted by the LRU policy.
    pub evictions: u64,
    /// Lookups that found a compile already in flight and waited for its
    /// result instead of compiling again. Each one is a deduplicated
    /// compile.
    pub coalesced: u64,
    /// Compiles that failed (failures are not cached; the next request
    /// retries).
    pub failures: u64,
}

#[derive(Default)]
struct AtomicStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    coalesced: AtomicU64,
    failures: AtomicU64,
}

enum Slot {
    Ready {
        exe: Arc<Executable>,
        last_used: u64,
    },
    InFlight,
}

struct Inner {
    map: HashMap<Fingerprint, Slot>,
    tick: u64,
}

/// The cache. All methods take `&self`; share it behind an [`Arc`].
pub struct CompileCache {
    inner: Mutex<Inner>,
    published: Condvar,
    stats: AtomicStats,
    capacity: usize,
}

/// Removes the in-flight marker if the leader's compile panics, so waiters
/// wake up and retake the slot instead of hanging forever.
struct InFlightGuard<'a> {
    cache: &'a CompileCache,
    fp: Fingerprint,
    armed: bool,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut inner = self.cache.inner.lock().unwrap();
            if matches!(inner.map.get(&self.fp), Some(Slot::InFlight)) {
                inner.map.remove(&self.fp);
            }
            drop(inner);
            self.cache.published.notify_all();
        }
    }
}

impl CompileCache {
    /// A cache holding at most `capacity` ready executables (minimum 1).
    pub fn new(capacity: usize) -> CompileCache {
        CompileCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            published: Condvar::new(),
            stats: AtomicStats::default(),
            capacity: capacity.max(1),
        }
    }

    /// Publish (or replace) a ready executable under `fp` — used by the
    /// auto-tuner to swap an analytically-mapped entry for the tuned one.
    /// Counts as neither hit nor miss. If the slot is currently in flight
    /// the waiting requests pick up this executable instead.
    pub fn insert(&self, fp: Fingerprint, exe: Arc<Executable>) {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            fp,
            Slot::Ready {
                exe,
                last_used: tick,
            },
        );
        self.evict_over_capacity(&mut inner);
        drop(inner);
        self.published.notify_all();
    }

    /// Number of ready entries.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner
            .map
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count()
    }

    /// `true` when no ready entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            coalesced: self.stats.coalesced.load(Ordering::Relaxed),
            failures: self.stats.failures.load(Ordering::Relaxed),
        }
    }

    /// Look up `fp`, or compile it with `compile` — exactly once across
    /// all concurrent callers. On a hit the stored arc is cloned (callers
    /// can verify pointer equality); on a miss the caller that won the
    /// race compiles while the rest wait. A failed compile is returned to
    /// the leader and *one* waiter is promoted to retry; failures are
    /// never cached.
    pub fn get_or_compile(
        &self,
        fp: Fingerprint,
        compile: impl FnOnce() -> Result<Executable, CompileError>,
    ) -> Result<Arc<Executable>, CompileError> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            inner.tick += 1;
            let tick = inner.tick;
            match inner.map.get_mut(&fp) {
                Some(Slot::Ready { exe, last_used }) => {
                    *last_used = tick;
                    self.stats.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(exe.clone());
                }
                Some(Slot::InFlight) => {
                    self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                    // Wait until the leader publishes, fails, or panics;
                    // then re-inspect the slot.
                    inner = self.published.wait(inner).unwrap();
                }
                None => {
                    inner.map.insert(fp, Slot::InFlight);
                    self.stats.misses.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
        drop(inner);

        let mut guard = InFlightGuard {
            cache: self,
            fp,
            armed: true,
        };
        let result = compile();
        guard.armed = false;
        drop(guard);

        let mut inner = self.inner.lock().unwrap();
        let out = match result {
            Ok(exe) => {
                let exe = Arc::new(exe);
                inner.tick += 1;
                let tick = inner.tick;
                inner.map.insert(
                    fp,
                    Slot::Ready {
                        exe: exe.clone(),
                        last_used: tick,
                    },
                );
                self.evict_over_capacity(&mut inner);
                Ok(exe)
            }
            Err(e) => {
                inner.map.remove(&fp);
                self.stats.failures.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        };
        drop(inner);
        self.published.notify_all();
        out
    }

    /// Peek without compiling (hit counters unaffected).
    pub fn peek(&self, fp: Fingerprint) -> Option<Arc<Executable>> {
        let inner = self.inner.lock().unwrap();
        match inner.map.get(&fp) {
            Some(Slot::Ready { exe, .. }) => Some(exe.clone()),
            _ => None,
        }
    }

    fn evict_over_capacity(&self, inner: &mut Inner) {
        loop {
            let ready = inner
                .map
                .iter()
                .filter_map(|(fp, s)| match s {
                    Slot::Ready { last_used, .. } => Some((*fp, *last_used)),
                    Slot::InFlight => None,
                })
                .collect::<Vec<_>>();
            if ready.len() <= self.capacity {
                return;
            }
            if let Some((victim, _)) = ready.iter().min_by_key(|(_, used)| *used) {
                inner.map.remove(victim);
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multidim::prelude::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    fn program(n: i64, name: &str) -> (Program, Bindings) {
        let mut b = ProgramBuilder::new(name);
        let s = b.sym("N");
        let a = b.input("a", ScalarKind::F32, &[Size::sym(s)]);
        let root = b.map(Size::sym(s), |b, i| b.read(a, &[i.into()]));
        let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
        let mut bind = Bindings::new();
        bind.bind(s, n);
        (p, bind)
    }

    fn compile(name: &str, n: i64) -> Executable {
        let (p, b) = program(n, name);
        Compiler::new().compile(&p, &b).unwrap()
    }

    fn fp(tag: u64) -> Fingerprint {
        Fingerprint([tag, !tag])
    }

    #[test]
    fn hit_returns_the_same_arc() {
        let cache = CompileCache::new(4);
        let a = cache
            .get_or_compile(fp(1), || Ok(compile("p", 32)))
            .unwrap();
        let b = cache
            .get_or_compile(fp(1), || panic!("must not recompile"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn lru_evicts_the_coldest() {
        let cache = CompileCache::new(2);
        cache
            .get_or_compile(fp(1), || Ok(compile("a", 32)))
            .unwrap();
        cache
            .get_or_compile(fp(2), || Ok(compile("b", 32)))
            .unwrap();
        // Touch 1 so 2 is the LRU victim.
        cache.get_or_compile(fp(1), || unreachable!()).unwrap();
        cache
            .get_or_compile(fp(3), || Ok(compile("c", 32)))
            .unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.peek(fp(1)).is_some());
        assert!(cache.peek(fp(2)).is_none(), "2 was least recently used");
        assert!(cache.peek(fp(3)).is_some());
    }

    #[test]
    fn concurrent_same_key_compiles_once() {
        let cache = Arc::new(CompileCache::new(8));
        let compiles = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (cache, compiles, barrier) = (cache.clone(), compiles.clone(), barrier.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    cache
                        .get_or_compile(fp(7), || {
                            compiles.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so waiters really coalesce.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            Ok(compile("p", 64))
                        })
                        .unwrap()
                })
            })
            .collect();
        let arcs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(compiles.load(Ordering::SeqCst), 1, "single-flight");
        assert!(arcs.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        // Every non-leader ultimately reads the published entry as a hit;
        // those that arrived during the flight also counted a coalesced
        // wait (with the 50 ms window, at least one did).
        assert_eq!(s.hits, 7);
        assert!(s.coalesced >= 1);
    }

    #[test]
    fn failed_compile_is_not_cached_and_waiters_retry() {
        let cache = CompileCache::new(4);
        let err = cache.get_or_compile(fp(9), || Err(multidim::CompileError("nope".into())));
        assert!(err.is_err());
        assert_eq!(cache.stats().failures, 1);
        // The slot is free again: the next caller compiles successfully.
        cache
            .get_or_compile(fp(9), || Ok(compile("p", 32)))
            .unwrap();
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn leader_panic_frees_the_slot() {
        let cache = Arc::new(CompileCache::new(4));
        let c2 = cache.clone();
        let leader = std::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c2.get_or_compile(fp(5), || panic!("compile exploded"))
            }));
        });
        leader.join().unwrap();
        // Slot must not be stuck in-flight.
        cache
            .get_or_compile(fp(5), || Ok(compile("p", 32)))
            .unwrap();
        assert!(cache.peek(fp(5)).is_some());
    }
}
