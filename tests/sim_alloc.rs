//! The simulator's allocation discipline: one `Executable::run` of every
//! catalog program allocates a number of times bounded by the program's
//! buffer and kernel counts — never per block, warp or memory access.
//!
//! A counting global allocator counts the allocations the running thread
//! makes while a run is in flight. This binary holds a single test, so no
//! other test allocates at the same time.

use multidim::Compiler;
use multidim_workloads::catalog::catalog;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the current thread makes inside `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn a_run_allocates_per_buffer_and_kernel_not_per_block_or_access() {
    let compiler = Compiler::new();
    let (mut total_allocs, mut requests) = (0, 0);
    for e in catalog() {
        let exe = compiler
            .compile(&e.program, &e.bindings)
            .unwrap_or_else(|err| panic!("{}: {err}", e.name()));
        let (run, allocs) = allocations(|| exe.run(&e.inputs));
        let run = run.unwrap_or_else(|err| panic!("{}: {err}", e.name()));
        let buffers = exe.kernels.buffers.len() as u64;
        let kernels = (exe.kernels.kernels.len() + exe.kernels.children.len()) as u64;
        // The flat form, the per-run block state and the result records
        // are a fixed handful; each buffer is one allocation and each
        // kernel a few (its result name and its share of the records).
        let bound = 16 + 2 * buffers + 4 * kernels;
        assert!(
            allocs <= bound,
            "{}: {allocs} allocations for {buffers} buffers and {kernels} kernels (bound {bound})",
            e.name()
        );
        total_allocs += allocs;
        requests += run
            .kernels
            .iter()
            .map(|k| k.cost.mem_requests + k.cost.smem_accesses)
            .sum::<u64>();
    }
    // The tree walker made two allocations per shared-memory access; the
    // catalog's warp memory requests now outnumber all its runs'
    // allocations more than fiftyfold.
    assert!(
        requests > 50 * total_allocs,
        "{requests} warp memory requests against {total_allocs} allocations"
    );
}
