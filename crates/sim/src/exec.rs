//! Warp-synchronous execution of kernel IR.
//!
//! Kernels execute with real data, warp by warp, with lane masks for
//! divergence — both sides of a divergent branch run (and cost), inactive
//! lanes are masked. Blocks containing `__syncthreads` execute in
//! *block-lockstep*: every statement runs across all warps before the next
//! statement starts, which is exactly the synchronization the generated
//! reduction trees rely on. Loop bounds and branch conditions enclosing a
//! `Sync` must be block-uniform (our code generator guarantees this).
//!
//! Each run first lowers the program to its flat form ([`crate::flat`]),
//! then executes that form. Blocks, warps, statements and lanes run in a
//! fixed order — blocks with x varying fastest and z slowest, warps in
//! index order, lanes lowest first — so racy programs (QPSCD's HogWild
//! epoch, BFS's frontier) give the same outputs on every run. A run
//! allocates per buffer and per kernel, never per block, warp or access:
//! block state is sized once for the largest kernel and reset per block,
//! child kernels are launched by reference, and device buffers move into
//! [`SimResult::arrays`].
//!
//! Every global access is coalesced through [`crate::coalesce`] and every
//! shared-memory access through [`crate::bank_conflicts`], accumulating the
//! [`KernelCost`] record that the timing model converts to seconds.

use crate::cost::{kernel_time, KernelCost, KernelTime, LaunchShape};
use crate::flat::{Body, Expr, Flat, FlatKernel, Kind, Op};
use crate::floor::{launch_floors, read_inputs, LaunchFloor};
use crate::memory::{bank_conflicts, coalesce};
use crate::report::BoundBy;
use multidim_codegen::{BufId, BufferInit, KernelProgram};
use multidim_device::{GpuSpec, WARP_SIZE};
use multidim_ir::{apply_bin, apply_un, ArrayId, BinOp, Bindings, ReduceOp, UnOp};
use multidim_trace as trace;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Simulation failure (out-of-bounds access, missing input, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError(pub String);

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulation error: {}", self.0)
    }
}

impl std::error::Error for SimError {}

/// A device buffer during simulation.
struct DeviceBuffer {
    /// Element width in bytes (for coalescing).
    elem_bytes: u64,
    data: Vec<f64>,
    /// Virtual base byte address (distinct buffers never share segments).
    base: u64,
}

/// One parent kernel launch as the simulator ran it: the record every
/// report, export and counter of a run is built from.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRun {
    /// Kernel name from the lowered [`KernelProgram`].
    pub name: String,
    /// Launch configuration.
    pub shape: LaunchShape,
    /// Accumulated cost counters, the launch's child grids folded in.
    pub cost: KernelCost,
    /// Roofline timing breakdown.
    pub time: KernelTime,
}

/// Result of simulating a [`KernelProgram`].
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Final contents of buffers that materialize program arrays.
    pub arrays: HashMap<ArrayId, Vec<f64>>,
    /// One record per parent kernel, in launch order (as `kp.kernels`).
    pub kernels: Vec<KernelRun>,
    /// Sum of kernel times in seconds.
    pub total_seconds: f64,
}

impl SimResult {
    /// The final contents of `array`.
    ///
    /// # Panics
    ///
    /// Panics if the array was not materialized by the program.
    pub fn array(&self, array: ArrayId) -> &[f64] {
        &self.arrays[&array]
    }

    /// Sum of the per-kernel cost counters across the whole run.
    pub fn total_cost(&self) -> KernelCost {
        total_cost(&self.kernels)
    }
}

/// Sum of the cost counters of `kernels`.
pub(crate) fn total_cost(kernels: &[KernelRun]) -> KernelCost {
    let mut sum = KernelCost::default();
    for k in kernels {
        sum.add(&k.cost);
    }
    sum
}

/// How a run against a ceiling ended ([`run_program_capped`]).
#[derive(Debug, Clone)]
pub enum Capped {
    /// The run finished; its time may still exceed the ceiling.
    Finished(SimResult),
    /// The run stopped once a lower bound on its time exceeded the
    /// ceiling, perhaps before its first block: the bound, which lies in
    /// (ceiling, simulated time].
    Cut(f64),
}

/// One element stored by two different threads within one kernel launch,
/// observed by the sanitizer.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteConflict {
    /// The launching kernel's name.
    pub kernel: String,
    /// The conflicting buffer's name.
    pub buffer: String,
    /// The program array the buffer materializes, if any.
    pub array: Option<ArrayId>,
    /// The element both threads stored.
    pub index: u64,
    /// Global thread id of the first observed writer.
    pub first_tid: u64,
    /// Global thread id of the second (conflicting) writer.
    pub second_tid: u64,
}

/// What the sanitizer observed across a whole program run.
///
/// Only plain (non-atomic) global stores are tracked: an atomic
/// read-modify-write cannot lose an update, so concurrent atomics to one
/// element are not write-write races. Each kernel launch is a fresh
/// epoch — kernel boundaries order all memory operations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SanitizerReport {
    /// Number of store operations recorded.
    pub tracked_stores: u64,
    /// Observed write-write conflicts (one entry per conflicting element
    /// per kernel, reporting the first colliding pair).
    pub conflicts: Vec<WriteConflict>,
}

impl SanitizerReport {
    /// Did any kernel exhibit a write-write conflict?
    pub fn has_conflicts(&self) -> bool {
        !self.conflicts.is_empty()
    }
}

/// Per-kernel first-writer map backing the sanitizer.
#[derive(Default)]
struct WriteTracker {
    /// (buffer, element) → global tid of the first store this launch.
    writers: HashMap<(BufId, u64), u64>,
    /// Elements already reported this launch (report each once).
    flagged: std::collections::HashSet<(BufId, u64)>,
    tracked: u64,
    /// (buffer, element, first tid, second tid).
    conflicts: Vec<(BufId, u64, u64, u64)>,
}

impl WriteTracker {
    /// Start a new launch epoch.
    fn clear(&mut self) {
        self.writers.clear();
        self.flagged.clear();
        self.tracked = 0;
        self.conflicts.clear();
    }

    fn record(&mut self, buf: BufId, index: u64, tid: u64) {
        self.tracked += 1;
        match self.writers.entry((buf, index)) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(tid);
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                let first = *e.get();
                if first != tid && self.flagged.insert((buf, index)) {
                    self.conflicts.push((buf, index, first, tid));
                }
            }
        }
    }
}

/// Simulate `kp` on `gpu` with launch-time `bindings` and host `inputs`.
///
/// # Errors
///
/// Returns [`SimError`] for missing inputs or faulting kernels.
pub fn run_program(
    kp: &KernelProgram,
    gpu: &GpuSpec,
    bindings: &Bindings,
    inputs: &HashMap<ArrayId, Vec<f64>>,
) -> Result<SimResult, SimError> {
    run_program_inner(kp, gpu, bindings, inputs, false, None).map(|(r, _)| finished(r))
}

/// Like [`run_program`], but stops once the run has provably lost against
/// `ceiling`, an `f64`'s bits.
///
/// The run's time is bounded from below, in launch order as its total is
/// summed, by the times of the kernels already finished; the running
/// kernel's counters so far plus the floors of its blocks left, priced
/// with [`kernel_time`] under its launch shape; and the floor time of each
/// kernel still to come. The floors start as
/// [`seconds_floor`](crate::seconds_floor)'s, one per block. The first
/// time the ceiling is finite and that bound does not exceed it, before
/// the first block or after any later one, they read `inputs` themselves,
/// not the run's copy: each block still to run of a kernel whose lane walk
/// reaches a loop bounded by an input no kernel writes gets its own floor,
/// as [`seconds_floor_with_inputs`](crate::seconds_floor_with_inputs)
/// walks it, and the blocks left are priced at the sum of theirs. Counters
/// only grow, every block charges at least its floor, and [`kernel_time`]
/// is monotone in every counter, so each term, and the sum, is at most the
/// simulated one. The bound is checked against the ceiling after every
/// block of a parent or child grid, and before the first block, once the
/// inputs are checked and before they are copied to the device: on the
/// static floor, then on the floor that reads the inputs, so a run that
/// either floor exceeds copies nothing. The
/// ceiling may fall while the run goes on; once the bound exceeds it, the
/// run stops and returns [`Capped::Cut`] with the bound. A run that would
/// fault after that point is cut, not failed. A run that finishes returns
/// [`run_program`]'s result bit for bit.
///
/// # Errors
///
/// Returns [`SimError`] for unbound sizes, for missing or mis-sized
/// inputs, and for kernels that fault before the cut.
pub fn run_program_capped(
    kp: &KernelProgram,
    gpu: &GpuSpec,
    bindings: &Bindings,
    inputs: &HashMap<ArrayId, Vec<f64>>,
    ceiling: &AtomicU64,
) -> Result<Capped, SimError> {
    run_program_inner(kp, gpu, bindings, inputs, false, Some(ceiling)).map(|(r, _)| r)
}

/// Like [`run_program`], but with the sanitizer on: every non-atomic
/// global store is recorded with the issuing thread, and elements stored
/// by two different threads within one launch are reported as conflicts.
///
/// # Errors
///
/// Returns [`SimError`] for missing inputs or faulting kernels.
pub fn run_program_sanitized(
    kp: &KernelProgram,
    gpu: &GpuSpec,
    bindings: &Bindings,
    inputs: &HashMap<ArrayId, Vec<f64>>,
) -> Result<(SimResult, SanitizerReport), SimError> {
    run_program_inner(kp, gpu, bindings, inputs, true, None)
        .map(|(r, san)| (finished(r), san.unwrap_or_default()))
}

/// The result of a run that had no ceiling, so could not be cut.
fn finished(run: Capped) -> SimResult {
    match run {
        Capped::Finished(r) => r,
        Capped::Cut(_) => unreachable!("a run without a ceiling is never cut"),
    }
}

fn run_program_inner(
    kp: &KernelProgram,
    gpu: &GpuSpec,
    bindings: &Bindings,
    inputs: &HashMap<ArrayId, Vec<f64>>,
    sanitize: bool,
    ceiling: Option<&AtomicU64>,
) -> Result<(Capped, Option<SanitizerReport>), SimError> {
    let flat = {
        let _span = trace::span("sim", "specialize");
        Flat::lower(kp, gpu, bindings)?
    };
    let mut span = trace::span("sim", "execute");
    let starts = starts(kp, &flat, inputs)?;
    let mut ceiling = ceiling.map(|bits| Ceiling::new(bits, &starts, &flat, gpu));
    if let Some(c) = ceiling.as_mut() {
        // A run whose floor exceeds the ceiling stops before its first
        // block, and before its buffers are copied.
        if let Some(bound) = c.exceeded(gpu, &flat, &KernelCost::default()) {
            return Ok((c.stop(span, bound), None));
        }
    }
    let mut m = Machine::new(gpu, &flat, device_buffers(kp, &flat, &starts), sanitize);
    m.ceiling = ceiling;

    let mut runs = Vec::with_capacity(kp.kernels.len());
    let mut total = 0.0f64;
    let mut san_report = sanitize.then(SanitizerReport::default);
    for (i, (kernel, fk)) in kp.kernels.iter().zip(&flat.kernels).enumerate() {
        // Fresh cost record and first-writer map per launch: kernel
        // boundaries synchronize.
        m.cost = KernelCost::default();
        if let Some(tracker) = m.san.as_mut() {
            tracker.clear();
        }
        m.pending.clear();
        m.pending_args.clear();
        let shape = LaunchShape {
            blocks: fk.grid.iter().product(),
            block_threads: kernel.block_threads(),
            smem_bytes: kernel.smem_bytes(),
        };
        if let Some(c) = m.ceiling.as_mut() {
            c.enter(i, total);
        }
        if let Some(bound) = m.launch(fk, fk.grid, 0, (0, 0))? {
            return Ok((m.stop(span, bound), san_report));
        }
        // Fire the device-side launches the parent queued: every child
        // grid belongs to this kernel's launch epoch — its work folds into
        // the parent's cost record (plus the per-launch counters the
        // timing model charges) and its stores share the parent's
        // write-tracker epoch under distinct thread ids.
        let issued = m.pending.len();
        for ordinal in 0..issued {
            let launch = m.pending[ordinal];
            let child = flat
                .children
                .get(launch.kernel as usize)
                .ok_or_else(|| SimError(format!("child kernel {} not declared", launch.kernel)))?;
            let cblocks = launch.extent.div_ceil(u64::from(child.threads));
            if cblocks > 1 << 22 {
                return Err(SimError(format!(
                    "child launch of {} blocks exceeds the sanity cap",
                    cblocks
                )));
            }
            // Disjoint thread ids per launch; far above any real parent tid.
            let tid_base = (ordinal as u64 + 1) << 40;
            if let Some(bound) = m.launch(child, [cblocks, 1, 1], tid_base, launch.args)? {
                return Ok((m.stop(span, bound), san_report));
            }
            if m.pending.len() > issued {
                return Err(SimError(format!(
                    "child kernel `{}` issued a nested device-side launch",
                    child.src.name
                )));
            }
            m.cost.child_blocks += cblocks;
        }
        let cost = m.cost;
        let time = kernel_time(gpu, &shape, &cost);
        total += time.total;
        runs.push(KernelRun {
            name: kernel.name.clone(),
            shape,
            cost,
            time,
        });
        if let (Some(report), Some(tr)) = (san_report.as_mut(), m.san.as_mut()) {
            report.tracked_stores += tr.tracked;
            for (buf, index, first, second) in tr.conflicts.drain(..) {
                let decl = &kp.buffers[buf.0 as usize];
                report.conflicts.push(WriteConflict {
                    kernel: kernel.name.clone(),
                    buffer: decl.name.clone(),
                    array: decl.array,
                    index,
                    first_tid: first,
                    second_tid: second,
                });
            }
        }
    }

    if let Some(span) = span.as_mut() {
        let kernels: Vec<String> = runs
            .iter()
            .map(|k| format!("{}: {}", k.name, BoundBy::classify(&k.time).label()))
            .collect();
        span.arg("kernels", kernels.join("; "));
    }

    // Device buffers move into the result: the run is over.
    let materialized = kp.buffers.iter().filter(|d| d.array.is_some()).count();
    let mut arrays = HashMap::with_capacity(materialized);
    for (decl, buf) in kp.buffers.iter().zip(m.buffers) {
        if let Some(a) = decl.array {
            arrays.insert(a, buf.data);
        }
    }
    Ok((
        Capped::Finished(SimResult {
            arrays,
            kernels: runs,
            total_seconds: total,
        }),
        san_report,
    ))
}

/// How a device buffer starts.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Start<'i> {
    /// Every element holds this value.
    Fill(f64),
    /// A copy of this host array.
    Host(&'i [f64]),
}

/// How each buffer of `kp` starts, given the host `inputs`.
///
/// # Errors
///
/// Returns [`SimError`] when `inputs` lacks an array a buffer must start
/// from, or holds one whose length is not the buffer's.
pub(crate) fn starts<'i>(
    kp: &KernelProgram,
    flat: &Flat<'_>,
    inputs: &'i HashMap<ArrayId, Vec<f64>>,
) -> Result<Vec<Start<'i>>, SimError> {
    let each = kp.buffers.iter().zip(&flat.buffers);
    each.map(|(decl, layout)| {
        let (host, what) = match decl.init {
            BufferInit::Zero => return Ok(Start::Fill(0.0)),
            BufferInit::Fill(v) => return Ok(Start::Fill(v)),
            BufferInit::FromArrayOrZero(a) => match inputs.get(&a) {
                Some(host) => (host, "seed for"),
                None => return Ok(Start::Fill(0.0)),
            },
            BufferInit::FromArray(a) => match inputs.get(&a) {
                Some(host) => (host, "input"),
                None => {
                    let e = format!("missing host input for buffer `{}`", decl.name);
                    return Err(SimError(e));
                }
            },
        };
        if host.len() != layout.len {
            return Err(SimError(format!(
                "{what} `{}` has {} elements, buffer needs {}",
                decl.name,
                host.len(),
                layout.len
            )));
        }
        Ok(Start::Host(host))
    })
    .collect()
}

/// The device buffers of `kp`, initialized as `starts` says.
fn device_buffers(kp: &KernelProgram, flat: &Flat<'_>, starts: &[Start<'_>]) -> Vec<DeviceBuffer> {
    let each = kp.buffers.iter().zip(&flat.buffers).zip(starts);
    each.map(|((decl, layout), start)| DeviceBuffer {
        elem_bytes: decl.elem_bytes,
        data: match *start {
            Start::Fill(v) => vec![v; layout.len],
            Start::Host(host) => host.to_vec(),
        },
        base: layout.base,
    })
    .collect()
}

pub(crate) const W: usize = WARP_SIZE as usize;
pub(crate) type Lanes = [f64; W];
pub(crate) type Mask = u32;

/// One device-side launch recorded during parent execution. Child grids
/// run after the parent kernel's body completes (fire-and-forget), in
/// launch order — deterministic, and matching the guarantee the lowering
/// relies on (parents never read child output within the same kernel).
#[derive(Debug, Clone, Copy)]
struct PendingLaunch {
    /// Index into `KernelProgram::children`.
    kernel: u32,
    /// Requested child threads (grid = `ceil(extent / block)`).
    extent: u64,
    /// Range of `Machine::pending_args` holding the evaluated launch
    /// arguments → child locals `0..n` (all threads).
    args: (usize, usize),
}

/// The launch and block a warp belongs to.
struct Block<'f, 'p> {
    kernel: &'f FlatKernel<'p>,
    grid: [u64; 3],
    bid: [u32; 3],
    /// Sanitizer id of the block's thread 0.
    first_tid: u64,
}

/// The ceiling a capped run stops at, and what its lower bound needs.
struct Ceiling<'c> {
    /// The ceiling, an `f64`'s bits, read before the first block and after
    /// every block.
    bits: &'c AtomicU64,
    /// How each buffer starts: the floors read the host arrays.
    starts: &'c [Start<'c>],
    /// Every parent kernel's floor, in launch order.
    floors: Vec<LaunchFloor>,
    /// The floors have read the inputs ([`read_inputs`]).
    read: bool,
    /// The running parent kernel.
    kernel: usize,
    /// Blocks of the running parent grid not yet run.
    left: u64,
    /// Summed times of the kernels already finished.
    done: f64,
    /// Blocks run so far, over every parent and child grid.
    blocks: u64,
}

impl<'c> Ceiling<'c> {
    /// A ceiling at `bits` for a run of `flat` whose buffers start as
    /// `starts` says, before its first kernel.
    fn new(bits: &'c AtomicU64, starts: &'c [Start<'c>], flat: &Flat<'_>, gpu: &GpuSpec) -> Self {
        let floors = launch_floors(flat, gpu);
        let left = floors.first().map_or(0, |f| f.kernel.shape.blocks);
        Ceiling {
            bits,
            starts,
            floors,
            read: false,
            kernel: 0,
            left,
            done: 0.0,
            blocks: 0,
        }
    }

    /// Start parent kernel `kernel`, after kernels that took `done`.
    fn enter(&mut self, kernel: usize, done: f64) {
        self.kernel = kernel;
        self.left = self.floors[kernel].kernel.shape.blocks;
        self.done = done;
    }

    /// The run's lower bound, when it exceeds the ceiling, given the
    /// running kernel's counters so far. The bound adds, in launch order
    /// as the run's total does, the finished kernels' times, the running
    /// kernel's time with the floors of its blocks left, and the floor
    /// time of each kernel still to come. Each term is at most the
    /// simulated one and rounding is monotone, so the bound is at most
    /// the simulated time.
    fn bound_exceeds(&self, gpu: &GpuSpec, cost: &KernelCost) -> Option<f64> {
        let mut bound = self.done;
        if let Some((running, later)) = self.floors[self.kernel..].split_first() {
            let cost = running.with_blocks(gpu, cost, self.left);
            bound += kernel_time(gpu, &running.kernel.shape, &cost).total;
            for f in later {
                bound += f.kernel.time.total;
            }
        }
        (bound > f64::from_bits(self.bits.load(Ordering::Relaxed))).then_some(bound)
    }

    /// [`Ceiling::bound_exceeds`]; and, the first time the ceiling is
    /// finite and the bound does not exceed it, the same once the floors
    /// of the running kernel's blocks left and of the later kernels have
    /// read the inputs ([`read_inputs`]).
    fn exceeded(&mut self, gpu: &GpuSpec, flat: &Flat<'_>, cost: &KernelCost) -> Option<f64> {
        let bound = self.bound_exceeds(gpu, cost);
        let finite = f64::from_bits(self.bits.load(Ordering::Relaxed)).is_finite();
        if bound.is_some() || self.read || !finite {
            return bound;
        }
        self.read = true;
        let running = (self.kernel, self.left);
        if !read_inputs(&mut self.floors, flat, running, gpu, self.starts) {
            return None;
        }
        self.bound_exceeds(gpu, cost)
    }

    /// End a run cut at `bound`: its `sim/execute` span records the bound
    /// and the blocks run.
    fn stop(&self, span: Option<trace::Span>, bound: f64) -> Capped {
        if let Some(mut span) = span {
            span.arg("cut_bound", bound);
            span.arg("blocks", self.blocks);
        }
        Capped::Cut(bound)
    }
}

/// Execution state of one run. Every buffer is sized for the largest
/// kernel up front and reused by every launch and block, so a run
/// allocates per buffer and per kernel, never per block, warp or access.
struct Machine<'f, 'p> {
    gpu: &'f GpuSpec,
    flat: &'f Flat<'p>,
    buffers: Vec<DeviceBuffer>,
    /// The running launch's cost record.
    cost: KernelCost,
    /// The ceiling of a capped run.
    ceiling: Option<Ceiling<'f>>,
    /// Sanitizer hook: records every non-atomic global store when set.
    san: Option<WriteTracker>,
    /// Child launches issued by the running parent grid.
    pending: Vec<PendingLaunch>,
    pending_args: Vec<f64>,
    /// Expression slots.
    regs: Vec<Lanes>,
    /// The running block's locals: `locals[(local * warps + warp) * W +
    /// lane]`, so every warp's lanes are one contiguous vector.
    locals: Vec<f64>,
    /// The running launch's thread indices, laid out like `locals` with
    /// one "local" per axis.
    tids: Vec<f64>,
    /// The running block's shared words, arrays end to end.
    smem: Vec<f64>,
}

impl<'f, 'p> Machine<'f, 'p> {
    fn new(
        gpu: &'f GpuSpec,
        flat: &'f Flat<'p>,
        buffers: Vec<DeviceBuffer>,
        sanitize: bool,
    ) -> Self {
        Machine {
            gpu,
            flat,
            buffers,
            cost: KernelCost::default(),
            ceiling: None,
            san: sanitize.then(WriteTracker::default),
            pending: Vec::new(),
            pending_args: Vec::new(),
            regs: vec![[0.0; W]; flat.slots],
            locals: Vec::with_capacity(flat.local_words),
            tids: Vec::with_capacity(3 * flat.lanes),
            smem: Vec::with_capacity(flat.smem_words),
        }
    }

    /// Run every block of `kernel` over `grid`. `args` is the range of
    /// `pending_args` a child grid receives as its leading locals. Returns
    /// the lower bound a capped run stopped at, if it was cut.
    fn launch(
        &mut self,
        kernel: &'f FlatKernel<'p>,
        grid: [u64; 3],
        tid_base: u64,
        args: (usize, usize),
    ) -> Result<Option<f64>, SimError> {
        let lanes = kernel.warps as usize * W;
        self.locals.clear();
        self.locals.resize(kernel.src.locals as usize * lanes, 0.0);
        self.smem.clear();
        self.smem.resize(kernel.smem_words, 0.0);
        // Thread indices of every lane, stepped rather than divided.
        self.tids.clear();
        self.tids.resize(3 * lanes, 0.0);
        let [dx, dy, _] = kernel.src.block.map(|d| d.max(1));
        let (mut x, mut y, mut z) = (0u32, 0u32, 0u32);
        for t in 0..lanes {
            self.tids[t] = f64::from(x);
            self.tids[lanes + t] = f64::from(y);
            self.tids[2 * lanes + t] = f64::from(z);
            x += 1;
            if x == dx {
                x = 0;
                y += 1;
                if y == dy {
                    y = 0;
                    z += 1;
                }
            }
        }
        for bz in 0..grid[2] {
            for by in 0..grid[1] {
                for bx in 0..grid[0] {
                    self.locals.fill(0.0);
                    self.smem.fill(0.0);
                    // Child grids: launch arguments arrive as the leading
                    // locals, identical for every thread of the block.
                    for a in 0..args.1 - args.0 {
                        let v = self.pending_args[args.0 + a];
                        self.locals[a * lanes..(a + 1) * lanes].fill(v);
                    }
                    let blk = Block {
                        kernel,
                        grid,
                        bid: [bx as u32, by as u32, bz as u32],
                        first_tid: tid_base
                            + ((bz * grid[1] + by) * grid[0] + bx) * u64::from(kernel.threads),
                    };
                    if kernel.lockstep {
                        self.exec_block(&blk, kernel.body)?;
                    } else {
                        for w in 0..kernel.warps {
                            let mask = full_mask(kernel.threads, w);
                            self.exec_warp(&blk, kernel.body, w, mask)?;
                        }
                    }
                    if let Some(c) = self.ceiling.as_mut() {
                        c.blocks += 1;
                        // Child grids run after the parent's last block,
                        // when it has none left.
                        c.left = c.left.saturating_sub(1);
                        if let Some(bound) = c.exceeded(self.gpu, self.flat, &self.cost) {
                            return Ok(Some(bound));
                        }
                    }
                }
            }
        }
        Ok(None)
    }

    /// End a capped run cut at `bound` (see [`Ceiling::stop`]).
    fn stop(&self, span: Option<trace::Span>, bound: f64) -> Capped {
        let c = self.ceiling.as_ref().expect("only a capped run is cut");
        c.stop(span, bound)
    }

    /// Block-lockstep execution (statements with internal `Sync`).
    fn exec_block(&mut self, b: &Block<'f, 'p>, body: Body) -> Result<(), SimError> {
        let flat = self.flat;
        let k = b.kernel;
        for i in body.0..body.1 {
            let s = &flat.stmts[i as usize];
            if !s.sync {
                for w in 0..k.warps {
                    let broken = self.exec_warp(b, (i, i + 1), w, full_mask(k.threads, w))?;
                    debug_assert_eq!(broken, 0, "break escaping to block level");
                }
                continue;
            }
            match s.kind {
                Kind::Sync => self.cost.syncs += u64::from(k.warps),
                Kind::For {
                    var,
                    start,
                    end,
                    step,
                    body,
                } => {
                    // Bounds must be block-uniform: evaluate on warp 0 lane 0.
                    let s0 = self.scalar(b, start)?;
                    let step0 = self.scalar(b, step)?;
                    if step0 <= 0.0 {
                        return Err(SimError("non-positive uniform loop step".into()));
                    }
                    let lanes = k.warps as usize * W;
                    let mut v = s0;
                    loop {
                        let e0 = self.scalar(b, end)?;
                        if v >= e0 {
                            break;
                        }
                        let base = var as usize * lanes;
                        self.locals[base..base + lanes].fill(v);
                        self.exec_block(b, body)?;
                        v += step0;
                    }
                }
                Kind::If { cond, then, els } => {
                    if self.scalar(b, cond)? != 0.0 {
                        self.exec_block(b, then)?;
                    } else {
                        self.exec_block(b, els)?;
                    }
                }
                _ => unreachable!("only Sync, For and If contain __syncthreads"),
            }
        }
        Ok(())
    }

    /// Per-warp masked execution; returns the set of lanes that executed
    /// `Break`.
    fn exec_warp(
        &mut self,
        b: &Block<'f, 'p>,
        body: Body,
        warp: u32,
        mut mask: Mask,
    ) -> Result<Mask, SimError> {
        let flat = self.flat;
        let mut broken: Mask = 0;
        for s in &flat.stmts[body.0 as usize..body.1 as usize] {
            if mask == 0 {
                break;
            }
            self.cost.warp_instr += s.charge;
            match s.kind {
                Kind::Assign { dst, value } => {
                    self.eval(b, value, warp, mask)?;
                    let at = local_at(b, dst, warp);
                    write_lanes(&mut self.locals[at..at + W], &self.regs[0], mask);
                }
                Kind::Store { buf, value, idx } => {
                    self.eval(b, value, warp, mask)?;
                    self.eval(b, idx, warp, mask)?;
                    let dev = &mut self.buffers[buf as usize];
                    let at = request(self.gpu, &mut self.cost, dev, &self.regs[1], mask)?;
                    let v = &self.regs[0];
                    for l in lanes(mask) {
                        dev.data[at[l]] = v[l];
                    }
                    if let Some(tracker) = self.san.as_mut() {
                        let base_tid = b.first_tid + u64::from(warp * WARP_SIZE);
                        for l in lanes(mask) {
                            tracker.record(BufId(buf), at[l] as u64, base_tid + l as u64);
                        }
                    }
                }
                Kind::Atomic {
                    buf,
                    op,
                    value,
                    idx,
                    capture,
                } => {
                    self.eval(b, value, warp, mask)?;
                    self.eval(b, idx, warp, mask)?;
                    let old = self.atomic(buf, mask, op)?;
                    if let Some(c) = capture {
                        let at = local_at(b, c, warp);
                        write_lanes(&mut self.locals[at..at + W], &old, mask);
                    }
                }
                Kind::SmemStore {
                    off,
                    len,
                    value,
                    idx,
                } => {
                    self.eval(b, value, warp, mask)?;
                    self.eval(b, idx, warp, mask)?;
                    let (v, ix) = (&self.regs[0], &self.regs[1]);
                    smem_cost(self.gpu, &mut self.cost, ix, mask);
                    let words = &mut self.smem[off as usize..(off + len) as usize];
                    for l in lanes(mask) {
                        words[to_index(ix[l], words.len(), "shared store")?] = v[l];
                    }
                }
                Kind::For {
                    var,
                    start,
                    end,
                    step,
                    body,
                } => {
                    self.eval(b, start, warp, mask)?;
                    let at = local_at(b, var, warp);
                    write_lanes(&mut self.locals[at..at + W], &self.regs[0], mask);
                    let mut active = mask;
                    loop {
                        // cond: var < end
                        self.eval(b, end, warp, active)?;
                        self.cost.warp_instr += end.nodes + 1;
                        let (vars, ends) = (&self.locals[at..at + W], &self.regs[0]);
                        let next = lanes_where(active, |l| vars[l] < ends[l]);
                        if next == 0 {
                            break;
                        }
                        let cont = next & !self.exec_warp(b, body, warp, next)?;
                        if cont == 0 {
                            break;
                        }
                        self.eval(b, step, warp, cont)?;
                        self.cost.warp_instr += step.nodes;
                        let (vars, steps) = (&mut self.locals[at..at + W], &self.regs[0]);
                        for l in lanes(cont) {
                            vars[l] += steps[l];
                        }
                        active = cont;
                    }
                }
                Kind::Break => {
                    broken |= mask;
                    mask = 0;
                }
                Kind::If { cond, then, els } => {
                    self.eval(b, cond, warp, mask)?;
                    let c = &self.regs[0];
                    let tmask = lanes_where(mask, |l| c[l] != 0.0);
                    let emask = mask & !tmask;
                    let mut br = 0;
                    if tmask != 0 {
                        br |= self.exec_warp(b, then, warp, tmask)?;
                    }
                    if emask != 0 {
                        br |= self.exec_warp(b, els, warp, emask)?;
                    }
                    broken |= br;
                    mask &= !br;
                }
                Kind::Sync => {
                    // A sync reached in per-warp mode is only legal when the
                    // kernel has no cross-warp dependence (single-warp
                    // blocks); treat as a cost event.
                    self.cost.syncs += 1;
                }
                Kind::Malloc { bytes } => {
                    self.eval(b, bytes, warp, mask)?;
                    self.cost.mallocs += u64::from(mask.count_ones());
                }
                Kind::Launch {
                    kernel,
                    extent,
                    args,
                    nargs,
                } => {
                    self.eval(b, extent, warp, mask)?;
                    self.eval(b, args, warp, mask)?;
                    for l in lanes(mask) {
                        let e = self.regs[0][l];
                        if e.fract() != 0.0 || e < 0.0 {
                            return Err(SimError(format!(
                                "child launch extent {e} is not a non-negative integer"
                            )));
                        }
                        // `extent ≤ 0` launches nothing (common guard-free
                        // form; real CDP would launch an empty grid).
                        if e < 1.0 {
                            continue;
                        }
                        self.cost.child_launches += 1;
                        let first = self.pending_args.len();
                        let values = self.regs[1..=nargs as usize].iter().map(|a| a[l]);
                        self.pending_args.extend(values);
                        self.pending.push(PendingLaunch {
                            kernel,
                            extent: e as u64,
                            args: (first, self.pending_args.len()),
                        });
                    }
                }
            }
        }
        Ok(broken)
    }

    /// Evaluate a (block-uniform) expression on warp 0 lane 0.
    fn scalar(&mut self, b: &Block<'f, 'p>, e: Expr) -> Result<f64, SimError> {
        self.eval(b, e, 0, 1)?;
        self.cost.warp_instr += e.nodes;
        Ok(self.regs[0][0])
    }

    /// Run `e`'s ops for the active lanes of `warp`. Every op, operands
    /// that cannot fault (immediates, locals, indices) included, writes
    /// only the lanes of `mask`; a lane outside it is neither read nor
    /// written.
    fn eval(&mut self, b: &Block<'f, 'p>, e: Expr, warp: u32, mask: Mask) -> Result<(), SimError> {
        let flat = self.flat;
        for op in &flat.ops[e.start as usize..e.end as usize] {
            match *op {
                Op::Imm { at, v } => fill(&mut self.regs[at as usize], v, mask),
                Op::Local { at, local } => {
                    let from = local_at(b, local, warp);
                    write_lanes(
                        &mut self.regs[at as usize],
                        &self.locals[from..from + W],
                        mask,
                    );
                }
                Op::Tid { at, axis } => {
                    let from = (axis as usize * b.kernel.warps as usize + warp as usize) * W;
                    write_lanes(
                        &mut self.regs[at as usize],
                        &self.tids[from..from + W],
                        mask,
                    );
                }
                Op::Bid { at, axis } => fill(
                    &mut self.regs[at as usize],
                    f64::from(b.bid[axis as usize]),
                    mask,
                ),
                Op::Gdim { at, axis } => fill(
                    &mut self.regs[at as usize],
                    b.grid[axis as usize] as f64,
                    mask,
                ),
                Op::Load { at, buf } => {
                    let dev = &self.buffers[buf as usize];
                    let ix = &mut self.regs[at as usize];
                    let at = request(self.gpu, &mut self.cost, dev, ix, mask)?;
                    for l in lanes(mask) {
                        ix[l] = dev.data[at[l]];
                    }
                }
                Op::SmemLoad { at, off, len } => {
                    let ix = &mut self.regs[at as usize];
                    smem_cost(self.gpu, &mut self.cost, ix, mask);
                    let words = &self.smem[off as usize..(off + len) as usize];
                    for l in lanes(mask) {
                        ix[l] = words[to_index(ix[l], words.len(), "shared load")?];
                    }
                }
                Op::Bin { at, op } => {
                    let (x, rest) = self.regs[at as usize..].split_first_mut().expect("slot");
                    bin(op, x, &rest[0], mask);
                }
                Op::Un { at, op } => un(op, &mut self.regs[at as usize], mask),
                Op::Select { at } => {
                    let (c, rest) = self.regs[at as usize..].split_first_mut().expect("slot");
                    let (t, f) = (&rest[0], &rest[1]);
                    for l in lanes(mask) {
                        c[l] = if c[l] != 0.0 { t[l] } else { f[l] };
                    }
                }
            }
        }
        Ok(())
    }

    /// Atomic read-modify-write of `buf` per lane (program order within
    /// the warp), values in slot 0 and indices in slot 1; returns the
    /// pre-update values.
    fn atomic(&mut self, buf: u32, mask: Mask, op: ReduceOp) -> Result<Lanes, SimError> {
        let (v, ix) = (&self.regs[0], &self.regs[1]);
        let b = &mut self.buffers[buf as usize];
        let mut old = [0.0; W];
        let mut addrs = [0u64; W];
        let mut n = 0usize;
        for l in lanes(mask) {
            let i = to_index(ix[l], b.data.len(), "atomic")?;
            addrs[n] = b.base + i as u64 * b.elem_bytes;
            n += 1;
            old[l] = b.data[i];
            b.data[i] = op.apply(b.data[i], v[l]);
        }
        let (tx, bytes) = coalesce(self.gpu, &addrs[..n]);
        self.cost.mem_requests += 1;
        self.cost.transactions += tx;
        self.cost.dram_bytes += bytes;
        // Contention: lanes beyond the first hitting the same address
        // serialize.
        let distinct = (0..n).filter(|&i| !addrs[..i].contains(&addrs[i])).count();
        self.cost.atomic_serial += (n - distinct) as u64;
        Ok(old)
    }
}

/// Where `local`'s lanes of `warp` start in `Machine::locals`.
fn local_at(b: &Block<'_, '_>, local: u32, warp: u32) -> usize {
    (local as usize * b.kernel.warps as usize + warp as usize) * W
}

/// Validate one warp request's lane indices into `buf` (each lane once),
/// charge its coalesced transactions, and return every active lane's
/// element index.
fn request(
    gpu: &GpuSpec,
    cost: &mut KernelCost,
    buf: &DeviceBuffer,
    ix: &Lanes,
    mask: Mask,
) -> Result<[usize; W], SimError> {
    let mut at = [0usize; W];
    let mut addrs = [0u64; W];
    let mut n = 0usize;
    for l in lanes(mask) {
        let i = to_index(ix[l], buf.data.len(), "global access")?;
        at[l] = i;
        addrs[n] = buf.base + i as u64 * buf.elem_bytes;
        n += 1;
    }
    let (tx, bytes) = coalesce(gpu, &addrs[..n]);
    cost.mem_requests += 1;
    cost.transactions += tx;
    cost.dram_bytes += bytes;
    Ok(at)
}

fn smem_cost(gpu: &GpuSpec, cost: &mut KernelCost, ix: &Lanes, mask: Mask) {
    let mut words = [0u64; W];
    let mut n = 0usize;
    for l in lanes(mask) {
        words[n] = ix[l] as u64;
        n += 1;
    }
    cost.smem_accesses += 1;
    cost.smem_conflicts += bank_conflicts(gpu.smem_banks, &words[..n]);
}

pub(crate) fn full_mask(threads: u32, warp: u32) -> Mask {
    let start = warp * WARP_SIZE;
    let count = threads.saturating_sub(start).min(WARP_SIZE);
    if count == 0 {
        0
    } else if count == 32 {
        u32::MAX
    } else {
        (1u32 << count) - 1
    }
}

/// The set lanes of `mask`, lowest first.
pub(crate) fn lanes(mask: Mask) -> impl Iterator<Item = usize> {
    let mut m = mask;
    std::iter::from_fn(move || {
        (m != 0).then(|| {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            l
        })
    })
}

/// `dst[l] = v` for the lanes of `mask`.
fn fill(dst: &mut Lanes, v: f64, mask: Mask) {
    for l in lanes(mask) {
        dst[l] = v;
    }
}

/// `dst[l] = src[l]` for the lanes of `mask`.
fn write_lanes(dst: &mut [f64], src: &[f64], mask: Mask) {
    for l in lanes(mask) {
        dst[l] = src[l];
    }
}

/// The lanes of `mask` for which `pred` holds.
pub(crate) fn lanes_where(mask: Mask, pred: impl Fn(usize) -> bool) -> Mask {
    lanes(mask).filter(|&l| pred(l)).fold(0, |m, l| m | 1 << l)
}

/// `x ← x op y` on the lanes of `mask`, dispatching on `op` once per warp.
fn bin(op: BinOp, x: &mut Lanes, y: &Lanes, mask: Mask) {
    bin_on(op, x, y, lanes(mask));
}

/// `x ← x op y` on each lane `on` yields, dispatching on `op` once. Over
/// every lane (`0..W`, as the floor's lane walk runs it) the loop
/// vectorizes.
pub(crate) fn bin_on(op: BinOp, x: &mut Lanes, y: &Lanes, on: impl Iterator<Item = usize>) {
    macro_rules! arms {
        ($($o:ident)*) => {
            match op {
                $(BinOp::$o => on.for_each(|l| x[l] = apply_bin(BinOp::$o, x[l], y[l])),)*
            }
        };
    }
    arms!(Add Sub Mul Div Rem Min Max Lt Le Gt Ge Eq Ne And Or);
}

/// `x ← op x` on the lanes of `mask`.
fn un(op: UnOp, x: &mut Lanes, mask: Mask) {
    un_on(op, x, lanes(mask));
}

/// `x ← op x` on each lane `on` yields, as [`bin_on`].
pub(crate) fn un_on(op: UnOp, x: &mut Lanes, on: impl Iterator<Item = usize>) {
    macro_rules! arms {
        ($($o:ident)*) => {
            match op {
                $(UnOp::$o => on.for_each(|l| x[l] = apply_un(UnOp::$o, x[l])),)*
            }
        };
    }
    arms!(Neg Not Sqrt Exp Log Abs Floor);
}

/// `v` as an element index into `len` elements. One cast round trip and
/// one unsigned compare accept it: NaN, infinities and fractions do not
/// survive the round trip, and a negative index, as a `u64`, is past any
/// `len`.
#[inline]
fn to_index(v: f64, len: usize, what: &str) -> Result<usize, SimError> {
    let i = v as i64;
    if i as f64 == v && (i as u64) < len as u64 {
        Ok(i as usize)
    } else {
        index_fault(v, len, what)
    }
}

/// The fault [`to_index`] reports for an index it did not accept.
#[cold]
fn index_fault(v: f64, len: usize, what: &str) -> Result<usize, SimError> {
    if !v.is_finite() || v.fract() != 0.0 {
        return Err(SimError(format!("{what}: non-integral index {v}")));
    }
    let i = v as i64;
    if i < 0 || i as usize >= len {
        return Err(SimError(format!(
            "{what}: index {i} out of bounds (len {len})"
        )));
    }
    Ok(i as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use multidim_codegen::{Axis, BufferDecl, KExpr, Kernel, SmemDecl, Stmt};
    use multidim_ir::Size;

    fn gpu() -> GpuSpec {
        GpuSpec::tesla_k20c()
    }

    fn one_buffer_prog(len: i64, kernel: Kernel) -> KernelProgram {
        KernelProgram {
            name: "t".into(),
            buffers: vec![
                BufferDecl {
                    name: "in".into(),
                    elem_bytes: 4,
                    len: Size::from(len),
                    init: BufferInit::FromArray(ArrayId(0)),
                    array: Some(ArrayId(0)),
                },
                BufferDecl {
                    name: "out".into(),
                    elem_bytes: 4,
                    len: Size::from(len),
                    init: BufferInit::Zero,
                    array: Some(ArrayId(1)),
                },
            ],
            kernels: vec![kernel],
            children: vec![],
            notes: vec![],
        }
    }

    /// out[i] = in[i] * 2 over one block of 32 threads.
    fn double_kernel(len: i64) -> Kernel {
        let idx = KExpr::global_tid(Axis::X);
        Kernel {
            name: "double".into(),
            grid: [Size::from((len + 31) / 32), Size::from(1), Size::from(1)],
            block: [32, 1, 1],
            smem: vec![],
            locals: 1,
            body: vec![
                Stmt::Assign { dst: 0, value: idx },
                Stmt::If {
                    cond: KExpr::lt(KExpr::Local(0), KExpr::imm(len)),
                    then: vec![Stmt::Store {
                        buf: BufId(1),
                        idx: KExpr::Local(0),
                        value: KExpr::mul(
                            KExpr::Load {
                                buf: BufId(0),
                                idx: Box::new(KExpr::Local(0)),
                            },
                            KExpr::Imm(2.0),
                        ),
                    }],
                    els: vec![],
                },
            ],
        }
    }

    #[test]
    fn elementwise_double() {
        let kp = one_buffer_prog(100, double_kernel(100));
        let inputs: HashMap<_, _> = [(ArrayId(0), (0..100).map(|x| x as f64).collect::<Vec<_>>())]
            .into_iter()
            .collect();
        let r = run_program(&kp, &gpu(), &Bindings::new(), &inputs).unwrap();
        let out = r.array(ArrayId(1));
        assert_eq!(out[7], 14.0);
        assert_eq!(out[99], 198.0);
        assert!(r.total_seconds > 0.0);
    }

    #[test]
    fn coalesced_traffic_counted() {
        let kp = one_buffer_prog(1024, double_kernel(1024));
        let inputs: HashMap<_, _> = [(ArrayId(0), vec![1.0; 1024])].into_iter().collect();
        let r = run_program(&kp, &gpu(), &Bindings::new(), &inputs).unwrap();
        let c = &r.kernels[0].cost;
        // 32 warps, each 1 load + 1 store request, each 1 transaction
        // (32 lanes x 4B = 128B).
        assert_eq!(c.mem_requests, 64);
        assert_eq!(c.transactions, 64);
        assert_eq!(c.dram_bytes, 64 * 128);
    }

    #[test]
    fn oob_faults() {
        let kp = one_buffer_prog(10, double_kernel(32)); // guard says 32, len 10
        let inputs: HashMap<_, _> = [(ArrayId(0), vec![0.0; 10])].into_iter().collect();
        let err = run_program(&kp, &gpu(), &Bindings::new(), &inputs).unwrap_err();
        assert!(err.0.contains("out of bounds"));
    }

    #[test]
    fn block_tree_reduce_with_sync() {
        // Sum 64 values with one 64-thread block using smem tree reduce.
        let n = 64i64;
        let idx = KExpr::global_tid(Axis::X);
        let mut body = vec![
            Stmt::Assign { dst: 0, value: idx },
            Stmt::SmemStore {
                arr: 0,
                idx: KExpr::Tid(Axis::X),
                value: KExpr::Load {
                    buf: BufId(0),
                    idx: Box::new(KExpr::Local(0)),
                },
            },
            Stmt::Sync,
        ];
        let mut s = 32;
        while s >= 1 {
            body.push(Stmt::If {
                cond: KExpr::lt(KExpr::Tid(Axis::X), KExpr::imm(s)),
                then: vec![Stmt::SmemStore {
                    arr: 0,
                    idx: KExpr::Tid(Axis::X),
                    value: KExpr::add(
                        KExpr::SmemLoad {
                            arr: 0,
                            idx: Box::new(KExpr::Tid(Axis::X)),
                        },
                        KExpr::SmemLoad {
                            arr: 0,
                            idx: Box::new(KExpr::add(KExpr::Tid(Axis::X), KExpr::imm(s))),
                        },
                    ),
                }],
                els: vec![],
            });
            body.push(Stmt::Sync);
            s /= 2;
        }
        body.push(Stmt::If {
            cond: KExpr::eq(KExpr::Tid(Axis::X), KExpr::imm(0)),
            then: vec![Stmt::Store {
                buf: BufId(1),
                idx: KExpr::imm(0),
                value: KExpr::SmemLoad {
                    arr: 0,
                    idx: Box::new(KExpr::imm(0)),
                },
            }],
            els: vec![],
        });
        let k = Kernel {
            name: "reduce".into(),
            grid: [Size::from(1), Size::from(1), Size::from(1)],
            block: [64, 1, 1],
            smem: vec![SmemDecl {
                name: "s".into(),
                len: 64,
            }],
            locals: 1,
            body,
        };
        let kp = one_buffer_prog(n, k);
        let inputs: HashMap<_, _> = [(ArrayId(0), (0..n).map(|x| x as f64).collect::<Vec<_>>())]
            .into_iter()
            .collect();
        let r = run_program(&kp, &gpu(), &Bindings::new(), &inputs).unwrap();
        assert_eq!(r.array(ArrayId(1))[0], (0..64).sum::<i64>() as f64);
        assert!(r.kernels[0].cost.syncs > 0);
        assert!(r.kernels[0].cost.smem_accesses > 0);
    }

    #[test]
    fn divergence_costs_both_paths() {
        // Even lanes take then, odd lanes take else: instructions should
        // exceed the uniform case.
        let mk = |divergent: bool| {
            let cond = if divergent {
                KExpr::eq(
                    KExpr::Bin(
                        multidim_ir::BinOp::Rem,
                        Box::new(KExpr::Tid(Axis::X)),
                        Box::new(KExpr::imm(2)),
                    ),
                    KExpr::imm(0),
                )
            } else {
                KExpr::Imm(1.0)
            };
            Kernel {
                name: "div".into(),
                grid: [Size::from(1), Size::from(1), Size::from(1)],
                block: [32, 1, 1],
                smem: vec![],
                locals: 1,
                body: vec![Stmt::If {
                    cond,
                    then: vec![Stmt::Assign {
                        dst: 0,
                        value: KExpr::add(KExpr::Imm(1.0), KExpr::Imm(2.0)),
                    }],
                    els: vec![Stmt::Assign {
                        dst: 0,
                        value: KExpr::mul(KExpr::Imm(2.0), KExpr::Imm(3.0)),
                    }],
                }],
            }
        };
        let inputs: HashMap<_, _> = [(ArrayId(0), vec![0.0; 4])].into_iter().collect();
        let r_uniform = run_program(
            &one_buffer_prog(4, mk(false)),
            &gpu(),
            &Bindings::new(),
            &inputs,
        )
        .unwrap();
        let r_div = run_program(
            &one_buffer_prog(4, mk(true)),
            &gpu(),
            &Bindings::new(),
            &inputs,
        )
        .unwrap();
        assert!(r_div.kernels[0].cost.warp_instr > r_uniform.kernels[0].cost.warp_instr);
    }

    #[test]
    fn for_loop_with_break() {
        // r1 = iterations until local exceeds 8, starting from tid.
        let k = Kernel {
            name: "brk".into(),
            grid: [Size::from(1), Size::from(1), Size::from(1)],
            block: [4, 1, 1],
            smem: vec![],
            locals: 2,
            body: vec![
                Stmt::Assign {
                    dst: 1,
                    value: KExpr::Tid(Axis::X),
                },
                Stmt::For {
                    var: 0,
                    start: KExpr::imm(0),
                    end: KExpr::imm(100),
                    step: KExpr::imm(1),
                    body: vec![Stmt::If {
                        cond: KExpr::ge(KExpr::Local(1), KExpr::imm(8)),
                        then: vec![Stmt::Break],
                        els: vec![Stmt::Assign {
                            dst: 1,
                            value: KExpr::mul(KExpr::Local(1), KExpr::Imm(2.0)),
                        }],
                    }],
                },
                Stmt::Store {
                    buf: BufId(1),
                    idx: KExpr::Tid(Axis::X),
                    value: KExpr::Local(1),
                },
            ],
        };
        let kp = one_buffer_prog(4, k);
        let inputs: HashMap<_, _> = [(ArrayId(0), vec![0.0; 4])].into_iter().collect();
        let r = run_program(&kp, &gpu(), &Bindings::new(), &inputs).unwrap();
        // lane0: 0 doubles forever -> stays 0 (loop ends at 100 iters).
        // lane1: 1->2->4->8 stop. lane2: 2->4->8. lane3: 3->6->12? 12>=8 stop.
        assert_eq!(r.array(ArrayId(1)), &[0.0, 8.0, 8.0, 12.0]);
    }

    #[test]
    fn atomic_accumulation() {
        let k = Kernel {
            name: "atomic".into(),
            grid: [Size::from(2), Size::from(1), Size::from(1)],
            block: [32, 1, 1],
            smem: vec![],
            locals: 0,
            body: vec![Stmt::AtomicRmw {
                buf: BufId(1),
                idx: KExpr::imm(0),
                op: ReduceOp::Add,
                value: KExpr::Imm(1.0),
                capture: None,
            }],
        };
        let kp = one_buffer_prog(4, k);
        let inputs: HashMap<_, _> = [(ArrayId(0), vec![0.0; 4])].into_iter().collect();
        let r = run_program(&kp, &gpu(), &Bindings::new(), &inputs).unwrap();
        assert_eq!(r.array(ArrayId(1))[0], 64.0);
        assert!(r.kernels[0].cost.atomic_serial > 0);
    }

    #[test]
    fn partial_warp_masks() {
        let kp = one_buffer_prog(5, double_kernel(5));
        let inputs: HashMap<_, _> = [(ArrayId(0), vec![1.0, 2.0, 3.0, 4.0, 5.0])]
            .into_iter()
            .collect();
        let r = run_program(&kp, &gpu(), &Bindings::new(), &inputs).unwrap();
        assert_eq!(r.array(ArrayId(1)), &[2.0, 4.0, 6.0, 8.0, 10.0]);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use multidim_codegen::{Axis, BufferDecl, KExpr, Kernel, SmemDecl, Stmt};
    use multidim_ir::Size;

    fn gpu() -> GpuSpec {
        GpuSpec::tesla_k20c()
    }

    fn buffers(lens: &[(u64, i64)]) -> Vec<BufferDecl> {
        lens.iter()
            .enumerate()
            .map(|(i, &(bytes, len))| BufferDecl {
                name: format!("b{i}"),
                elem_bytes: bytes,
                len: Size::from(len),
                init: if i == 0 {
                    BufferInit::FromArray(ArrayId(0))
                } else {
                    BufferInit::Zero
                },
                array: Some(ArrayId(i as u32)),
            })
            .collect()
    }

    /// A 2-D grid/block kernel writes its (x, y) coordinates: exercises
    /// multi-axis thread indexing.
    #[test]
    fn two_dimensional_indexing() {
        let w = 8i64;
        let h = 6i64;
        let x = 0u32;
        let y = 1u32;
        let body = vec![
            Stmt::Assign {
                dst: x,
                value: KExpr::global_tid(Axis::X),
            },
            Stmt::Assign {
                dst: y,
                value: KExpr::global_tid(Axis::Y),
            },
            Stmt::If {
                cond: KExpr::and(
                    KExpr::lt(KExpr::Local(x), KExpr::imm(w)),
                    KExpr::lt(KExpr::Local(y), KExpr::imm(h)),
                ),
                then: vec![Stmt::Store {
                    buf: BufId(1),
                    idx: KExpr::add(KExpr::mul(KExpr::Local(y), KExpr::imm(w)), KExpr::Local(x)),
                    value: KExpr::add(
                        KExpr::mul(KExpr::Local(y), KExpr::Imm(100.0)),
                        KExpr::Local(x),
                    ),
                }],
                els: vec![],
            },
        ];
        let kp = KernelProgram {
            name: "grid2d".into(),
            buffers: buffers(&[(4, 1), (4, w * h)]),
            kernels: vec![Kernel {
                name: "grid2d".into(),
                grid: [Size::from(2), Size::from(3), Size::from(1)],
                block: [4, 2, 1],
                smem: vec![],
                locals: 2,
                body,
            }],
            children: vec![],
            notes: vec![],
        };
        let inputs: HashMap<_, _> = [(ArrayId(0), vec![0.0])].into_iter().collect();
        let r = run_program(&kp, &gpu(), &Bindings::new(), &inputs).unwrap();
        let out = r.array(ArrayId(1));
        for yy in 0..h {
            for xx in 0..w {
                assert_eq!(out[(yy * w + xx) as usize], (yy * 100 + xx) as f64);
            }
        }
    }

    /// Bank conflicts are observed in kernel cost when a kernel strides
    /// shared memory by the bank count.
    #[test]
    fn smem_conflicts_counted() {
        let body = vec![Stmt::SmemStore {
            arr: 0,
            idx: KExpr::mul(KExpr::Tid(Axis::X), KExpr::imm(32)),
            value: KExpr::Imm(1.0),
        }];
        let kp = KernelProgram {
            name: "conflict".into(),
            buffers: buffers(&[(4, 1)]),
            kernels: vec![Kernel {
                name: "conflict".into(),
                grid: [Size::from(1), Size::from(1), Size::from(1)],
                block: [32, 1, 1],
                smem: vec![SmemDecl {
                    name: "s".into(),
                    len: 32 * 32,
                }],
                locals: 0,
                body,
            }],
            children: vec![],
            notes: vec![],
        };
        let inputs: HashMap<_, _> = [(ArrayId(0), vec![0.0])].into_iter().collect();
        let r = run_program(&kp, &gpu(), &Bindings::new(), &inputs).unwrap();
        assert_eq!(r.kernels[0].cost.smem_conflicts, 31);
    }

    /// Atomic capture returns pre-update values — all distinct for a
    /// shared counter.
    #[test]
    fn atomic_capture_is_exclusive() {
        let body = vec![
            Stmt::AtomicRmw {
                buf: BufId(0),
                idx: KExpr::imm(0),
                op: ReduceOp::Add,
                value: KExpr::Imm(1.0),
                capture: Some(0),
            },
            Stmt::Store {
                buf: BufId(1),
                idx: KExpr::Local(0),
                value: KExpr::Imm(7.0),
            },
        ];
        let kp = KernelProgram {
            name: "cap".into(),
            buffers: buffers(&[(4, 1), (4, 64)]),
            kernels: vec![Kernel {
                name: "cap".into(),
                grid: [Size::from(2), Size::from(1), Size::from(1)],
                block: [32, 1, 1],
                smem: vec![],
                locals: 1,
                body,
            }],
            children: vec![],
            notes: vec![],
        };
        let inputs: HashMap<_, _> = [(ArrayId(0), vec![0.0])].into_iter().collect();
        let r = run_program(&kp, &gpu(), &Bindings::new(), &inputs).unwrap();
        // Every slot 0..64 received exactly one write.
        assert!(r.array(ArrayId(1)).iter().all(|&v| v == 7.0));
        assert_eq!(r.array(ArrayId(0))[0], 64.0);
    }

    /// Specialization resolves symbolic sizes before execution.
    #[test]
    fn symbolic_grid_sizes_resolve() {
        let n = multidim_ir::SymId(0);
        let body = vec![
            Stmt::Assign {
                dst: 0,
                value: KExpr::global_tid(Axis::X),
            },
            Stmt::If {
                cond: KExpr::lt(KExpr::Local(0), KExpr::SizeVal(Size::sym(n))),
                then: vec![Stmt::Store {
                    buf: BufId(1),
                    idx: KExpr::Local(0),
                    value: KExpr::Imm(3.0),
                }],
                els: vec![],
            },
        ];
        let kp = KernelProgram {
            name: "sym".into(),
            buffers: vec![
                BufferDecl {
                    name: "a".into(),
                    elem_bytes: 4,
                    len: Size::from(1),
                    init: BufferInit::FromArray(ArrayId(0)),
                    array: Some(ArrayId(0)),
                },
                BufferDecl {
                    name: "o".into(),
                    elem_bytes: 4,
                    len: Size::sym(n),
                    init: BufferInit::Zero,
                    array: Some(ArrayId(1)),
                },
            ],
            kernels: vec![Kernel {
                name: "sym".into(),
                grid: [Size::sym(n) / Size::from(32), Size::from(1), Size::from(1)],
                block: [32, 1, 1],
                smem: vec![],
                locals: 1,
                body,
            }],
            children: vec![],
            notes: vec![],
        };
        let mut bind = Bindings::new();
        bind.bind(n, 77);
        let inputs: HashMap<_, _> = [(ArrayId(0), vec![0.0])].into_iter().collect();
        let r = run_program(&kp, &gpu(), &bind, &inputs).unwrap();
        assert_eq!(r.array(ArrayId(1)).len(), 77);
        assert!(r.array(ArrayId(1)).iter().all(|&v| v == 3.0));
    }

    /// Select evaluates both sides but picks per lane.
    #[test]
    fn select_is_per_lane() {
        let body = vec![Stmt::Store {
            buf: BufId(1),
            idx: KExpr::Tid(Axis::X),
            value: KExpr::Select(
                Box::new(KExpr::Bin(
                    multidim_ir::BinOp::Rem,
                    Box::new(KExpr::Tid(Axis::X)),
                    Box::new(KExpr::imm(2)),
                )),
                Box::new(KExpr::Imm(1.0)),
                Box::new(KExpr::Imm(2.0)),
            ),
        }];
        let kp = KernelProgram {
            name: "sel".into(),
            buffers: buffers(&[(4, 1), (4, 32)]),
            kernels: vec![Kernel {
                name: "sel".into(),
                grid: [Size::from(1), Size::from(1), Size::from(1)],
                block: [32, 1, 1],
                smem: vec![],
                locals: 0,
                body,
            }],
            children: vec![],
            notes: vec![],
        };
        let inputs: HashMap<_, _> = [(ArrayId(0), vec![0.0])].into_iter().collect();
        let r = run_program(&kp, &gpu(), &Bindings::new(), &inputs).unwrap();
        let out = r.array(ArrayId(1));
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, if i % 2 == 1 { 1.0 } else { 2.0 });
        }
    }

    /// An index is a finite integral value in `0..len`; anything else
    /// faults with a message naming the access and the value.
    #[test]
    fn to_index_accepts_in_bounds_integers_and_names_every_fault() {
        for (v, want) in [(0.0, 0), (-0.0, 0), (9.0, 9)] {
            assert_eq!(to_index(v, 10, "global access").unwrap(), want, "{v}");
        }
        let fault = |v: f64| to_index(v, 10, "global access").unwrap_err().0;
        let non_integral = "global access: non-integral index";
        assert_eq!(fault(f64::NAN), format!("{non_integral} NaN"));
        assert_eq!(fault(f64::INFINITY), format!("{non_integral} inf"));
        assert_eq!(fault(f64::NEG_INFINITY), format!("{non_integral} -inf"));
        assert_eq!(fault(0.5), format!("{non_integral} 0.5"));
        let out_of_bounds = |i: i64| format!("global access: index {i} out of bounds (len 10)");
        assert_eq!(fault(-1.0), out_of_bounds(-1));
        assert_eq!(fault(10.0), out_of_bounds(10));
        // Beyond i64 the cast saturates, and the message names the bound.
        assert_eq!(fault(2f64.powi(63)), out_of_bounds(i64::MAX));
        assert_eq!(fault(1e300), out_of_bounds(i64::MAX));
    }
}
