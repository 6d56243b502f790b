//! `seconds_floor` against the executor on hand-built kernels.
//!
//! On straight-line kernels whose loops have constant trip counts the
//! floor's warp instructions, requests, shared accesses and syncs must
//! equal the simulator's `KernelCost`: that ties the walk to the charges
//! the executor makes. On kernels whose cost depends on data or on which
//! lanes diverge, every counter and every time term must stay at or below
//! the simulator's — on the fixtures here, and on seeded random kernels
//! that mix every operator the interval arithmetic models.
//!
//! The random programs also run against a sweep of ceilings through
//! `run_program_capped`, whose bound adds the floors of the blocks and
//! kernels a run has not reached yet.

use multidim_codegen::{
    Axis, BufId, BufferDecl, BufferInit, KExpr, Kernel, KernelProgram, SmemDecl, Stmt,
};
use multidim_device::GpuSpec;
use multidim_ir::{ArrayId, BinOp, Bindings, ReduceOp, Size, UnOp};
use multidim_sim::{
    run_program, run_program_capped, seconds_floor, Capped, KernelFloor, SimResult,
};
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;

/// Elements of the input buffer (`in`, array 0) and the output (`out`,
/// array 1).
const N: i64 = 256;

fn program(kernels: Vec<Kernel>, children: Vec<Kernel>) -> KernelProgram {
    let buffer = |name: &str, init, array| BufferDecl {
        name: name.into(),
        elem_bytes: 4,
        len: Size::from(N),
        init,
        array: Some(ArrayId(array)),
    };
    KernelProgram {
        name: "floor".into(),
        buffers: vec![
            buffer("in", BufferInit::FromArray(ArrayId(0)), 0),
            buffer("out", BufferInit::Zero, 1),
        ],
        kernels,
        children,
        notes: vec![],
    }
}

fn kernel(grid: u32, block: [u32; 3], smem: u32, locals: u32, body: Vec<Stmt>) -> Kernel {
    Kernel {
        name: "k".into(),
        grid: [Size::from(i64::from(grid)), Size::from(1), Size::from(1)],
        block,
        smem: (smem > 0)
            .then(|| SmemDecl {
                name: "s".into(),
                len: smem,
            })
            .into_iter()
            .collect(),
        locals,
        body,
    }
}

fn load(buf: u32, idx: KExpr) -> KExpr {
    KExpr::Load {
        buf: BufId(buf),
        idx: Box::new(idx),
    }
}

fn smem_load(idx: KExpr) -> KExpr {
    KExpr::SmemLoad {
        arr: 0,
        idx: Box::new(idx),
    }
}

fn store(idx: KExpr, value: KExpr) -> Stmt {
    Stmt::Store {
        buf: BufId(1),
        idx,
        value,
    }
}

fn for_loop(var: u32, start: KExpr, end: KExpr, step: KExpr, body: Vec<Stmt>) -> Stmt {
    Stmt::For {
        var,
        start,
        end,
        step,
        body,
    }
}

fn local(l: u32) -> KExpr {
    KExpr::Local(l)
}

/// Global thread index along x.
fn gid() -> KExpr {
    KExpr::global_tid(Axis::X)
}

/// The floor and the simulated run of `kp` on `input`.
fn floor_and_run(kp: &KernelProgram, input: Vec<f64>) -> (Vec<KernelFloor>, SimResult) {
    let gpu = GpuSpec::tesla_k20c();
    let bindings = Bindings::new();
    let inputs: HashMap<_, _> = [(ArrayId(0), input)].into_iter().collect();
    let sim = run_program(kp, &gpu, &bindings, &inputs).expect("fixture runs");
    let floor = seconds_floor(kp, &gpu, &bindings).expect("every size is bound");
    assert_eq!(floor.len(), sim.kernels.len());
    for (f, k) in floor.iter().zip(&sim.kernels) {
        assert_eq!(f.shape, k.shape, "the floor's launch is the executor's");
    }
    (floor, sim)
}

/// `(warp instructions, requests, shared accesses, syncs)`.
fn counts(c: &multidim_sim::KernelCost) -> [u64; 4] {
    [c.warp_instr, c.mem_requests, c.smem_accesses, c.syncs]
}

fn assert_exact(name: &str, kp: &KernelProgram, input: Vec<f64>) {
    let (floor, sim) = floor_and_run(kp, input);
    for (f, k) in floor.iter().zip(&sim.kernels) {
        assert_eq!(counts(&f.cost), counts(&k.cost), "{name}: floor counters");
    }
    assert_below(name, &floor, &sim);
}

fn assert_below(name: &str, floor: &[KernelFloor], sim: &SimResult) {
    for (f, k) in floor.iter().zip(&sim.kernels) {
        let (cost, t) = (&k.cost, &k.time);
        for (lo, hi) in counts(&f.cost).into_iter().zip(counts(cost)) {
            assert!(lo <= hi, "{name}: floor {:?} above {cost:?}", f.cost);
        }
        assert!(f.cost.transactions <= cost.transactions, "{name}");
        assert!(f.cost.dram_bytes <= cost.dram_bytes, "{name}");
        let pipes = [
            (f.time.issue, t.issue),
            (f.time.bandwidth, t.bandwidth),
            (f.time.latency, t.latency),
            (f.time.overhead, t.overhead),
            (f.time.total, t.total),
        ];
        for (lo, hi) in pipes {
            assert!(lo <= hi, "{name}: floor {:?} above {t:?}", f.time);
        }
    }
}

fn assert_strictly_below(name: &str, kp: &KernelProgram, input: Vec<f64>) {
    let (floor, sim) = floor_and_run(kp, input);
    assert_below(name, &floor, &sim);
    let total: u64 = floor.iter().map(|f| f.cost.warp_instr).sum();
    assert!(
        total < sim.total_cost().warp_instr,
        "{name}: the fixture should cost more than its floor"
    );
}

fn ramp() -> Vec<f64> {
    (0..N).map(|i| (i % 7) as f64).collect()
}

#[test]
fn straight_line_kernels_match_the_executor_exactly() {
    // out[gid] = in[gid] * 2 + in[gid], 4 blocks of 64 threads.
    let elementwise = vec![
        Stmt::Assign {
            dst: 0,
            value: gid(),
        },
        store(
            local(0),
            KExpr::add(
                KExpr::mul(load(0, local(0)), KExpr::imm(2)),
                load(0, local(0)),
            ),
        ),
    ];
    assert_exact(
        "elementwise",
        &program(vec![kernel(4, [64, 1, 1], 0, 1, elementwise)], vec![]),
        ramp(),
    );

    // A constant loop, and one whose bounds vary by thread but whose
    // trips do not: every lane of `for (i = tid; i < tid + 64; i += 32)`
    // makes two.
    let loops = vec![
        Stmt::Assign {
            dst: 0,
            value: gid(),
        },
        for_loop(
            1,
            KExpr::imm(0),
            KExpr::imm(5),
            KExpr::imm(1),
            vec![Stmt::Assign {
                dst: 2,
                value: KExpr::add(local(2), load(0, KExpr::add(local(1), KExpr::imm(3)))),
            }],
        ),
        for_loop(
            3,
            KExpr::Tid(Axis::X),
            KExpr::add(KExpr::Tid(Axis::X), KExpr::imm(64)),
            KExpr::Bdim(Axis::X),
            vec![Stmt::Assign {
                dst: 2,
                value: KExpr::add(local(2), load(0, local(3))),
            }],
        ),
        // Always taken: `gid < N` holds on every thread.
        Stmt::If {
            cond: KExpr::lt(local(0), KExpr::imm(N)),
            then: vec![store(local(0), local(2))],
            els: vec![],
        },
    ];
    assert_exact(
        "loops",
        &program(vec![kernel(8, [32, 1, 1], 0, 4, loops)], vec![]),
        ramp(),
    );

    // Block-lockstep: a shared store, a barrier, and a three-trip loop
    // around a barrier, over 2 × 32 threads in two warps.
    let flat_tid = KExpr::add(
        KExpr::Tid(Axis::X),
        KExpr::mul(KExpr::Tid(Axis::Y), KExpr::Bdim(Axis::X)),
    );
    let lockstep = vec![
        Stmt::SmemStore {
            arr: 0,
            idx: flat_tid.clone(),
            value: load(0, flat_tid.clone()),
        },
        Stmt::Sync,
        for_loop(
            0,
            KExpr::imm(0),
            KExpr::imm(3),
            KExpr::imm(1),
            vec![
                Stmt::SmemStore {
                    arr: 0,
                    idx: flat_tid.clone(),
                    value: KExpr::add(smem_load(flat_tid.clone()), local(0)),
                },
                Stmt::Sync,
            ],
        ),
        store(flat_tid.clone(), smem_load(flat_tid)),
    ];
    assert_exact(
        "lockstep",
        &program(vec![kernel(1, [32, 2, 1], 64, 1, lockstep)], vec![]),
        ramp(),
    );
}

#[test]
fn data_and_divergence_stay_at_or_below_the_executor() {
    // A divergent branch: the floor charges the cheaper (empty) side.
    let divergent = vec![Stmt::If {
        cond: KExpr::lt(KExpr::Tid(Axis::X), KExpr::imm(10)),
        then: vec![store(gid(), load(0, gid()))],
        els: vec![],
    }];
    assert_strictly_below(
        "divergent if",
        &program(vec![kernel(8, [32, 1, 1], 0, 0, divergent)], vec![]),
        ramp(),
    );

    // A loop bounded by a load: one check.
    let data_loop = vec![
        for_loop(
            0,
            KExpr::imm(0),
            load(0, gid()),
            KExpr::imm(1),
            vec![Stmt::Assign {
                dst: 1,
                value: KExpr::add(local(1), load(0, local(0))),
            }],
        ),
        store(gid(), local(1)),
    ];
    assert_strictly_below(
        "data-dependent loop",
        &program(vec![kernel(8, [32, 1, 1], 0, 2, data_loop)], vec![]),
        ramp(),
    );

    // A constant loop a lane may leave through a `Break`.
    let breaking = vec![
        for_loop(
            0,
            KExpr::imm(0),
            KExpr::imm(8),
            KExpr::imm(1),
            vec![
                Stmt::If {
                    cond: KExpr::ge(load(0, local(0)), KExpr::imm(5)),
                    then: vec![Stmt::Break],
                    els: vec![],
                },
                Stmt::Assign {
                    dst: 1,
                    value: KExpr::add(local(1), KExpr::imm(1)),
                },
            ],
        ),
        store(gid(), local(1)),
    ];
    assert_strictly_below(
        "loop with break",
        &program(vec![kernel(8, [32, 1, 1], 0, 2, breaking)], vec![]),
        ramp(),
    );

    // A loop that writes its own variable.
    let self_writing = vec![
        for_loop(
            0,
            KExpr::imm(0),
            KExpr::imm(8),
            KExpr::imm(1),
            vec![Stmt::Assign {
                dst: 0,
                value: KExpr::add(local(0), KExpr::imm(1)),
            }],
        ),
        store(gid(), local(0)),
    ];
    assert_strictly_below(
        "loop writing its variable",
        &program(vec![kernel(8, [32, 1, 1], 0, 1, self_writing)], vec![]),
        ramp(),
    );

    // A lockstep loop around a barrier, bounded by a load.
    let lockstep_data = vec![
        for_loop(
            0,
            KExpr::imm(0),
            load(0, KExpr::imm(6)),
            KExpr::imm(1),
            vec![
                Stmt::SmemStore {
                    arr: 0,
                    idx: KExpr::Tid(Axis::X),
                    value: KExpr::add(smem_load(KExpr::Tid(Axis::X)), KExpr::imm(1)),
                },
                Stmt::Sync,
            ],
        ),
        store(gid(), smem_load(KExpr::Tid(Axis::X))),
    ];
    assert_strictly_below(
        "lockstep loop with __syncthreads",
        &program(vec![kernel(2, [64, 1, 1], 64, 1, lockstep_data)], vec![]),
        ramp(),
    );

    // Every lane launches a child grid sized by its input; the children's
    // work folds into the parent's counters, the floor leaves it out.
    let parent = vec![Stmt::ChildLaunch {
        kernel: 0,
        extent: KExpr::add(load(0, gid()), KExpr::imm(1)),
        args: vec![gid()],
    }];
    let child = vec![store(local(0), load(0, local(0)))];
    assert_strictly_below(
        "child launch",
        &program(
            vec![kernel(2, [32, 1, 1], 0, 0, parent)],
            vec![kernel(1, [32, 1, 1], 0, 1, child)],
        ),
        ramp(),
    );
}

/// xorshift64*: a fixed, dependency-free sequence.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Random kernels for the soundness property: expressions over the
/// operators the floor's intervals model, loads, shared loads, guards, loops (with
/// breaks, barriers and thread-dependent bounds) and atomics. Indices are
/// floored and clamped, loop steps are at least 1, loop ends at most 16,
/// and no loop body writes its variable, so every run terminates without
/// faulting. As in generated code, a kernel with barriers has no `Break`
/// (one would escape a lockstep loop's statement).
struct Gen {
    rng: Rng,
    /// Threads per block: the shared array's length.
    threads: i64,
    /// Loop variables in scope.
    loops: u32,
    /// The kernel may hold barriers (and then holds no `Break`).
    lockstep: bool,
}

/// First local used as a loop variable; locals below it are assigned.
const LOOP_VAR: u32 = 6;

impl Gen {
    fn clamp(e: KExpr, lo: i64, hi: i64) -> KExpr {
        let floored = KExpr::Un(UnOp::Floor, Box::new(e));
        let above = KExpr::Bin(BinOp::Max, Box::new(floored), Box::new(KExpr::imm(lo)));
        KExpr::Bin(BinOp::Min, Box::new(above), Box::new(KExpr::imm(hi)))
    }

    fn leaf(&mut self) -> KExpr {
        let axis = Axis::from_index(self.rng.below(3) as u8);
        match self.rng.below(8) {
            0 => KExpr::imm(self.rng.below(12) as i64 - 3),
            1 => KExpr::Imm(self.rng.below(16) as f64 / 4.0 - 1.0),
            2 => KExpr::Tid(axis),
            3 => KExpr::Bid(Axis::X),
            4 => KExpr::Bdim(axis),
            5 => KExpr::Gdim(Axis::X),
            _ => KExpr::Local(self.rng.below(u64::from(LOOP_VAR + self.loops)) as u32),
        }
    }

    fn expr(&mut self, depth: u32) -> KExpr {
        if depth == 0 || self.rng.below(4) == 0 {
            return self.leaf();
        }
        const BINS: [BinOp; 14] = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Min,
            BinOp::Max,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::And,
            BinOp::Or,
        ];
        const UNS: [UnOp; 5] = [UnOp::Neg, UnOp::Not, UnOp::Abs, UnOp::Floor, UnOp::Sqrt];
        match self.rng.below(6) {
            0 => {
                let idx = Gen::clamp(self.expr(depth - 1), 0, N - 1);
                load(0, idx)
            }
            1 => {
                let idx = Gen::clamp(self.expr(depth - 1), 0, self.threads - 1);
                smem_load(idx)
            }
            2 => {
                let op = UNS[self.rng.below(UNS.len() as u64) as usize];
                KExpr::Un(op, Box::new(self.expr(depth - 1)))
            }
            3 => KExpr::Select(
                Box::new(self.expr(depth - 1)),
                Box::new(self.expr(depth - 1)),
                Box::new(self.expr(depth - 1)),
            ),
            _ => {
                let op = BINS[self.rng.below(BINS.len() as u64) as usize];
                KExpr::Bin(
                    op,
                    Box::new(self.expr(depth - 1)),
                    Box::new(self.expr(depth - 1)),
                )
            }
        }
    }

    fn body(&mut self, depth: u32, in_loop: bool) -> Vec<Stmt> {
        (0..1 + self.rng.below(3))
            .map(|_| self.stmt(depth, in_loop))
            .collect()
    }

    fn stmt(&mut self, depth: u32, in_loop: bool) -> Stmt {
        let local = self.rng.below(u64::from(LOOP_VAR)) as u32;
        match self.rng.below(if depth == 0 { 6 } else { 9 }) {
            0 | 1 => Stmt::Assign {
                dst: local,
                value: self.expr(3),
            },
            2 => store(Gen::clamp(self.expr(2), 0, N - 1), self.expr(2)),
            3 => Stmt::AtomicRmw {
                buf: BufId(1),
                idx: Gen::clamp(self.expr(2), 0, N - 1),
                op: ReduceOp::Add,
                value: self.expr(2),
                capture: (self.rng.below(2) == 0).then_some(local),
            },
            4 => Stmt::SmemStore {
                arr: 0,
                idx: Gen::clamp(self.expr(2), 0, self.threads - 1),
                value: self.expr(2),
            },
            5 => match self.rng.below(4) {
                0 if in_loop && !self.lockstep => Stmt::Break,
                1 if self.lockstep => Stmt::Sync,
                2 => Stmt::DeviceMalloc {
                    bytes: self.expr(1),
                },
                _ => Stmt::Assign {
                    dst: local,
                    value: self.expr(1),
                },
            },
            6 | 7 => Stmt::If {
                cond: self.expr(2),
                then: self.body(depth - 1, in_loop),
                els: if self.rng.below(2) == 0 {
                    self.body(depth - 1, in_loop)
                } else {
                    vec![]
                },
            },
            _ if self.loops < 2 => {
                let var = LOOP_VAR + self.loops;
                let (start, end) = (
                    Gen::clamp(self.expr(2), -4, 8),
                    Gen::clamp(self.expr(2), -4, 16),
                );
                let step = Gen::clamp(self.expr(1), 1, 4);
                self.loops += 1;
                let body = self.body(depth - 1, true);
                self.loops -= 1;
                for_loop(var, start, end, step, body)
            }
            _ => store(Gen::clamp(self.expr(1), 0, N - 1), self.expr(2)),
        }
    }
}

/// One random parent kernel: 1–3 blocks of one of a few shapes, half of
/// them with a barrier.
fn random_kernel(g: &mut Gen) -> Kernel {
    const BLOCKS: [[u32; 3]; 5] = [[32, 1, 1], [64, 1, 1], [48, 1, 1], [16, 4, 1], [8, 4, 2]];
    let block = BLOCKS[g.rng.below(BLOCKS.len() as u64) as usize];
    g.threads = i64::from(block.iter().product::<u32>());
    g.lockstep = g.rng.below(2) == 0;
    let mut body = g.body(3, false);
    if g.lockstep {
        let at = g.rng.below(body.len() as u64 + 1) as usize;
        body.insert(at, Stmt::Sync);
    }
    let grid = 1 + g.rng.below(3) as u32;
    kernel(grid, block, g.threads as u32, LOOP_VAR + 2, body)
}

fn random_inputs() -> HashMap<ArrayId, Vec<f64>> {
    let input: Vec<f64> = (0..N).map(|i| ((i * 7) % 13) as f64 / 2.0 - 3.0).collect();
    [(ArrayId(0), input)].into_iter().collect()
}

/// How the runs of a ceiling sweep ended.
#[derive(Default)]
struct Sweep {
    /// Cut under a ceiling below the summed floor, at exactly that sum.
    at_floor: usize,
    /// Cut under a ceiling at or above the summed floor.
    later: usize,
    finished: usize,
}

/// Runs `kp` against ceilings of 0, just below its summed floor, 0.3,
/// 0.6, 0.9 and 0.999 of its simulated time, and that time itself. Every
/// cut bound lies in (ceiling, simulated time]; a ceiling below the summed
/// floor — the kernels' floor times added in launch order, as the run
/// adds its kernels' times — stops the run with that sum, bit for bit;
/// and every run that finishes is `sim`, bit for bit.
fn sweep_ceilings(
    name: &str,
    kp: &KernelProgram,
    inputs: &HashMap<ArrayId, Vec<f64>>,
    floor: &[KernelFloor],
    sim: &SimResult,
    tally: &mut Sweep,
) {
    let gpu = GpuSpec::tesla_k20c();
    let time = sim.total_seconds;
    let summed = floor.iter().fold(0.0, |sum, f| sum + f.time.total);
    let ceilings = [0.0, summed.next_down()]
        .into_iter()
        .chain([0.3, 0.6, 0.9, 0.999, 1.0].map(|share| time * share));
    for ceiling in ceilings {
        let bits = AtomicU64::new(ceiling.to_bits());
        let run = run_program_capped(kp, &gpu, &Bindings::new(), inputs, &bits)
            .unwrap_or_else(|err| panic!("{name}: {err} under a ceiling of {ceiling:e}"));
        let at = format!("{name} under a ceiling of {ceiling:e} (floor {summed:e}, time {time:e})");
        match run {
            Capped::Cut(bound) => {
                assert!(bound > ceiling && bound <= time, "{at}: cut at {bound:e}");
                if ceiling < summed {
                    assert_eq!(bound.to_bits(), summed.to_bits(), "{at}: cut at {bound:e}");
                    tally.at_floor += 1;
                } else {
                    tally.later += 1;
                }
            }
            Capped::Finished(run) => {
                assert!(ceiling >= summed, "{at}: finished under its floor");
                assert_eq!(run.total_seconds.to_bits(), time.to_bits(), "{at}: time");
                assert_eq!(run.kernels, sim.kernels, "{at}: kernel records");
                for (array, data) in &sim.arrays {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(run.array(*array)), bits(data), "{at}: outputs");
                }
                tally.finished += 1;
            }
        }
    }
}

#[test]
fn random_kernels_stay_at_or_below_the_executor() {
    let mut g = Gen {
        rng: Rng(0x9e37_79b9_7f4a_7c15),
        threads: 0,
        loops: 0,
        lockstep: false,
    };
    let gpu = GpuSpec::tesla_k20c();
    let inputs = random_inputs();
    let (mut ran, mut lockstep) = (0, 0);
    let mut sweep = Sweep::default();
    for case in 0..1000 {
        let kernels = (0..1 + g.rng.below(2))
            .map(|_| random_kernel(&mut g))
            .collect();
        let kp = program(kernels, vec![]);
        let Ok(sim) = run_program(&kp, &gpu, &Bindings::new(), &inputs) else {
            continue;
        };
        ran += 1;
        lockstep += usize::from(kp.kernels.iter().any(Kernel::has_sync));
        let floor = seconds_floor(&kp, &gpu, &Bindings::new()).expect("every size is bound");
        let name = format!("random kernel {case}");
        assert_below(&name, &floor, &sim);
        sweep_ceilings(&name, &kp, &inputs, &floor, &sim, &mut sweep);
    }
    assert!(ran >= 900, "only {ran} of 1000 random programs ran");
    assert!(
        lockstep >= 300,
        "only {lockstep} random programs ran in lockstep"
    );
    assert!(
        sweep.at_floor > 0 && sweep.later > 0 && sweep.finished > 0,
        "{} runs cut at their floor, {} later, {} finished",
        sweep.at_floor,
        sweep.later,
        sweep.finished
    );
}

/// The capped sweep on programs of three or four kernels: enough later
/// kernels that adding their floors in another order than launch order
/// rounds differently.
#[test]
fn random_programs_of_several_kernels_cut_within_their_floor_and_time() {
    let mut g = Gen {
        rng: Rng(0x2545_f491_4f6c_dd1d),
        threads: 0,
        loops: 0,
        lockstep: false,
    };
    let gpu = GpuSpec::tesla_k20c();
    let inputs = random_inputs();
    let mut sweep = Sweep::default();
    let mut ran = 0;
    for case in 0..200 {
        let kernels = (0..3 + g.rng.below(2))
            .map(|_| random_kernel(&mut g))
            .collect();
        let kp = program(kernels, vec![]);
        let Ok(sim) = run_program(&kp, &gpu, &Bindings::new(), &inputs) else {
            continue;
        };
        ran += 1;
        let floor = seconds_floor(&kp, &gpu, &Bindings::new()).expect("every size is bound");
        let name = format!("random program {case}");
        assert_below(&name, &floor, &sim);
        sweep_ceilings(&name, &kp, &inputs, &floor, &sim, &mut sweep);
    }
    assert!(ran >= 150, "only {ran} of 200 random programs ran");
    assert!(
        sweep.at_floor > 0 && sweep.later > 0 && sweep.finished > 0,
        "{} runs cut at their floor, {} later, {} finished",
        sweep.at_floor,
        sweep.later,
        sweep.finished
    );
}

/// Locals of the index-array kernels: the row and the loop variable, above
/// every local [`Gen`] writes.
const ROW: u32 = LOOP_VAR + 2;
const NZ: u32 = LOOP_VAR + 3;
const CARRY: u32 = LOOP_VAR + 4;

/// CSR row pointers over `rows` rows whose degrees follow a Zipf law: the
/// rank-`k` degree is proportional to `k^-alpha`, and ranks are scattered
/// over the rows.
fn zipf_row_ptr(rng: &mut Rng, rows: usize) -> Vec<f64> {
    let alpha = [0.5, 1.0, 1.5][rng.below(3) as usize];
    let nonzeros = (rows * (1 + rng.below(12) as usize)) as f64;
    let weights: Vec<f64> = (1..=rows).map(|k| (k as f64).powf(-alpha)).collect();
    let total: f64 = weights.iter().sum();
    let mut order: Vec<usize> = (0..rows).collect();
    for i in (1..rows).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut degree = vec![0.0; rows];
    for (w, &row) in weights.iter().zip(&order) {
        degree[row] = (nonzeros * w / total).round();
    }
    let mut ptr = vec![0.0];
    for d in degree {
        ptr.push(ptr.last().unwrap() + d);
    }
    ptr
}

/// `in`, `out` and the row pointers `ptr` (buffer 2, array 2) of `rows`
/// rows.
fn csr_program(kernels: Vec<Kernel>, rows: i64) -> KernelProgram {
    let mut kp = program(kernels, vec![]);
    kp.buffers.push(BufferDecl {
        name: "ptr".into(),
        elem_bytes: 4,
        len: Size::from(rows + 1),
        init: BufferInit::FromArray(ArrayId(2)),
        array: Some(ArrayId(2)),
    });
    kp
}

fn ptr_at(idx: KExpr) -> KExpr {
    load(2, idx)
}

/// Row `r`'s degree, `ptr[r + 1] - ptr[r]`.
fn degree(r: KExpr) -> KExpr {
    KExpr::sub(ptr_at(KExpr::add(r.clone(), KExpr::imm(1))), ptr_at(r))
}

/// One of five kernels over the rows of `ptr`, each with a loop bounded by
/// its loads: a lane per row (`for (j = ptr[r]; j < ptr[r + 1]; j++)`
/// under `if (r < rows)`), rows on y with lanes striding over the row on x,
/// a block per row, the strided shape reading its row start back from a
/// shared copy written before a `__syncthreads`, and a lane per row whose
/// bound reads a local the block assigns only after the loop (zero at
/// every block's start, so the loop makes no trips). The body adds an
/// input element to the row's output, then runs `extra`.
fn csr_kernel(shape: u64, rows: i64, block: [u32; 3], extra: Vec<Stmt>) -> Kernel {
    let last = KExpr::imm(rows - 1);
    let [bx, by, _] = block.map(i64::from);
    let mut body = vec![Stmt::AtomicRmw {
        buf: BufId(1),
        idx: KExpr::min(local(ROW), KExpr::imm(N - 1)),
        op: ReduceOp::Add,
        value: load(0, Gen::clamp(local(NZ), 0, N - 1)),
        capture: None,
    }];
    body.extend(extra);
    let row_on_y = KExpr::add(
        KExpr::mul(KExpr::Bid(Axis::X), KExpr::imm(by)),
        KExpr::Tid(Axis::Y),
    );
    let assign = |value| Stmt::Assign { dst: ROW, value };
    let (grid, stmts) = match shape {
        0 => {
            let lanes = bx * by;
            let r = KExpr::add(
                KExpr::mul(KExpr::Bid(Axis::X), KExpr::imm(lanes)),
                KExpr::add(
                    KExpr::Tid(Axis::X),
                    KExpr::mul(KExpr::Tid(Axis::Y), KExpr::imm(bx)),
                ),
            );
            let rows_loop = for_loop(
                NZ,
                ptr_at(local(ROW)),
                ptr_at(KExpr::add(local(ROW), KExpr::imm(1))),
                KExpr::imm(1),
                body,
            );
            let guard = Stmt::If {
                cond: KExpr::lt(local(ROW), KExpr::imm(rows)),
                then: vec![rows_loop],
                els: vec![],
            };
            ((rows + lanes - 1) / lanes, vec![assign(r), guard])
        }
        1 => {
            let strided = for_loop(
                NZ,
                KExpr::Tid(Axis::X),
                degree(local(ROW)),
                KExpr::imm(bx),
                body,
            );
            (
                (rows + by - 1) / by,
                vec![assign(KExpr::min(row_on_y, last)), strided],
            )
        }
        4 => {
            // `CARRY` is zero at the loop and `ptr[0]` is 0: no trips.
            let r = KExpr::min(KExpr::add(KExpr::Bid(Axis::X), KExpr::Tid(Axis::X)), last);
            let end = ptr_at(KExpr::min(local(CARRY), KExpr::imm(rows)));
            let carried = for_loop(NZ, KExpr::imm(0), end, KExpr::imm(1), body);
            let carry = Stmt::Assign {
                dst: CARRY,
                value: KExpr::imm(rows),
            };
            (rows, vec![assign(r), carried, carry])
        }
        2 => {
            let t = KExpr::add(
                KExpr::Tid(Axis::X),
                KExpr::mul(KExpr::Tid(Axis::Y), KExpr::imm(bx)),
            );
            let spread = for_loop(NZ, t, degree(local(ROW)), KExpr::imm(bx * by), body);
            (
                rows,
                vec![assign(KExpr::min(KExpr::Bid(Axis::X), last)), spread],
            )
        }
        _ => {
            let t = KExpr::add(
                KExpr::Tid(Axis::X),
                KExpr::mul(KExpr::Tid(Axis::Y), KExpr::imm(bx)),
            );
            let first = KExpr::add(KExpr::mul(KExpr::Bid(Axis::X), KExpr::imm(by)), t.clone());
            let prefetch = Stmt::If {
                cond: KExpr::lt(t.clone(), KExpr::imm(by)),
                then: vec![Stmt::SmemStore {
                    arr: 0,
                    idx: t,
                    value: ptr_at(KExpr::min(first, KExpr::imm(rows))),
                }],
                els: vec![],
            };
            let end = KExpr::sub(
                ptr_at(KExpr::add(local(ROW), KExpr::imm(1))),
                smem_load(KExpr::Tid(Axis::Y)),
            );
            let strided = for_loop(NZ, KExpr::Tid(Axis::X), end, KExpr::imm(bx), body);
            let stmts = vec![
                prefetch,
                Stmt::Sync,
                assign(KExpr::min(row_on_y, last)),
                strided,
            ];
            ((rows + by - 1) / by, stmts)
        }
    };
    kernel(grid as u32, block, (bx * by) as u32, CARRY + 1, stmts)
}

/// A kernel that empties every row, `ptr[i] = 0`: a later kernel's loops
/// over the rows make no trips, whatever `ptr` held at the start.
fn emptying_kernel(rows: i64) -> Kernel {
    let body = vec![Stmt::If {
        cond: KExpr::lt(gid(), KExpr::imm(rows + 1)),
        then: vec![Stmt::Store {
            buf: BufId(2),
            idx: gid(),
            value: KExpr::imm(0),
        }],
        els: vec![],
    }];
    kernel(((rows + 32) / 32) as u32, [32, 1, 1], 0, 0, body)
}

/// Seeded programs whose loops are bounded by loads from Zipf-skewed CSR
/// row pointers, in every kernel shape [`csr_kernel`] builds, with random
/// statements after the body's own. `seconds_floor_with_inputs` reads the
/// row pointers: every counter and time term stays at or below the
/// executor's and at or above `seconds_floor`'s. In a quarter of the
/// programs a first kernel empties every row, so the row pointers are
/// written and must not be read: the loops make no trips. Each
/// program then runs through `run_program_capped` at the sweep of
/// ceilings, plus one just below the floor that reads the inputs, which
/// must cut before the first block at exactly that floor's sum.
#[test]
fn loops_bounded_by_index_arrays_stay_at_or_below_the_executor() {
    const BLOCKS: [[u32; 3]; 6] = [
        [32, 1, 1],
        [64, 1, 1],
        [8, 4, 1],
        [4, 8, 1],
        [16, 2, 1],
        [1, 4, 1],
    ];
    let mut rng = Rng(0x51f1_5ee5_d1a6_0a1d);
    let gpu = GpuSpec::tesla_k20c();
    let mut sweep = Sweep::default();
    let (mut ran, mut shapes, mut raised, mut emptied, mut cut_at_inputs) = (0, [0; 5], 0, 0, 0);
    for case in 0..300 {
        let rows = 4 + rng.below(61) as i64;
        let ptr = zipf_row_ptr(&mut rng, rows as usize);
        let shape = rng.below(5);
        let block = BLOCKS[rng.below(BLOCKS.len() as u64) as usize];
        let mut g = Gen {
            rng: Rng(rng.next() | 1),
            threads: i64::from(block.iter().product::<u32>()),
            loops: 0,
            lockstep: false,
        };
        let extra = (0..rng.below(3)).map(|_| g.stmt(1, true)).collect();
        let csr = csr_kernel(shape, rows, block, extra);
        let empties = rng.below(4) == 0;
        let kernels = if empties {
            vec![emptying_kernel(rows), csr]
        } else {
            vec![csr]
        };
        let kp = csr_program(kernels, rows);
        let mut inputs = random_inputs();
        inputs.insert(ArrayId(2), ptr);
        let Ok(sim) = run_program(&kp, &gpu, &Bindings::new(), &inputs) else {
            continue;
        };
        ran += 1;
        shapes[shape as usize] += 1;
        let name = format!("index-array program {case} (shape {shape}, {rows} rows)");
        let floor = seconds_floor(&kp, &gpu, &Bindings::new()).expect("every size is bound");
        let read = multidim_sim::seconds_floor_with_inputs(&kp, &gpu, &Bindings::new(), &inputs)
            .expect("the inputs are there");
        assert_below(&name, &read, &sim);
        for (r, f) in read.iter().zip(&floor) {
            assert_eq!(r.shape, f.shape, "{name}");
            let pairs = counts(&r.cost).into_iter().zip(counts(&f.cost));
            assert!(
                pairs.into_iter().all(|(r, f)| r >= f),
                "{name}: {r:?} below {f:?}"
            );
        }
        let sum = |fs: &[KernelFloor]| fs.iter().fold(0.0, |sum: f64, f| sum + f.time.total);
        let (static_sum, read_sum) = (sum(&floor), sum(&read));
        // Emptied rows make no trips: a floor that read the row pointers
        // as they started would charge trips the executor never makes.
        emptied += usize::from(empties);
        raised += usize::from(read_sum > static_sum);
        sweep_ceilings(&name, &kp, &inputs, &floor, &sim, &mut sweep);
        if read_sum > static_sum {
            let ceiling = read_sum.next_down();
            let bits = std::sync::atomic::AtomicU64::new(ceiling.to_bits());
            match run_program_capped(&kp, &gpu, &Bindings::new(), &inputs, &bits) {
                Ok(Capped::Cut(bound)) => {
                    assert_eq!(
                        bound.to_bits(),
                        read_sum.to_bits(),
                        "{name}: cut at {bound:e}"
                    );
                    cut_at_inputs += 1;
                }
                other => panic!("{name}: {other:?} under a ceiling just below {read_sum:e}"),
            }
        }
    }
    assert!(ran >= 250, "only {ran} of 300 index-array programs ran");
    assert!(
        shapes.iter().all(|&n| n >= 40),
        "programs per shape: {shapes:?}"
    );
    assert!(
        emptied >= 40,
        "only {emptied} programs wrote their row pointers"
    );
    assert!(
        raised >= ran / 2 && cut_at_inputs == raised,
        "{raised} of {ran} floors raised by the inputs, {cut_at_inputs} cut at them"
    );
    assert!(
        sweep.at_floor > 0 && sweep.later > 0 && sweep.finished > 0,
        "{} runs cut at their floor, {} later, {} finished",
        sweep.at_floor,
        sweep.later,
        sweep.finished
    );
}
