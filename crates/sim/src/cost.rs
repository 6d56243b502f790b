//! Cost accounting and the kernel timing model.
//!
//! The simulator accumulates per-kernel event counts while it executes and
//! converts them to time with an occupancy-aware roofline:
//!
//! ```text
//! T = max(T_issue, T_bandwidth, T_latency) + T_malloc + T_overhead
//! ```
//!
//! * `T_bandwidth` — DRAM bytes actually transferred (transactions × 128 B,
//!   so uncoalesced access patterns pay up to 32× — the effect the paper's
//!   analysis optimizes for);
//! * `T_latency` — memory requests × latency ÷ (active SMs × resident
//!   warps × per-warp MLP): with too few resident warps latency cannot be
//!   hidden — the paper's "not enough threads to … hide memory latency";
//! * `T_issue` — warp instructions (including shared-memory accesses, bank
//!   serialization and syncs) through the active SMs' schedulers;
//! * `T_malloc` — device-heap allocations are near-serial (Section V-A's
//!   "significant" per-thread malloc overhead);
//! * `T_overhead` — kernel launch plus per-block dispatch (the
//!   "overhead of too many thread blocks").

use multidim_device::{GpuSpec, WARP_SIZE};

/// Event counts for one kernel execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelCost {
    /// Warp-level instructions issued (expression nodes + statements).
    pub warp_instr: u64,
    /// Warp-level global-memory requests (loads + stores + atomics).
    pub mem_requests: u64,
    /// 128-byte DRAM transactions those requests coalesced into.
    pub transactions: u64,
    /// Bytes moved to/from DRAM (transactions × segment size).
    pub dram_bytes: u64,
    /// Warp-level shared-memory accesses.
    pub smem_accesses: u64,
    /// Extra serialized shared-memory passes from bank conflicts.
    pub smem_conflicts: u64,
    /// Block-wide synchronizations executed (per warp).
    pub syncs: u64,
    /// Per-thread device-heap allocations.
    pub mallocs: u64,
    /// Extra serialization cycles from contended atomics (lane count
    /// beyond the first per warp request).
    pub atomic_serial: u64,
    /// Device-side child-kernel launches issued from this kernel
    /// (dynamic parallelism); each pays
    /// [`GpuSpec::child_launch_overhead_s`].
    pub child_launches: u64,
    /// Thread blocks dispatched for those child launches (their execution
    /// cost is folded into the parent's counters; the blocks still pay
    /// dispatch overhead).
    pub child_blocks: u64,
}

impl KernelCost {
    /// Merge another cost record into this one.
    pub fn add(&mut self, other: &KernelCost) {
        self.warp_instr += other.warp_instr;
        self.mem_requests += other.mem_requests;
        self.transactions += other.transactions;
        self.dram_bytes += other.dram_bytes;
        self.smem_accesses += other.smem_accesses;
        self.smem_conflicts += other.smem_conflicts;
        self.syncs += other.syncs;
        self.mallocs += other.mallocs;
        self.atomic_serial += other.atomic_serial;
        self.child_launches += other.child_launches;
        self.child_blocks += other.child_blocks;
    }
}

/// Static launch facts the timing model needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchShape {
    /// Total thread blocks launched.
    pub blocks: u64,
    /// Threads per block.
    pub block_threads: u32,
    /// Shared-memory bytes per block.
    pub smem_bytes: u32,
}

/// Occupancy: resident blocks and warps per *active* SM for a launch
/// (capped both by architectural limits and by how many blocks the launch
/// actually provides per SM).
pub fn occupancy(gpu: &GpuSpec, shape: &LaunchShape) -> (u32, u32) {
    let by_threads = (gpu.max_threads_per_sm / shape.block_threads.max(1)).max(1);
    let by_blocks = gpu.max_blocks_per_sm;
    let by_smem = gpu
        .smem_per_sm
        .checked_div(shape.smem_bytes)
        .map_or(u32::MAX, |v| v.max(1));
    let arch = by_threads.min(by_blocks).min(by_smem).max(1);
    let blocks = shape.blocks.max(1);
    let active_sms = (gpu.sm_count as u64).min(blocks) as u32;
    let per_sm = blocks.div_ceil(active_sms as u64).min(u32::MAX as u64) as u32;
    let resident_blocks = arch.min(per_sm).max(1);
    let warps_per_block = shape.block_threads.div_ceil(WARP_SIZE).max(1);
    (resident_blocks, resident_blocks * warps_per_block)
}

/// Detailed timing breakdown of one kernel (all in seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelTime {
    /// Instruction-issue bound.
    pub issue: f64,
    /// DRAM bandwidth bound.
    pub bandwidth: f64,
    /// Latency-hiding bound.
    pub latency: f64,
    /// Device-malloc serialization.
    pub malloc: f64,
    /// Launch + block dispatch overhead.
    pub overhead: f64,
    /// Final kernel time: `max(issue, bandwidth, latency) + malloc +
    /// overhead`.
    pub total: f64,
}

/// Convert a kernel's cost record into time on `gpu`.
pub fn kernel_time(gpu: &GpuSpec, shape: &LaunchShape, cost: &KernelCost) -> KernelTime {
    let (resident_blocks, resident_warps) = occupancy(gpu, shape);
    let _ = resident_blocks;
    let active_sms = gpu
        .sm_count
        .min(shape.blocks.max(1).min(u32::MAX as u64) as u32)
        .max(1);

    // --- issue pipe -----------------------------------------------------
    // A warp sustains roughly one instruction per 4 cycles (dependency
    // latency); with enough warps the scheduler's issue width caps it.
    let per_warp_ipc = 0.25f64;
    let throughput_per_sm = (resident_warps as f64 * per_warp_ipc)
        .min(gpu.issue_width as f64)
        .max(per_warp_ipc);
    let issue_work = cost.warp_instr as f64
        + (cost.smem_accesses + cost.smem_conflicts) as f64 * gpu.smem_cycles
        + cost.syncs as f64 * gpu.sync_cycles
        + cost.atomic_serial as f64;
    let issue_cycles = issue_work / (active_sms as f64 * throughput_per_sm);

    // --- bandwidth pipe ---------------------------------------------------
    let bytes_per_cycle = gpu.dram_bandwidth / gpu.clock_hz;
    let bw_cycles = cost.dram_bytes as f64 / bytes_per_cycle;

    // --- latency pipe ----------------------------------------------------
    // Each resident warp sustains up to `mlp_per_warp` outstanding
    // transactions, but the SM's miss-handling resources (MSHRs) cap the
    // total in flight.
    let per_sm = (resident_warps as f64 * gpu.mlp_per_warp).min(gpu.mshr_per_sm);
    let concurrency = active_sms as f64 * per_sm;
    let lat_cycles = cost.transactions as f64 * gpu.mem_latency_cycles / concurrency.max(1.0);

    // --- serial extras ----------------------------------------------------
    let malloc_cycles = cost.mallocs as f64 * gpu.device_malloc_cycles
        / (active_sms as f64 * resident_warps as f64).clamp(1.0, 32.0);
    let overhead_s = gpu.kernel_launch_overhead_s
        + gpu
            .cycles_to_seconds(shape.blocks as f64 * gpu.block_dispatch_cycles / active_sms as f64)
        // Dynamic parallelism: each device-side launch pays a fixed
        // overhead, and the child grids' blocks pay dispatch like any
        // other block (their execution cost is already folded into the
        // parent's counters).
        + cost.child_launches as f64 * gpu.child_launch_overhead_s
        + gpu.cycles_to_seconds(
            cost.child_blocks as f64 * gpu.block_dispatch_cycles / active_sms as f64,
        );

    let issue = gpu.cycles_to_seconds(issue_cycles);
    let bandwidth = gpu.cycles_to_seconds(bw_cycles);
    let latency = gpu.cycles_to_seconds(lat_cycles);
    let malloc = gpu.cycles_to_seconds(malloc_cycles);
    let total = issue.max(bandwidth).max(latency) + malloc + overhead_s;
    KernelTime {
        issue,
        bandwidth,
        latency,
        malloc,
        overhead: overhead_s,
        total,
    }
}

/// A sound lower bound (seconds) on the time any kernel set moving
/// `transactions` DRAM transactions can take on `gpu`, derived from the
/// same roofline terms as [`kernel_time`]:
///
/// * the bandwidth pipe is linear in bytes, so summing over kernels can
///   only grow it: `Σ_k bw_k ≥ bw(Σ_k tx_k)`;
/// * the latency pipe's concurrency denominator is capped by
///   `sm_count × mshr_per_sm` (`per_sm ≤ mshr_per_sm`, `active_sms ≤
///   sm_count`), so each kernel's latency term is at least
///   `tx_k × mem_latency / (sm_count × mshr)`;
/// * `total = max(issue, bw, lat) + … ≥ max(bw, lat)` per kernel, and
///   `Σ max(a_k, b_k) ≥ max(Σ a_k, Σ b_k)`.
///
/// This is one term of the seconds floor the autotuner prunes with: the
/// static locality analysis takes the larger of it and the per-kernel
/// pipes of [`seconds_floor`](crate::seconds_floor), and adds the launch
/// overheads. It is the larger term when coalescing proofs count many
/// more transactions than the one-per-request walk. Keeping the formula next
/// to [`kernel_time`] means a timing-model change cannot silently
/// invalidate it.
pub fn memory_floor_seconds(gpu: &GpuSpec, transactions: u64) -> f64 {
    let bytes = (transactions as f64) * (gpu.transaction_bytes as f64);
    let bw = bytes / gpu.dram_bandwidth;
    let concurrency = (gpu.sm_count as f64 * gpu.mshr_per_sm).max(1.0);
    let lat = gpu.cycles_to_seconds(transactions as f64 * gpu.mem_latency_cycles / concurrency);
    bw.max(lat)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> GpuSpec {
        GpuSpec::tesla_k20c()
    }

    #[test]
    fn occupancy_full_blocks() {
        let shape = LaunchShape {
            blocks: 1000,
            block_threads: 256,
            smem_bytes: 0,
        };
        let (blocks, warps) = occupancy(&gpu(), &shape);
        assert_eq!(blocks, 8); // 2048/256
        assert_eq!(warps, 64);
    }

    #[test]
    fn occupancy_limited_by_smem() {
        let shape = LaunchShape {
            blocks: 1000,
            block_threads: 64,
            smem_bytes: 24 * 1024,
        };
        let (blocks, _) = occupancy(&gpu(), &shape);
        assert_eq!(blocks, 2); // 48K/24K
    }

    #[test]
    fn occupancy_limited_by_launch() {
        // 3 blocks spread over 3 active SMs: 1 resident block each.
        let shape = LaunchShape {
            blocks: 3,
            block_threads: 64,
            smem_bytes: 0,
        };
        let (blocks, warps) = occupancy(&gpu(), &shape);
        assert_eq!(blocks, 1);
        assert_eq!(warps, 2);
        // 26 blocks over 13 SMs: 2 resident blocks each.
        let shape = LaunchShape {
            blocks: 26,
            block_threads: 64,
            smem_bytes: 0,
        };
        assert_eq!(occupancy(&gpu(), &shape).0, 2);
    }

    #[test]
    fn bandwidth_bound_kernel() {
        // 256 MB moved on a well-occupied kernel: ~1.2 ms on 208 GB/s.
        let shape = LaunchShape {
            blocks: 4096,
            block_threads: 256,
            smem_bytes: 0,
        };
        let cost = KernelCost {
            warp_instr: 1_000_000,
            mem_requests: 2_000_000,
            transactions: 2_000_000,
            dram_bytes: 256 << 20,
            ..Default::default()
        };
        let t = kernel_time(&gpu(), &shape, &cost);
        assert!(t.total > 1.0e-3 && t.total < 2.0e-3, "t = {t:?}");
        assert!(t.bandwidth > t.issue);
    }

    #[test]
    fn uncoalesced_pays_more() {
        let shape = LaunchShape {
            blocks: 4096,
            block_threads: 256,
            smem_bytes: 0,
        };
        let coalesced = KernelCost {
            mem_requests: 1_000_000,
            transactions: 1_000_000,
            dram_bytes: 128_000_000,
            ..Default::default()
        };
        let scattered = KernelCost {
            mem_requests: 1_000_000,
            transactions: 32_000_000,
            dram_bytes: 32 * 128_000_000,
            ..Default::default()
        };
        let tc = kernel_time(&gpu(), &shape, &coalesced);
        let ts = kernel_time(&gpu(), &shape, &scattered);
        assert!(ts.total / tc.total > 8.0, "ratio {}", ts.total / tc.total);
    }

    #[test]
    fn underutilization_hurts_latency_bound() {
        // Same traffic, but on 4 blocks instead of 4096: fewer SMs active,
        // less latency hiding.
        let cost = KernelCost {
            mem_requests: 1_000_000,
            transactions: 1_000_000,
            dram_bytes: 128_000_000,
            ..Default::default()
        };
        let busy = LaunchShape {
            blocks: 4096,
            block_threads: 256,
            smem_bytes: 0,
        };
        let starved = LaunchShape {
            blocks: 4,
            block_threads: 256,
            smem_bytes: 0,
        };
        let tb = kernel_time(&gpu(), &busy, &cost);
        let ts = kernel_time(&gpu(), &starved, &cost);
        assert!(ts.total / tb.total > 3.0, "ratio {}", ts.total / tb.total);
    }

    #[test]
    fn launch_overhead_floor() {
        let shape = LaunchShape {
            blocks: 1,
            block_threads: 32,
            smem_bytes: 0,
        };
        let t = kernel_time(&gpu(), &shape, &KernelCost::default());
        assert!(t.total >= gpu().kernel_launch_overhead_s);
    }

    /// xorshift64: a fixed, dependency-free sequence.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }

        /// A counter from 0 to about 2^40, so counters tie, differ by one,
        /// or dwarf each other.
        fn count(&mut self) -> u64 {
            let bits = self.below(41);
            self.below(1 << bits)
        }

        /// `v`, `v + 1` or `v` plus a fresh counter.
        fn grow(&mut self, v: u64) -> u64 {
            match self.below(3) {
                0 => v,
                1 => v + 1,
                _ => v + self.count(),
            }
        }
    }

    /// The seeded property a capped run's cut rests on: for counters
    /// `a <= b` field by field and any launch shape, `kernel_time(a).total
    /// <= kernel_time(b).total`, in floating point.
    #[test]
    fn kernel_time_is_monotone_in_every_counter() {
        let mut rng = Rng(0x6d6f_6e6f_746f_6e65);
        for gpu in [GpuSpec::tesla_k20c(), GpuSpec::tesla_c2050()] {
            for _ in 0..2_000 {
                let a = KernelCost {
                    warp_instr: rng.count(),
                    mem_requests: rng.count(),
                    transactions: rng.count(),
                    dram_bytes: rng.count(),
                    smem_accesses: rng.count(),
                    smem_conflicts: rng.count(),
                    syncs: rng.count(),
                    mallocs: rng.count(),
                    atomic_serial: rng.count(),
                    child_launches: rng.count(),
                    child_blocks: rng.count(),
                };
                let b = KernelCost {
                    warp_instr: rng.grow(a.warp_instr),
                    mem_requests: rng.grow(a.mem_requests),
                    transactions: rng.grow(a.transactions),
                    dram_bytes: rng.grow(a.dram_bytes),
                    smem_accesses: rng.grow(a.smem_accesses),
                    smem_conflicts: rng.grow(a.smem_conflicts),
                    syncs: rng.grow(a.syncs),
                    mallocs: rng.grow(a.mallocs),
                    atomic_serial: rng.grow(a.atomic_serial),
                    child_launches: rng.grow(a.child_launches),
                    child_blocks: rng.grow(a.child_blocks),
                };
                let blocks_bits = 1 + rng.below(24);
                let shape = LaunchShape {
                    blocks: 1 + rng.below(1 << blocks_bits),
                    block_threads: 1 + rng.below(1024) as u32,
                    smem_bytes: rng.below(49_153) as u32,
                };
                let (ta, tb) = (
                    kernel_time(&gpu, &shape, &a).total,
                    kernel_time(&gpu, &shape, &b).total,
                );
                assert!(ta <= tb, "{shape:?}: {a:?} takes {ta:e} s, {b:?} {tb:e} s");
            }
        }
    }

    #[test]
    fn cost_merge() {
        let mut a = KernelCost {
            warp_instr: 1,
            ..Default::default()
        };
        let b = KernelCost {
            warp_instr: 2,
            dram_bytes: 128,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.warp_instr, 3);
        assert_eq!(a.dram_bytes, 128);
    }
}
