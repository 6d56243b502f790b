//! Human-readable performance reports.
//!
//! Turns a kernel's cost record and timing breakdown into the kind of
//! diagnosis a GPU profiler gives: which pipe bounds the kernel, how well
//! its accesses coalesce, its occupancy, and divergence pressure. Used by
//! the examples and by the figure benches' verbose modes.

use crate::cost::{occupancy, KernelCost, KernelTime, LaunchShape};
use crate::exec::KernelRun;
use multidim_device::GpuSpec;
use std::fmt::Write as _;

/// What limits a kernel's execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundBy {
    /// DRAM bandwidth (the common case for pattern workloads — the reason
    /// coalescing carries the paper's highest constraint weight).
    Bandwidth,
    /// Memory latency with too few resident warps to hide it.
    Latency,
    /// Instruction issue.
    Issue,
    /// Fixed overheads (launch/dispatch) dominate: the kernel is too small.
    Overhead,
}

impl BoundBy {
    /// Classify from a timing breakdown.
    pub fn classify(t: &KernelTime) -> BoundBy {
        let work = t.issue.max(t.bandwidth).max(t.latency);
        if t.overhead + t.malloc > work {
            return BoundBy::Overhead;
        }
        if t.bandwidth >= t.latency && t.bandwidth >= t.issue {
            BoundBy::Bandwidth
        } else if t.latency >= t.issue {
            BoundBy::Latency
        } else {
            BoundBy::Issue
        }
    }

    /// Short label.
    pub fn label(self) -> &'static str {
        match self {
            BoundBy::Bandwidth => "bandwidth-bound",
            BoundBy::Latency => "latency-bound",
            BoundBy::Issue => "issue-bound",
            BoundBy::Overhead => "overhead-bound",
        }
    }
}

/// Aggregate efficiency metrics derived from a cost record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Efficiency {
    /// Average 128 B transactions per warp memory request (1–2 ≈ fully
    /// coalesced; 32 ≈ fully scattered).
    pub transactions_per_request: f64,
    /// Extra shared-memory passes per access from bank conflicts.
    pub conflicts_per_access: f64,
    /// Resident warps per SM (occupancy).
    pub resident_warps: u32,
}

impl Efficiency {
    /// Compute from a cost record and launch shape.
    pub fn of(gpu: &GpuSpec, shape: &LaunchShape, cost: &KernelCost) -> Efficiency {
        let (_, warps) = occupancy(gpu, shape);
        Efficiency {
            transactions_per_request: if cost.mem_requests == 0 {
                0.0
            } else {
                cost.transactions as f64 / cost.mem_requests as f64
            },
            conflicts_per_access: if cost.smem_accesses == 0 {
                0.0
            } else {
                cost.smem_conflicts as f64 / cost.smem_accesses as f64
            },
            resident_warps: warps,
        }
    }
}

/// Render a one-kernel report.
///
/// # Examples
///
/// ```
/// use multidim_sim::{kernel_report, KernelCost, KernelRun, LaunchShape};
/// use multidim_device::GpuSpec;
///
/// let gpu = GpuSpec::tesla_k20c();
/// let shape = LaunchShape { blocks: 1024, block_threads: 256, smem_bytes: 0 };
/// let cost = KernelCost { mem_requests: 1000, transactions: 1000,
///                         dram_bytes: 128_000, ..Default::default() };
/// let time = multidim_sim::kernel_time(&gpu, &shape, &cost);
/// let run = KernelRun { name: "my_kernel".into(), shape, cost, time };
/// let text = kernel_report(&gpu, &run);
/// assert!(text.contains("my_kernel"));
/// assert!(text.contains("coalescing"));
/// ```
pub fn kernel_report(gpu: &GpuSpec, run: &KernelRun) -> String {
    let KernelRun {
        name,
        shape,
        cost,
        time,
    } = run;
    let eff = Efficiency::of(gpu, shape, cost);
    let bound = BoundBy::classify(time);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "kernel `{name}`: {:.3} ms — {}",
        time.total * 1e3,
        bound.label()
    );
    let _ = writeln!(
        s,
        "  launch: {} blocks x {} threads, {} B smem, {} resident warps/SM",
        shape.blocks, shape.block_threads, shape.smem_bytes, eff.resident_warps
    );
    let _ = writeln!(
        s,
        "  memory: {} requests -> {} transactions ({:.2} tx/request coalescing), {:.2} MB DRAM",
        cost.mem_requests,
        cost.transactions,
        eff.transactions_per_request,
        cost.dram_bytes as f64 / 1e6
    );
    let _ = writeln!(
        s,
        "  pipes:  issue {:.3} ms | bandwidth {:.3} ms | latency {:.3} ms | overhead {:.3} ms",
        time.issue * 1e3,
        time.bandwidth * 1e3,
        time.latency * 1e3,
        (time.overhead + time.malloc) * 1e3
    );
    if cost.smem_accesses > 0 {
        let _ = writeln!(
            s,
            "  smem:   {} accesses, {:.2} extra passes/access from bank conflicts",
            cost.smem_accesses, eff.conflicts_per_access
        );
    }
    if cost.mallocs > 0 {
        let _ = writeln!(s, "  mallocs: {} device-heap calls", cost.mallocs);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::kernel_time;

    fn gpu() -> GpuSpec {
        GpuSpec::tesla_k20c()
    }

    #[test]
    fn classifies_bandwidth() {
        let shape = LaunchShape {
            blocks: 4096,
            block_threads: 256,
            smem_bytes: 0,
        };
        let cost = KernelCost {
            mem_requests: 1_000_000,
            transactions: 1_000_000,
            dram_bytes: 512 << 20,
            ..Default::default()
        };
        let t = kernel_time(&gpu(), &shape, &cost);
        assert_eq!(BoundBy::classify(&t), BoundBy::Bandwidth);
    }

    #[test]
    fn classifies_latency_when_starved() {
        let shape = LaunchShape {
            blocks: 2,
            block_threads: 64,
            smem_bytes: 0,
        };
        let cost = KernelCost {
            mem_requests: 500_000,
            transactions: 500_000,
            dram_bytes: 64 << 20,
            ..Default::default()
        };
        let t = kernel_time(&gpu(), &shape, &cost);
        assert_eq!(BoundBy::classify(&t), BoundBy::Latency);
    }

    #[test]
    fn classifies_overhead_for_tiny_kernels() {
        let shape = LaunchShape {
            blocks: 1,
            block_threads: 32,
            smem_bytes: 0,
        };
        let cost = KernelCost {
            warp_instr: 10,
            ..Default::default()
        };
        let t = kernel_time(&gpu(), &shape, &cost);
        assert_eq!(BoundBy::classify(&t), BoundBy::Overhead);
    }

    #[test]
    fn classifies_issue_for_compute_heavy() {
        let shape = LaunchShape {
            blocks: 4096,
            block_threads: 256,
            smem_bytes: 0,
        };
        let cost = KernelCost {
            warp_instr: 500_000_000,
            mem_requests: 1000,
            transactions: 1000,
            dram_bytes: 128_000,
            ..Default::default()
        };
        let t = kernel_time(&gpu(), &shape, &cost);
        assert_eq!(BoundBy::classify(&t), BoundBy::Issue);
    }

    #[test]
    fn overhead_tie_goes_to_the_work_pipes() {
        // overhead + malloc exactly EQUAL to the dominant pipe is not
        // "overhead-bound" — classification requires strict dominance.
        let t = KernelTime {
            issue: 1e-6,
            bandwidth: 4e-6,
            latency: 2e-6,
            malloc: 1e-6,
            overhead: 3e-6,
            total: 5e-6,
        };
        assert_eq!(BoundBy::classify(&t), BoundBy::Bandwidth);
        // One epsilon more and the fixed costs dominate.
        let t = KernelTime {
            overhead: 3.0000001e-6,
            ..t
        };
        assert_eq!(BoundBy::classify(&t), BoundBy::Overhead);
    }

    #[test]
    fn pipe_ties_prefer_bandwidth_then_latency() {
        // Equal pipes resolve Bandwidth >= Latency >= Issue.
        let t = KernelTime {
            issue: 2e-6,
            bandwidth: 2e-6,
            latency: 2e-6,
            malloc: 0.0,
            overhead: 0.0,
            total: 2e-6,
        };
        assert_eq!(BoundBy::classify(&t), BoundBy::Bandwidth);
        let t = KernelTime {
            bandwidth: 1e-6,
            ..t
        };
        assert_eq!(BoundBy::classify(&t), BoundBy::Latency);
    }

    #[test]
    fn efficiency_zero_requests_and_accesses() {
        // A kernel that never touches DRAM or shared memory must not
        // divide by zero.
        let shape = LaunchShape {
            blocks: 4,
            block_threads: 64,
            smem_bytes: 0,
        };
        let cost = KernelCost {
            warp_instr: 100,
            ..Default::default()
        };
        let e = Efficiency::of(&gpu(), &shape, &cost);
        assert_eq!(e.transactions_per_request, 0.0);
        assert_eq!(e.conflicts_per_access, 0.0);
        assert!(e.resident_warps > 0);
    }

    #[test]
    fn efficiency_ratios() {
        let shape = LaunchShape {
            blocks: 64,
            block_threads: 256,
            smem_bytes: 0,
        };
        let cost = KernelCost {
            mem_requests: 100,
            transactions: 3200,
            smem_accesses: 10,
            smem_conflicts: 5,
            ..Default::default()
        };
        let e = Efficiency::of(&gpu(), &shape, &cost);
        assert_eq!(e.transactions_per_request, 32.0);
        assert_eq!(e.conflicts_per_access, 0.5);
    }

    #[test]
    fn report_mentions_everything() {
        let shape = LaunchShape {
            blocks: 8,
            block_threads: 128,
            smem_bytes: 1024,
        };
        let cost = KernelCost {
            mem_requests: 10,
            transactions: 20,
            dram_bytes: 2560,
            smem_accesses: 4,
            mallocs: 3,
            ..Default::default()
        };
        let time = kernel_time(&gpu(), &shape, &cost);
        let run = KernelRun {
            name: "k".into(),
            shape,
            cost,
            time,
        };
        let r = kernel_report(&gpu(), &run);
        assert!(r.contains("kernel `k`"));
        assert!(r.contains("smem"));
        assert!(r.contains("mallocs: 3"));
    }
}
