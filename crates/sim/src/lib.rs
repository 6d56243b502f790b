//! Warp-synchronous GPU simulator for the `multidim` framework.
//!
//! This crate is the hardware substitute for the paper's Tesla K20c (see
//! DESIGN.md): it *functionally executes* the kernels produced by
//! `multidim-codegen` — real data, lane masks, shared memory, atomics,
//! block synchronization — while accumulating memory-system events
//! (coalescing transactions, bank conflicts, occupancy), and converts them
//! to time with an occupancy-aware roofline model. It also provides the
//! multicore-CPU baseline estimate used by the Figure 14 experiments.
//!
//! # Examples
//!
//! End-to-end: build a program, map it, lower it, simulate it, and check
//! the result against the reference interpreter.
//!
//! ```
//! use multidim_ir::*;
//! use multidim_mapping::analyze;
//! use multidim_codegen::{lower, CodegenOptions};
//! use multidim_sim::run_program;
//! use multidim_device::GpuSpec;
//! use std::collections::HashMap;
//!
//! let mut b = ProgramBuilder::new("scale");
//! let n = b.sym("N");
//! let x = b.input("x", ScalarKind::F32, &[Size::sym(n)]);
//! let root = b.map(Size::sym(n), |b, i| b.read(x, &[i.into()]) * Expr::lit(3.0));
//! let p = b.finish_map(root, "y", ScalarKind::F32)?;
//!
//! let mut bind = Bindings::new();
//! bind.bind(n, 1000);
//! let gpu = GpuSpec::tesla_k20c();
//! let analysis = analyze(&p, &bind, &gpu);
//! let kp = lower(&p, &analysis.decision, &CodegenOptions::default())?;
//!
//! let inputs: HashMap<_, _> = [(x, vec![2.0; 1000])].into_iter().collect();
//! let sim = run_program(&kp, &gpu, &bind, &inputs)?;
//! assert_eq!(sim.array(p.output.unwrap())[0], 6.0);
//! assert!(sim.total_seconds > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod cost;
mod cpu;
mod exec;
mod flat;
mod floor;
mod memory;
pub mod metrics;
mod report;

pub use cost::{kernel_time, memory_floor_seconds, occupancy, KernelCost, KernelTime, LaunchShape};
pub use cpu::{estimate_cpu, random_access_fraction, run_cpu, CpuEstimate};
pub use exec::{
    run_program, run_program_capped, run_program_sanitized, Capped, KernelRun, SanitizerReport,
    SimError, SimResult, WriteConflict,
};
pub use floor::{seconds_floor, seconds_floor_with_inputs, KernelFloor};
pub use memory::{bank_conflicts, coalesce};
pub use metrics::{KernelMetrics, RunCounters, RunMetrics};
pub use report::{kernel_report, BoundBy, Efficiency};

/// Host→device transfer time for `bytes` over the default PCIe link.
pub fn transfer_seconds(bytes: u64) -> f64 {
    multidim_device::PcieSpec::default().transfer_seconds(bytes)
}
