//! Kernel IR and code generation for the `multidim` framework.
//!
//! Lowers a pattern [`Program`](multidim_ir::Program) plus a
//! [`MappingDecision`](multidim_mapping::MappingDecision) into a
//! [`KernelProgram`]: CUDA-shaped kernels (Section IV-E of the paper) with
//! the Section V optimizations — temporary **preallocation with
//! mapping-directed layout** (no per-thread `malloc`) and **shared-memory
//! prefetch** of outer-level reads in imperfect nests — plus `Split(k)`
//! combiner kernels for cross-block reductions.
//!
//! The produced kernels are executed by `multidim-sim` and can be rendered
//! as CUDA C via [`emit_cuda`] (Figure 9's shape).
//!
//! # Examples
//!
//! ```
//! use multidim_ir::*;
//! use multidim_mapping::analyze;
//! use multidim_codegen::{lower, CodegenOptions, emit_cuda};
//! use multidim_device::GpuSpec;
//!
//! let mut b = ProgramBuilder::new("sumRows");
//! let r = b.sym("R");
//! let c = b.sym("C");
//! let m = b.input("m", ScalarKind::F32, &[Size::sym(r), Size::sym(c)]);
//! let root = b.map(Size::sym(r), |b, row| {
//!     b.reduce(Size::sym(c), ReduceOp::Add, |b, col| {
//!         b.read(m, &[row.into(), col.into()])
//!     })
//! });
//! let p = b.finish_map(root, "out", ScalarKind::F32)?;
//! let mut bind = Bindings::new();
//! bind.bind(r, 4096);
//! bind.bind(c, 4096);
//! let analysis = analyze(&p, &bind, &GpuSpec::tesla_k20c());
//! let kp = lower(&p, &analysis.decision, &CodegenOptions::default())?;
//! let cuda = emit_cuda(&kp);
//! assert!(cuda.contains("__global__"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod cuda;
mod dynpar;
mod fusion;
mod kernel;
mod lower;
mod validate;

pub use cuda::{emit_cuda, emit_kernel};
pub use dynpar::{
    find_site, lower_planned, DynParPlan, LaunchSite, LaunchStrategy, SiteDecision, SiteShape,
    CHILD_BLOCK,
};
pub use fusion::{fuse_map_reduce, substitute_var};
pub use kernel::{
    Axis, BufId, BufferDecl, BufferInit, KExpr, Kernel, KernelProgram, LocalId, SmemDecl, SmemId,
    Stmt,
};
pub use lower::{lower, CodegenOptions, LayoutPolicy, LowerError, TempLayout};
pub use validate::{validate_kernel, validate_kernels, KernelError};
