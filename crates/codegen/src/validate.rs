//! Structural validation of generated kernel programs.
//!
//! Lowering bugs that would crash (or silently corrupt) the simulator are
//! caught here instead: out-of-range locals/buffers/shared arrays,
//! `Break` outside a loop, block synchronization under lane-divergent or
//! non-uniform control flow, and shared-memory budgets. The pipeline runs
//! this after every lowering in debug builds, and the test-suites run it
//! on every workload.

use crate::kernel::{has_sync, KExpr, Kernel, KernelProgram, Stmt};
use std::fmt;

/// A structural defect in a generated kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelError(pub String);

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid kernel: {}", self.0)
    }
}

impl std::error::Error for KernelError {}

/// Validate every kernel of `kp` against `smem_limit` bytes of shared
/// memory per block.
///
/// # Errors
///
/// Returns the first defect found.
pub fn validate_kernels(kp: &KernelProgram, smem_limit: u32) -> Result<(), KernelError> {
    for k in &kp.kernels {
        validate_kernel(kp, k, smem_limit)
            .map_err(|e| KernelError(format!("kernel `{}`: {}", k.name, e.0)))?;
    }
    for c in &kp.children {
        validate_with(kp, c, smem_limit, true)
            .map_err(|e| KernelError(format!("child kernel `{}`: {}", c.name, e.0)))?;
    }
    Ok(())
}

/// Validate a single (host-launched) kernel.
///
/// # Errors
///
/// Returns the first defect found.
pub fn validate_kernel(kp: &KernelProgram, k: &Kernel, smem_limit: u32) -> Result<(), KernelError> {
    validate_with(kp, k, smem_limit, false)
}

fn validate_with(
    kp: &KernelProgram,
    k: &Kernel,
    smem_limit: u32,
    in_child: bool,
) -> Result<(), KernelError> {
    if k.block_threads() == 0 {
        return Err(KernelError("empty thread block".into()));
    }
    if k.block_threads() > 1024 {
        return Err(KernelError(format!(
            "{} threads per block exceeds 1024",
            k.block_threads()
        )));
    }
    if k.smem_bytes() > smem_limit {
        return Err(KernelError(format!(
            "shared memory {}B exceeds the {}B limit",
            k.smem_bytes(),
            smem_limit
        )));
    }
    let checker = Checker { kp, k, in_child };
    checker.stmts(&k.body, 0, false)?;
    Ok(())
}

struct Checker<'a> {
    kp: &'a KernelProgram,
    k: &'a Kernel,
    /// Validating a device-launchable child (nested launches forbidden).
    in_child: bool,
}

impl<'a> Checker<'a> {
    /// `loop_depth` counts enclosing `For`s; `divergent` is true under any
    /// enclosing lane-dependent condition or loop.
    fn stmts(&self, stmts: &[Stmt], loop_depth: u32, divergent: bool) -> Result<(), KernelError> {
        for s in stmts {
            self.stmt(s, loop_depth, divergent)?;
        }
        Ok(())
    }

    fn stmt(&self, s: &Stmt, loop_depth: u32, divergent: bool) -> Result<(), KernelError> {
        match s {
            Stmt::Assign { dst, value } => {
                self.local(*dst)?;
                self.expr(value)
            }
            Stmt::Store { buf, idx, value } => {
                self.buffer(buf.0)?;
                self.expr(idx)?;
                self.expr(value)
            }
            Stmt::AtomicRmw {
                buf,
                idx,
                value,
                capture,
                ..
            } => {
                self.buffer(buf.0)?;
                self.expr(idx)?;
                self.expr(value)?;
                if let Some(c) = capture {
                    self.local(*c)?;
                }
                Ok(())
            }
            Stmt::SmemStore { arr, idx, value } => {
                self.smem(*arr)?;
                self.expr(idx)?;
                self.expr(value)
            }
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
            } => {
                self.local(*var)?;
                self.expr(start)?;
                self.expr(end)?;
                self.expr(step)?;
                // A loop whose bounds depend on the lane is divergent; a
                // sync inside it would deadlock real hardware.
                let lane_dep = lane_dependent(start) || lane_dependent(end) || lane_dependent(step);
                if lane_dep && has_sync(body) {
                    return Err(KernelError(
                        "__syncthreads inside a lane-dependent loop".into(),
                    ));
                }
                self.stmts(body, loop_depth + 1, divergent || lane_dep)
            }
            Stmt::Break => {
                if loop_depth == 0 {
                    return Err(KernelError("break outside any loop".into()));
                }
                Ok(())
            }
            Stmt::If { cond, then, els } => {
                self.expr(cond)?;
                let lane_dep = lane_dependent(cond);
                if lane_dep && (has_sync(then) || has_sync(els)) {
                    return Err(KernelError(
                        "__syncthreads inside a lane-divergent branch".into(),
                    ));
                }
                self.stmts(then, loop_depth, divergent || lane_dep)?;
                self.stmts(els, loop_depth, divergent || lane_dep)
            }
            Stmt::Sync => {
                if divergent {
                    return Err(KernelError(
                        "__syncthreads under divergent control flow".into(),
                    ));
                }
                Ok(())
            }
            Stmt::DeviceMalloc { bytes } => self.expr(bytes),
            Stmt::ChildLaunch {
                kernel,
                extent,
                args,
            } => {
                if self.in_child {
                    return Err(KernelError(
                        "nested device-side launch (child launching a child)".into(),
                    ));
                }
                let child =
                    self.kp.children.get(*kernel as usize).ok_or_else(|| {
                        KernelError(format!("child kernel {kernel} not declared"))
                    })?;
                if args.len() as u32 > child.locals {
                    return Err(KernelError(format!(
                        "child `{}` gets {} launch args but has only {} locals",
                        child.name,
                        args.len(),
                        child.locals
                    )));
                }
                self.expr(extent)?;
                for a in args {
                    self.expr(a)?;
                }
                Ok(())
            }
        }
    }

    fn expr(&self, e: &KExpr) -> Result<(), KernelError> {
        match e {
            KExpr::Imm(_)
            | KExpr::Tid(_)
            | KExpr::Bid(_)
            | KExpr::Bdim(_)
            | KExpr::Gdim(_)
            | KExpr::SizeVal(_) => Ok(()),
            KExpr::Local(l) => self.local(*l),
            KExpr::Load { buf, idx } => {
                self.buffer(buf.0)?;
                self.expr(idx)
            }
            KExpr::SmemLoad { arr, idx } => {
                self.smem(*arr)?;
                self.expr(idx)
            }
            KExpr::Bin(_, a, b) => {
                self.expr(a)?;
                self.expr(b)
            }
            KExpr::Un(_, a) => self.expr(a),
            KExpr::Select(c, t, f) => {
                self.expr(c)?;
                self.expr(t)?;
                self.expr(f)
            }
        }
    }

    fn local(&self, l: u32) -> Result<(), KernelError> {
        if l >= self.k.locals {
            return Err(KernelError(format!(
                "local r{l} out of range (locals = {})",
                self.k.locals
            )));
        }
        Ok(())
    }

    fn buffer(&self, b: u32) -> Result<(), KernelError> {
        if b as usize >= self.kp.buffers.len() {
            return Err(KernelError(format!("buffer b{b} not declared")));
        }
        Ok(())
    }

    fn smem(&self, a: u32) -> Result<(), KernelError> {
        if a as usize >= self.k.smem.len() {
            return Err(KernelError(format!("shared array {a} not declared")));
        }
        Ok(())
    }
}

/// Does the expression's value vary across the lanes of a warp?
/// (`threadIdx` does; locals might — locals are conservatively treated as
/// lane-dependent only when they appear in loop bounds / conditions, which
/// is exactly where this check is applied.)
fn lane_dependent(e: &KExpr) -> bool {
    match e {
        KExpr::Tid(_) => true,
        // Locals are conservatively lane-dependent: most locals hold
        // thread indices.
        KExpr::Local(_) => true,
        KExpr::Imm(_) | KExpr::Bid(_) | KExpr::Bdim(_) | KExpr::Gdim(_) | KExpr::SizeVal(_) => {
            false
        }
        KExpr::Load { idx, .. } => lane_dependent(idx),
        KExpr::SmemLoad { idx, .. } => lane_dependent(idx),
        KExpr::Bin(_, a, b) => lane_dependent(a) || lane_dependent(b),
        KExpr::Un(_, a) => lane_dependent(a),
        KExpr::Select(c, t, f) => lane_dependent(c) || lane_dependent(t) || lane_dependent(f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Axis, BufId, BufferDecl, BufferInit};
    use multidim_ir::Size;

    fn program_with(kernel: Kernel) -> KernelProgram {
        KernelProgram {
            name: "t".into(),
            buffers: vec![BufferDecl {
                name: "b".into(),
                elem_bytes: 4,
                len: Size::from(16),
                init: BufferInit::Zero,
                array: None,
            }],
            kernels: vec![kernel],
            children: vec![],
            notes: vec![],
        }
    }

    fn base_kernel(body: Vec<Stmt>) -> Kernel {
        Kernel {
            name: "k".into(),
            grid: [Size::from(1), Size::from(1), Size::from(1)],
            block: [32, 1, 1],
            smem: vec![],
            locals: 2,
            body,
        }
    }

    #[test]
    fn accepts_well_formed() {
        let k = base_kernel(vec![
            Stmt::Assign {
                dst: 0,
                value: KExpr::Tid(Axis::X),
            },
            Stmt::Store {
                buf: BufId(0),
                idx: KExpr::Local(0),
                value: KExpr::Imm(1.0),
            },
        ]);
        validate_kernels(&program_with(k), 48 * 1024).unwrap();
    }

    #[test]
    fn rejects_out_of_range_local() {
        let k = base_kernel(vec![Stmt::Assign {
            dst: 7,
            value: KExpr::Imm(0.0),
        }]);
        let err = validate_kernels(&program_with(k), 48 * 1024).unwrap_err();
        assert!(err.0.contains("r7"));
    }

    #[test]
    fn rejects_undeclared_buffer() {
        let k = base_kernel(vec![Stmt::Store {
            buf: BufId(3),
            idx: KExpr::Imm(0.0),
            value: KExpr::Imm(0.0),
        }]);
        let err = validate_kernels(&program_with(k), 48 * 1024).unwrap_err();
        assert!(err.0.contains("b3"));
    }

    #[test]
    fn rejects_break_outside_loop() {
        let k = base_kernel(vec![Stmt::Break]);
        let err = validate_kernels(&program_with(k), 48 * 1024).unwrap_err();
        assert!(err.0.contains("break"));
    }

    #[test]
    fn rejects_divergent_sync() {
        let k = base_kernel(vec![Stmt::If {
            cond: KExpr::lt(KExpr::Tid(Axis::X), KExpr::imm(7)),
            then: vec![Stmt::Sync],
            els: vec![],
        }]);
        let err = validate_kernels(&program_with(k), 48 * 1024).unwrap_err();
        assert!(err.0.contains("divergent"), "{err}");
    }

    #[test]
    fn rejects_sync_in_lane_dependent_loop() {
        let k = base_kernel(vec![Stmt::For {
            var: 0,
            start: KExpr::Tid(Axis::X),
            end: KExpr::imm(10),
            step: KExpr::imm(1),
            body: vec![Stmt::Sync],
        }]);
        let err = validate_kernels(&program_with(k), 48 * 1024).unwrap_err();
        assert!(err.0.contains("lane-dependent"), "{err}");
    }

    #[test]
    fn rejects_sync_in_data_dependent_loop() {
        // CSR-style shape: the trip count is loaded per lane
        // (`end = row_ptr[tid+1]`), so lanes exit the loop at different
        // iterations — a barrier anywhere inside, even nested under a
        // uniform branch, would deadlock.
        let k = base_kernel(vec![Stmt::For {
            var: 0,
            start: KExpr::imm(0),
            end: KExpr::Load {
                buf: BufId(0),
                idx: Box::new(KExpr::add(KExpr::Tid(Axis::X), KExpr::imm(1))),
            },
            step: KExpr::imm(1),
            body: vec![Stmt::If {
                cond: KExpr::lt(KExpr::Bid(Axis::X), KExpr::imm(2)),
                then: vec![Stmt::Sync],
                els: vec![],
            }],
        }]);
        let err = validate_kernels(&program_with(k), 48 * 1024).unwrap_err();
        assert!(err.0.contains("lane-dependent"), "{err}");
    }

    #[test]
    fn accepts_uniform_loop_with_sync() {
        let k = base_kernel(vec![Stmt::For {
            var: 0,
            start: KExpr::imm(0),
            end: KExpr::imm(4),
            step: KExpr::imm(1),
            body: vec![Stmt::Sync],
        }]);
        // The loop var is a local (conservatively lane-dependent), but the
        // *bounds* are uniform; only bounds matter.
        validate_kernels(&program_with(k), 48 * 1024).unwrap();
    }

    #[test]
    fn rejects_oversized_block_and_smem() {
        let mut k = base_kernel(vec![]);
        k.block = [1024, 2, 1];
        assert!(validate_kernels(&program_with(k), 48 * 1024).is_err());
        let mut k2 = base_kernel(vec![]);
        k2.smem = vec![crate::kernel::SmemDecl {
            name: "s".into(),
            len: 10_000,
        }];
        assert!(validate_kernels(&program_with(k2), 48 * 1024).is_err());
    }
}
