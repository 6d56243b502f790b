//! Locality golden: for every catalog program and every candidate of its
//! tuning plan, the locality proofs and the simulator's seconds floors must
//! reproduce the committed digests.
//!
//! Each candidate is lowered and validated exactly as `Compiler::autotune`
//! lowers it. The record then takes, per candidate, every access's
//! segment capacity and transaction bound, every bank-conflict proof's
//! degree, verdict and guard, and the f64 bits of the transaction and
//! seconds bounds — both the summary's and [`seconds_lower_bound`]'s. One
//! line per program holds the counts and an FNV-1a digest of those
//! records. A change to how the proofs are computed must leave every
//! line as it is; a change to what they prove re-records
//! `tests/golden/locality_golden.txt` from the actual record the test
//! writes next to the build's temporary files, and says why.
//!
//! The second record pins `seconds_floor_with_inputs` the same way, in
//! `tests/golden/input_floor.txt`: per program, the candidate count, how
//! many candidates the floor that reads the inputs raises above
//! `seconds_floor` (their kernels' floor times added in launch order), and
//! a digest of every kernel's floor counters and time bits.

#[path = "support/golden.rs"]
mod golden;

use multidim::prelude::*;
use multidim::{locality_of, seconds_lower_bound, LocalityFacts};
use multidim_mapping::TuneOptions;
use multidim_sim::{seconds_floor, seconds_floor_with_inputs, KernelFloor};
use multidim_workloads::catalog::catalog;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/locality_golden.txt");
const INPUT_FLOOR: &str = include_str!("golden/input_floor.txt");

/// One line per catalog program.
fn record() -> String {
    let compiler = Compiler::new();
    let gpu = GpuSpec::tesla_k20c();
    // The prefetch setting `Compiler::autotune` bounds its candidates with.
    let prefetch = CodegenOptions::default().smem_prefetch;
    let mut out = String::new();
    for e in catalog() {
        let prepared = compiler
            .prepare_tune(&e.program, &e.bindings, &TuneOptions::default())
            .unwrap_or_else(|err| panic!("{}: prepare failed: {err}", e.name()));
        let facts = LocalityFacts::of(&prepared.program, &e.bindings);
        let (mut lowered, mut accesses, mut banks) = (0usize, 0usize, 0usize);
        let mut proofs = String::new();
        for (i, cand) in prepared.plan.candidates.iter().enumerate() {
            let Some(kernels) = compiler.lower_candidate(&prepared, &cand.mapping) else {
                let _ = writeln!(proofs, "{i}: not lowered");
                continue;
            };
            lowered += 1;
            let b = &e.bindings;
            let summary = locality_of(&facts, &cand.mapping, &kernels, b, &gpu, prefetch);
            let floor = seconds_lower_bound(&facts, &cand.mapping, &kernels, b, &gpu, prefetch);
            let _ = write!(proofs, "{i}: accesses");
            for a in &summary.accesses {
                let _ = write!(proofs, " {}/{}", a.segment_capacity, a.transactions_lb);
            }
            accesses += summary.accesses.len();
            let _ = write!(proofs, "; banks");
            for bank in summary.smem.iter().flat_map(|k| &k.banks) {
                let _ = write!(
                    proofs,
                    " {:?}/{:?}/{}",
                    bank.degree, bank.conflict_free, bank.guarded
                );
                banks += 1;
            }
            let _ = writeln!(
                proofs,
                "; tx {} seconds {:016x} floor {:016x}",
                summary.tx_lower_bound,
                summary.seconds_lower_bound.to_bits(),
                floor.to_bits()
            );
        }
        let _ = writeln!(
            out,
            "{}: {} candidates, {lowered} lowered, {accesses} accesses, {banks} bank proofs, {:016x}",
            e.name(),
            prepared.plan.candidates.len(),
            golden::fnv1a(proofs.into_bytes())
        );
    }
    out
}

/// One line per catalog program: its candidates, how many of them
/// `seconds_floor_with_inputs` raises above `seconds_floor`, and a digest
/// of every kernel's floor under the inputs.
fn input_floor_record() -> String {
    let compiler = Compiler::new();
    let gpu = GpuSpec::tesla_k20c();
    let summed = |floors: &[KernelFloor]| floors.iter().fold(0.0, |sum, f| sum + f.time.total);
    let mut out = String::new();
    for e in catalog() {
        let prepared = compiler
            .prepare_tune(&e.program, &e.bindings, &TuneOptions::default())
            .unwrap_or_else(|err| panic!("{}: prepare failed: {err}", e.name()));
        let mut raised = 0usize;
        let mut floors = String::new();
        for (i, cand) in prepared.plan.candidates.iter().enumerate() {
            let Some(kernels) = compiler.lower_candidate(&prepared, &cand.mapping) else {
                let _ = writeln!(floors, "{i}: not lowered");
                continue;
            };
            let floor = seconds_floor(&kernels, &gpu, &e.bindings)
                .unwrap_or_else(|err| panic!("{}: {err}", e.name()));
            let read = seconds_floor_with_inputs(&kernels, &gpu, &e.bindings, &e.inputs)
                .unwrap_or_else(|err| panic!("{}: {err}", e.name()));
            raised += usize::from(summed(&read) > summed(&floor));
            let _ = write!(floors, "{i}:");
            for f in &read {
                let t = &f.time;
                let _ = write!(
                    floors,
                    " {:?} {:?} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x};",
                    f.shape,
                    f.cost,
                    t.issue.to_bits(),
                    t.bandwidth.to_bits(),
                    t.latency.to_bits(),
                    t.malloc.to_bits(),
                    t.overhead.to_bits(),
                    t.total.to_bits()
                );
            }
            floors.push('\n');
        }
        let _ = writeln!(
            out,
            "{}: {} candidates, {raised} raised by the inputs, {:016x}",
            e.name(),
            prepared.plan.candidates.len(),
            golden::fnv1a(floors.into_bytes())
        );
    }
    out
}

#[test]
fn locality_proofs_reproduce_the_golden_record_over_every_candidate() {
    golden::check("locality_golden", GOLDEN, &record());
}

#[test]
fn input_floors_reproduce_the_golden_record_over_every_candidate() {
    golden::check("input_floor", INPUT_FLOOR, &input_floor_record());
}
