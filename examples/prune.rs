//! Autotune every built-in workload with locality-proof pruning and print
//! how many candidates were discarded without simulation.
//!
//! ```text
//! cargo run --release --example prune
//! ```
//!
//! For each workload: the candidate count, how many were measured, how
//! many were pruned by the proven seconds floor, and the winning cost. The
//! final line totals the sweep with the pruned share of all candidates;
//! CI runs this as a smoke check that the floor stays tight, and it exits
//! non-zero when the share falls below 0.3 (a change that loosens the
//! floor, or silently stops pruning, shows up here). The output is
//! deterministic, and CI compares it byte for byte with
//! `tests/golden/prune.txt`.

use multidim::prelude::*;
use multidim_mapping::TuneOptions;
use multidim_workloads::catalog::catalog;
use std::collections::HashMap;

/// The least share of the catalog's candidates the floor must prune.
const MIN_PRUNED_SHARE: f64 = 0.3;

fn main() {
    let compiler = Compiler::new().checks(false);
    let mut total_candidates = 0usize;
    let mut total_measured = 0usize;
    let mut total_pruned = 0usize;
    let mut workloads_with_pruning = 0usize;

    println!(
        "{:<24} {:>10} {:>10} {:>8} {:>12}",
        "workload", "candidates", "measured", "pruned", "best (s)"
    );
    for e in catalog() {
        let inputs: HashMap<_, _> = e.inputs.clone();
        match compiler.autotune(&e.program, &e.bindings, &inputs, &TuneOptions::default()) {
            Ok((_, result)) => {
                let candidates = result.measured.len() + result.skipped + result.pruned;
                println!(
                    "{:<24} {:>10} {:>10} {:>8} {:>12.3e}",
                    e.name(),
                    candidates,
                    result.measured.len(),
                    result.pruned,
                    result.best_cost
                );
                total_candidates += candidates;
                total_measured += result.measured.len();
                total_pruned += result.pruned;
                if result.pruned > 0 {
                    workloads_with_pruning += 1;
                }
            }
            Err(err) => {
                println!("{:<24} autotune failed: {err}", e.name());
            }
        }
    }
    let share = total_pruned as f64 / total_candidates.max(1) as f64;
    println!(
        "total: {total_candidates} candidates, {total_measured} measured, \
         {total_pruned} pruned ({workloads_with_pruning} workload(s) with pruning); \
         pruned share {share:.3}"
    );
    if share < MIN_PRUNED_SHARE {
        eprintln!("the floor pruned a share of {share:.3}, below {MIN_PRUNED_SHARE}");
        std::process::exit(1);
    }
}
