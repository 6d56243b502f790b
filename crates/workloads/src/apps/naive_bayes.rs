//! Naive Bayes spam-classifier training (Figure 14).
//!
//! Two statistics over the same document–term matrix with *opposite*
//! optimal access orders: words-per-document walks rows (sequential in the
//! word index), documents-per-word walks columns (sequential in the
//! document index only if the *outer* pattern is the word). A 1D mapping
//! can satisfy at most one of them; MultiDim flips dimensions per kernel.
//! This experiment also charges the one-time PCIe transfer of the training
//! matrix (Section VI-E).

use crate::data;
use crate::runner::{HostRun, WorkloadError};
use multidim::prelude::*;
use multidim_ir::{ArrayId, ReduceOp, SymId};
use std::collections::HashMap;

/// Kernel 1: `wordsPerDoc[d] = Σ_w m[d][w]`.
pub fn words_per_doc_program() -> (Program, SymId, SymId, ArrayId) {
    let mut b = ProgramBuilder::new("nb_words_per_doc");
    let d = b.sym("D");
    let w = b.sym("W");
    let m = b.input("m", ScalarKind::F32, &[Size::sym(d), Size::sym(w)]);
    let root = b.map(Size::sym(d), |b, doc| {
        b.reduce(Size::sym(w), ReduceOp::Add, |b, word| {
            b.read(m, &[doc.into(), word.into()])
        })
    });
    let p = b
        .finish_map(root, "words_per_doc", ScalarKind::F32)
        .expect("valid nb program");
    (p, d, w, m)
}

/// Kernel 2: per-word spam/ham document counts:
/// `spam[w] = Σ_d m[d][w]·label[d]` (and ham via `1-label`).
pub fn docs_per_word_program() -> (Program, SymId, SymId, ArrayId, ArrayId) {
    let mut b = ProgramBuilder::new("nb_docs_per_word");
    let d = b.sym("D");
    let w = b.sym("W");
    let m = b.input("m", ScalarKind::F32, &[Size::sym(d), Size::sym(w)]);
    let labels = b.input("labels", ScalarKind::F32, &[Size::sym(d)]);
    let root = b.map(Size::sym(w), |b, word| {
        b.reduce(Size::sym(d), ReduceOp::Add, |b, doc| {
            b.read(m, &[doc.into(), word.into()]) * b.read(labels, &[doc.into()])
        })
    });
    let p = b
        .finish_map(root, "spam_counts", ScalarKind::F32)
        .expect("valid nb program");
    (p, d, w, m, labels)
}

/// Result of a training run.
#[derive(Debug, Clone)]
pub struct NbOutcome {
    /// Kernel time only.
    pub gpu_seconds: f64,
    /// Kernel time plus the input-matrix PCIe transfer (Figure 14's
    /// "Data Transfer" stack).
    pub gpu_seconds_with_transfer: f64,
    /// Checksum over both outputs.
    pub checksum: f64,
}

/// Train over a `docs × words` corpus.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn run(strategy: Strategy, docs: usize, words: usize) -> Result<NbOutcome, WorkloadError> {
    let (p1, d1, w1, m1) = words_per_doc_program();
    let (p2, d2, w2, m2, lab2) = docs_per_word_program();
    let (m, labels) = data::document_matrix(docs, words, 0.1, 31);

    let mut run = HostRun::with_strategy(strategy);
    let mut b1 = Bindings::new();
    b1.bind(d1, docs as i64);
    b1.bind(w1, words as i64);
    let i1: HashMap<_, _> = [(m1, m.clone())].into_iter().collect();
    let o1 = run.launch(&p1, &b1, &i1)?;

    let mut b2 = Bindings::new();
    b2.bind(d2, docs as i64);
    b2.bind(w2, words as i64);
    let i2: HashMap<_, _> = [(m2, m.clone()), (lab2, labels)].into_iter().collect();
    let o2 = run.launch(&p2, &b2, &i2)?;

    let gpu_seconds = run.gpu_seconds();
    let transfer = multidim_sim::transfer_seconds((docs * words) as u64 * 4);
    let checksum: f64 =
        o1[&p1.output.unwrap()].iter().sum::<f64>() + o2[&p2.output.unwrap()].iter().sum::<f64>();
    Ok(NbOutcome {
        gpu_seconds,
        gpu_seconds_with_transfer: gpu_seconds + transfer,
        checksum,
    })
}

/// CPU-baseline estimate for both kernels.
pub fn cpu_seconds(docs: usize, words: usize) -> f64 {
    let cpu = CpuSpec::dual_xeon_x5550();
    let (m, labels) = data::document_matrix(docs, words, 0.1, 31);

    let (p1, d1, w1, m1) = words_per_doc_program();
    let mut b1 = Bindings::new();
    b1.bind(d1, docs as i64);
    b1.bind(w1, words as i64);
    let i1: HashMap<_, _> = [(m1, m.clone())].into_iter().collect();
    let (_, e1) = multidim_sim::run_cpu(&p1, &cpu, &b1, &i1).expect("cpu baseline");

    let (p2, d2, w2, m2, lab2) = docs_per_word_program();
    let mut b2 = Bindings::new();
    b2.bind(d2, docs as i64);
    b2.bind(w2, words as i64);
    let i2: HashMap<_, _> = [(m2, m), (lab2, labels)].into_iter().collect();
    let (_, e2) = multidim_sim::run_cpu(&p2, &cpu, &b2, &i2).expect("cpu baseline");
    e1.seconds + e2.seconds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_verify() {
        let (p2, d2, w2, m2, lab2) = docs_per_word_program();
        let mut bind = Bindings::new();
        bind.bind(d2, 20);
        bind.bind(w2, 30);
        let (m, labels) = data::document_matrix(20, 30, 0.2, 31);
        let inputs: HashMap<_, _> = [(m2, m), (lab2, labels)].into_iter().collect();
        let mut run = HostRun::with_strategy(Strategy::MultiDim).verifying();
        run.launch(&p2, &bind, &inputs).unwrap();
    }

    #[test]
    fn opposite_dims_chosen_per_kernel() {
        use multidim_mapping::analyze;
        let gpu = GpuSpec::tesla_k20c();
        let (p1, d1, w1, _) = words_per_doc_program();
        let mut b1 = Bindings::new();
        b1.bind(d1, 2048);
        b1.bind(w1, 4096);
        let a1 = analyze(&p1, &b1, &gpu);
        // Rows walk: inner (word) index sequential -> level 1 on x.
        assert!(a1.decision.level(1).dim.is_x());

        let (p2, d2, w2, _, _) = docs_per_word_program();
        let mut b2 = Bindings::new();
        b2.bind(d2, 2048);
        b2.bind(w2, 4096);
        let a2 = analyze(&p2, &b2, &gpu);
        // Column walk: outer (word) index sequential -> level 0 on x.
        assert!(a2.decision.level(0).dim.is_x());
    }

    #[test]
    fn transfer_included() {
        let nb = run(Strategy::MultiDim, 64, 128).unwrap();
        assert!(nb.gpu_seconds_with_transfer > nb.gpu_seconds);
    }
}
