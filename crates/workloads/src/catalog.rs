//! A flat catalog of every shipped workload program, with representative
//! bindings and inputs.
//!
//! The static analyzer, the sanitizer cross-check, and `examples/lint.rs`
//! all want the same thing: "every program this crate can build, ready to
//! compile and run". Each entry carries a small but non-degenerate problem
//! size — big enough to exercise the multi-level mappings, small enough
//! that running all of them stays fast.

use crate::data::{self, CsrGraph};
use crate::rodinia::Traversal;
use crate::sums::SumKind;
use crate::{apps, pagerank, rodinia, sums};
use multidim_ir::{ArrayId, Bindings, Program};
use std::collections::HashMap;

/// One ready-to-analyze (and ready-to-run) workload instance.
pub struct CatalogEntry {
    /// The program; its `name` field labels reports.
    pub program: Program,
    /// Symbol bindings for the representative problem size.
    pub bindings: Bindings,
    /// Input arrays matching those bindings.
    pub inputs: HashMap<ArrayId, Vec<f64>>,
}

impl CatalogEntry {
    /// The program's name.
    pub fn name(&self) -> &str {
        &self.program.name
    }
}

fn entry(
    program: Program,
    bindings: Bindings,
    inputs: impl IntoIterator<Item = (ArrayId, Vec<f64>)>,
) -> CatalogEntry {
    CatalogEntry {
        program,
        bindings,
        inputs: inputs.into_iter().collect(),
    }
}

/// Every shipped workload program at a representative problem size.
pub fn catalog() -> Vec<CatalogEntry> {
    let mut out = Vec::new();

    // --- sums (Figures 1/3/15) ---
    for kind in [SumKind::Rows, SumKind::Cols] {
        let (p, r, c, m) = sums::sum_program(kind);
        let mut b = Bindings::new();
        b.bind(r, 12);
        b.bind(c, 20);
        out.push(entry(p, b, [(m, data::matrix(12, 20, 42))]));

        let (p, r, c, m, v) = sums::sum_weighted_program(kind);
        let mut b = Bindings::new();
        b.bind(r, 12);
        b.bind(c, 20);
        let wlen = match kind {
            SumKind::Rows => 20,
            SumKind::Cols => 12,
        };
        out.push(entry(
            p,
            b,
            [(m, data::matrix(12, 20, 42)), (v, data::vector(wlen, 7))],
        ));
    }

    // --- Rodinia (Figures 12/13) ---
    let (p, rs, cs, temp, power) = rodinia::hotspot::step_program(Traversal::RowMajor);
    let mut b = Bindings::new();
    b.bind(rs, 12);
    b.bind(cs, 20);
    out.push(entry(
        p,
        b,
        [
            (temp, data::matrix(12, 20, 3)),
            (power, data::matrix(12, 20, 4)),
        ],
    ));

    let (p, cs, src, wall_row) = rodinia::pathfinder::step_program();
    let mut b = Bindings::new();
    b.bind(cs, 20);
    let wall = data::matrix(2, 20, 6);
    out.push(entry(
        p,
        b,
        [(src, wall[..20].to_vec()), (wall_row, wall[20..].to_vec())],
    ));

    let (p, n, k, m) = rodinia::gaussian::fan1_program();
    let mut b = Bindings::new();
    b.bind(n, 12);
    b.bind(k, 3);
    out.push(entry(p, b, [(m, data::spd_matrix(12, 5))]));

    let (p, n, k, m, mult) = rodinia::gaussian::fan2_program(Traversal::RowMajor);
    let mut b = Bindings::new();
    b.bind(n, 12);
    b.bind(k, 3);
    out.push(entry(
        p,
        b,
        [(m, data::spd_matrix(12, 5)), (mult, data::vector(12, 2))],
    ));

    let (p, n, k, m) = rodinia::lud::scale_program();
    let mut b = Bindings::new();
    b.bind(n, 12);
    b.bind(k, 2);
    out.push(entry(p, b, [(m, data::spd_matrix(12, 8))]));

    let (p, n, k, m) = rodinia::lud::update_program();
    let mut b = Bindings::new();
    b.bind(n, 12);
    b.bind(k, 2);
    out.push(entry(p, b, [(m, data::spd_matrix(12, 8))]));

    let (p, rs, cs, img) = rodinia::srad::coeff_program(Traversal::RowMajor);
    let mut b = Bindings::new();
    b.bind(rs, 10);
    b.bind(cs, 14);
    let image: Vec<f64> = data::matrix(10, 14, 9).iter().map(|v| v + 0.5).collect();
    out.push(entry(p, b, [(img, image.clone())]));

    let (p, rs, cs, img, coeff) = rodinia::srad::update_program(Traversal::RowMajor);
    let mut b = Bindings::new();
    b.bind(rs, 10);
    b.bind(cs, 14);
    out.push(entry(
        p,
        b,
        [(img, image), (coeff, data::matrix(10, 14, 2))],
    ));

    let (p, hs, ws) = rodinia::mandelbrot::program(Traversal::RowMajor);
    let mut b = Bindings::new();
    b.bind(hs, 16);
    b.bind(ws, 24);
    out.push(entry(p, b, []));

    let (p, ns, records) = rodinia::nn::program();
    let mut b = Bindings::new();
    b.bind(ns, 100);
    let recs: Vec<f64> = data::matrix(100, 2, 11)
        .iter()
        .map(|v| v * 180.0 - 90.0)
        .collect();
    out.push(entry(p, b, [(records, recs)]));

    let g = CsrGraph::power_law(64, 4, 13);
    let mean = (g.edges / g.nodes.max(1)).max(1) as i64;
    let (p, ns, es, row_ptr, col_idx, fr, vis, _next, cost) = rodinia::bfs::step_program(mean);
    let level = p.symbol_by_name("LEVEL").expect("bfs LEVEL symbol").id;
    let mut b = Bindings::new();
    b.bind(ns, g.nodes as i64);
    b.bind(es, g.edges as i64);
    b.bind(level, 1);
    let mut frontier = vec![0.0; g.nodes];
    let mut visited = vec![0.0; g.nodes];
    frontier[0] = 1.0;
    visited[0] = 1.0;
    out.push(entry(
        p,
        b,
        [
            (row_ptr, g.row_ptr.clone()),
            (col_idx, g.col_idx.clone()),
            (fr, frontier),
            (vis, visited),
            (cost, vec![0.0; g.nodes]),
        ],
    ));

    // --- graph kernels ---
    let g = CsrGraph::power_law(64, 6, 3);
    let mean = (g.edges / g.nodes.max(1)).max(1) as i64;
    let (p, ns, es, row_ptr, col_idx, prev, degree) = pagerank::step_program(mean);
    let mut b = Bindings::new();
    b.bind(ns, g.nodes as i64);
    b.bind(es, g.edges as i64);
    let degrees: Vec<f64> = (0..g.nodes).map(|i| g.degree(i).max(1) as f64).collect();
    out.push(entry(
        p,
        b,
        [
            (row_ptr, g.row_ptr.clone()),
            (col_idx, g.col_idx.clone()),
            (prev, vec![1.0 / g.nodes as f64; g.nodes]),
            (degree, degrees),
        ],
    ));

    let g = CsrGraph::power_law(64, 6, 51);
    let mean = (g.edges / g.nodes.max(1)).max(1) as i64;
    let (p, n, e, row_ptr, col_idx, vals, x) = apps::spmv::program(mean);
    let mut b = Bindings::new();
    b.bind(n, g.nodes as i64);
    b.bind(e, g.edges as i64);
    let vs: Vec<f64> = (0..g.edges).map(|i| 1.0 + (i % 3) as f64 * 0.5).collect();
    let xs: Vec<f64> = (0..g.nodes).map(|i| (i % 7) as f64 * 0.25).collect();
    out.push(entry(
        p,
        b,
        [
            (row_ptr, g.row_ptr.clone()),
            (col_idx, g.col_idx.clone()),
            (vals, vs),
            (x, xs),
        ],
    ));

    // --- irregular / dynamic-parallelism workloads ---
    // Zipf-degree SpMV: 1024 rows × mean 14 = 14,336 inner elements. That
    // clears the 12k work floor, but a mean inner extent below 16 keeps
    // work under 48k inline, so the Auto consolidation policy plans
    // Inline here; the size stays cheap enough for the catalog-sweeping
    // tests and benches. `tests/dynpar.rs` pins that decision's reason.
    let g = CsrGraph::zipf(1024, 16, 1.0, 91);
    let (p, n, e, row_ptr, col_idx, vals, x) = apps::spmv::zipf_program(g.mean_degree());
    let mut b = Bindings::new();
    b.bind(n, g.nodes as i64);
    b.bind(e, g.edges as i64);
    let vs: Vec<f64> = (0..g.edges).map(|i| 1.0 + (i % 3) as f64 * 0.5).collect();
    let xs: Vec<f64> = (0..g.nodes).map(|i| (i % 7) as f64 * 0.25).collect();
    out.push(entry(
        p,
        b,
        [
            (row_ptr, g.row_ptr.clone()),
            (col_idx, g.col_idx.clone()),
            (vals, vs),
            (x, xs),
        ],
    ));

    // Ragged filter-then-map over Zipf segment lengths (the effects-only
    // consolidation site shape), at a small below-threshold size.
    let g = CsrGraph::zipf(192, 6, 1.0, 29);
    let (p, n, e, seg_ptr, data, _out, _counts) = apps::ragged::program(g.mean_degree());
    let mut b = Bindings::new();
    b.bind(n, g.nodes as i64);
    b.bind(e, g.edges as i64);
    out.push(entry(
        p,
        b,
        [
            (seg_ptr, g.row_ptr.clone()),
            (data, apps::ragged::element_data(g.edges)),
        ],
    ));

    // --- applications (Figure 14) ---
    let (points, clusters, dims) = (32, 4, 3);
    let (xs, centroids) = data::trajectories(points, clusters, dims, 77);

    let (p, p_, k_, d_, x, c) = apps::kmeans::assign_program();
    let mut b = Bindings::new();
    b.bind(p_, points as i64);
    b.bind(k_, clusters as i64);
    b.bind(d_, dims as i64);
    out.push(entry(p, b, [(x, xs.clone()), (c, centroids)]));

    let (p, p_, k_, dsel, x, assign) = apps::kmeans::accumulate_program();
    let d_ = p.symbol_by_name("D").expect("kmeans D symbol").id;
    let mut b = Bindings::new();
    b.bind(p_, points as i64);
    b.bind(k_, clusters as i64);
    b.bind(dsel, 1);
    b.bind(d_, dims as i64);
    let assignment = data::indices(points, clusters, 5);
    out.push(entry(p, b, [(x, xs), (assign, assignment.clone())]));

    let (p, p_, k_, assign) = apps::kmeans::count_program();
    let mut b = Bindings::new();
    b.bind(p_, points as i64);
    b.bind(k_, clusters as i64);
    out.push(entry(p, b, [(assign, assignment)]));

    let (frames, clusters, dims) = (16, 4, 3);
    let (fx, fc) = data::trajectories(frames, clusters, dims, 23);
    let (p, p_, k_, d_, x, c) = apps::msm::distance_program();
    let mut b = Bindings::new();
    b.bind(p_, frames as i64);
    b.bind(k_, clusters as i64);
    b.bind(d_, dims as i64);
    out.push(entry(p, b, [(x, fx), (c, fc)]));

    let (p, p_, k_, dist) = apps::msm::assign_program();
    let mut b = Bindings::new();
    b.bind(p_, frames as i64);
    b.bind(k_, clusters as i64);
    out.push(entry(p, b, [(dist, data::matrix(frames, clusters, 12))]));

    let (docs, words) = (16, 32);
    let (m, labels) = data::document_matrix(docs, words, 0.1, 31);
    let (p, d_, w_, m1) = apps::naive_bayes::words_per_doc_program();
    let mut b = Bindings::new();
    b.bind(d_, docs as i64);
    b.bind(w_, words as i64);
    out.push(entry(p, b, [(m1, m.clone())]));

    let (p, d_, w_, m2, lab) = apps::naive_bayes::docs_per_word_program();
    let mut b = Bindings::new();
    b.bind(d_, docs as i64);
    b.bind(w_, words as i64);
    out.push(entry(p, b, [(m2, m), (lab, labels)]));

    let n = 16;
    let (p, ns, ss, q, bvec, perm, x) = apps::qpscd::epoch_program();
    let mut b = Bindings::new();
    b.bind(ns, n as i64);
    b.bind(ss, n as i64);
    let bv: Vec<f64> = data::vector(n, 18).iter().map(|v| v - 0.5).collect();
    out.push(entry(
        p,
        b,
        [
            (q, data::spd_matrix(n, 17)),
            (bvec, bv),
            (perm, data::indices(n, n, 100)),
            (x, vec![0.0; n]),
        ],
    ));

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_complete_and_well_formed() {
        let entries = catalog();
        assert!(entries.len() >= 20, "expected the full workload sweep");
        for e in &entries {
            assert!(!e.name().is_empty());
            // Every input array the program declares is provided.
            for decl in &e.program.arrays {
                if matches!(decl.role, multidim_ir::ArrayRole::Input) {
                    assert!(
                        e.inputs.contains_key(&decl.id),
                        "{}: missing input `{}`",
                        e.name(),
                        decl.name
                    );
                }
            }
        }
        // Names are unique, so reports are unambiguous.
        let mut names: Vec<_> = entries.iter().map(|e| e.name().to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), entries.len());
    }
}
