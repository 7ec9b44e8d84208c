//! Regenerates the **§3.1/§3.2/§4.3 inspection-overhead analysis**: the
//! cost of each symbolic inspector per matrix, with the complexity
//! claims checked empirically:
//!
//! * etree construction: nearly O(|A|)
//! * row-pattern (prune-set) detection: nearly O(|A|) total... O(|L|)
//! * reach-set DFS: proportional to edges traversed + |b|
//! * node-equivalence supernode detection: proportional to nnz(L)
//! * COLAMD (unsymmetric suite): ns per nnz(A), the size of the
//!   quotient graph it eliminates
//! * the symbolic LU: roughly constant ns per nnz(L+U), with the
//!   traversal that ran (etree up-traversal on a structurally
//!   symmetric pattern, pruned DFS otherwise) and its edge reads next
//!   to the factor size they are bounded by
//!
//! Writes `results/overheads.csv` and — numeric, one row per LU suite
//! problem — `results/table3_overheads.csv`.
//!
//! Usage: `cargo run -p sympiler-bench --release --bin table3_overheads [--test]`

use sympiler_bench::engines::RUNS;
use sympiler_bench::harness::{median_time, Table};
use sympiler_bench::workloads::{ordered_lu_pattern, prepare_lu_suite, prepare_suite};
use sympiler_sparse::suite::SuiteScale;

fn main() {
    let scale = if std::env::args().any(|a| a == "--test") {
        SuiteScale::Test
    } else {
        SuiteScale::Bench
    };
    eprintln!("preparing suite...");
    let problems = prepare_suite(scale);
    let mut t = Table::new(
        "Inspection overheads (median of repeated runs)",
        &[
            "ID",
            "matrix",
            "nnz(A)",
            "nnz(L)",
            "etree",
            "row patterns",
            "supernodes",
            "reach DFS",
            "ns/nnz(L)",
        ],
    );
    for p in &problems {
        let t_etree = median_time(RUNS, || {
            std::hint::black_box(sympiler_graph::etree(&p.a));
        });
        let parent = sympiler_graph::etree(&p.a);
        let t_rows = median_time(RUNS, || {
            std::hint::black_box(sympiler_graph::ereach::row_patterns(&p.a, &parent));
        });
        let sym = sympiler_graph::symbolic_cholesky(&p.a);
        let t_super = median_time(RUNS, || {
            std::hint::black_box(sympiler_graph::supernodes_cholesky(&sym, 64));
        });
        let t_reach = median_time(RUNS, || {
            std::hint::black_box(sympiler_graph::reach(&p.l, p.b.indices()));
        });
        let total = (t_etree + t_rows + t_super + t_reach).as_nanos() as f64 / sym.l_nnz() as f64;
        t.row(vec![
            p.id.to_string(),
            p.name.to_string(),
            p.a.nnz().to_string(),
            sym.l_nnz().to_string(),
            format!("{:.1} us", t_etree.as_secs_f64() * 1e6),
            format!("{:.1} us", t_rows.as_secs_f64() * 1e6),
            format!("{:.1} us", t_super.as_secs_f64() * 1e6),
            format!("{:.1} us", t_reach.as_secs_f64() * 1e6),
            format!("{total:.1}"),
        ]);
    }
    t.emit(Some("overheads.csv"));

    // Numeric cells, units in the header: this CSV is the recorded
    // trajectory of inspection cost. COLAMD works on `A`, so its rate
    // is per entry of `A`; the symbolic factorization's output is the
    // factor pattern, so its rate is per entry of `L + U`.
    let mut lu = Table::new(
        "LU inspection overheads, COLAMD order (median of repeated runs)",
        &[
            "ID",
            "matrix",
            "n",
            "nnz(A)",
            "nnz(L+U)",
            "colamd us",
            "colamd ns/nnz(A)",
            "lu_symbolic us",
            "lu_symbolic ns/nnz(L+U)",
            "strategy",
            "dfs edges",
        ],
    );
    for p in &prepare_lu_suite(scale) {
        let (pivoted, ordered) = ordered_lu_pattern(p);
        let t_colamd = median_time(RUNS, || {
            std::hint::black_box(sympiler_graph::colamd::colamd_ordering(&pivoted));
        });
        let t_sym = median_time(RUNS, || {
            std::hint::black_box(sympiler_graph::lu_symbolic(&ordered));
        });
        let sym = sympiler_graph::lu_symbolic(&ordered);
        let factor_nnz = sym.l_nnz() + sym.u_nnz();
        lu.row(vec![
            p.id.to_string(),
            p.name.to_string(),
            p.a.n_cols().to_string(),
            p.a.nnz().to_string(),
            factor_nnz.to_string(),
            format!("{:.1}", t_colamd.as_secs_f64() * 1e6),
            format!("{:.1}", t_colamd.as_nanos() as f64 / p.a.nnz() as f64),
            format!("{:.1}", t_sym.as_secs_f64() * 1e6),
            format!("{:.1}", t_sym.as_nanos() as f64 / factor_nnz as f64),
            sym.strategy().label().to_string(),
            sym.dfs_edges().to_string(),
        ]);
    }
    lu.emit(Some("table3_overheads.csv"));
    println!("ns/nnz(L), ns/nnz(A) and ns/nnz(L+U) roughly constant across matrices => near-linear inspection cost (paper's 'nearly O(|A|)')");
}
