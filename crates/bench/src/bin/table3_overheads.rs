//! Regenerates the **§3.1/§3.2/§4.3 inspection-overhead analysis**: the
//! cost of each symbolic inspector per matrix, with the complexity
//! claims checked empirically:
//!
//! * etree construction: nearly O(|A|)
//! * row-pattern (prune-set) detection: nearly O(|A|) total... O(|L|)
//! * reach-set DFS: proportional to edges traversed + |b|
//! * node-equivalence supernode detection: proportional to nnz(L)
//! * COLAMD and the pruned symbolic LU (unsymmetric suite): roughly
//!   constant ns per nnz(L+U), with the symbolic's adjacency reads
//!   next to the factor size they are bounded by
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

    let mut lu = Table::new(
        "LU inspection overheads, COLAMD order (median of repeated runs)",
        &[
            "ID",
            "matrix",
            "nnz(A)",
            "nnz(L+U)",
            "colamd",
            "lu_symbolic",
            "dfs edges",
            "ns/nnz(L+U)",
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
            p.a.nnz().to_string(),
            factor_nnz.to_string(),
            format!("{:.1} us", t_colamd.as_secs_f64() * 1e6),
            format!("{:.1} us", t_sym.as_secs_f64() * 1e6),
            sym.dfs_edges().to_string(),
            format!(
                "{:.1}",
                (t_colamd + t_sym).as_nanos() as f64 / factor_nnz as f64
            ),
        ]);
    }
    lu.emit(Some("overheads_lu.csv"));
    println!("ns/nnz(L) and ns/nnz(L+U) roughly constant across matrices => near-linear inspection cost (paper's 'nearly O(|A|)')");
}
