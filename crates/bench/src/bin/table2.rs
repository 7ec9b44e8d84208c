//! Regenerates **Table 2**: the benchmark matrix set, sorted by nnz.
//!
//! Usage: `cargo run -p sympiler-bench --release --bin table2 [--test]`

use sympiler_bench::harness::Table;
use sympiler_sparse::suite::{suite, SuiteScale};

fn main() {
    let scale = if std::env::args().any(|a| a == "--test") {
        SuiteScale::Test
    } else {
        SuiteScale::Bench
    };
    let mut t = Table::new(
        "Table 2: matrix set (synthetic stand-ins, see sympiler_sparse::suite)",
        &[
            "ID",
            "Name",
            "n (10^3)",
            "nnz(A) (10^6)",
            "family",
            "stands in for",
        ],
    );
    for p in suite(scale) {
        t.row(vec![
            p.id.to_string(),
            p.name.to_string(),
            format!("{:.1}", p.n() as f64 / 1e3),
            format!("{:.3}", p.nnz_full() as f64 / 1e6),
            p.family.to_string(),
            p.stands_in_for.to_string(),
        ]);
    }
    t.emit(Some("table2.csv"));
}
