//! C emission: the **matrix-specialized** triangular-solve emitter
//! reproducing the paper's Figure 1e. Peeled columns become
//! straight-line statements with concrete column-pointer constants;
//! runs of non-peeled reach-set columns become compact loops over the
//! embedded `reachSet` table.
//!
//! This reproduction's generated code is the executable plan
//! ([`crate::plan`]); this emitter is kept as the paper's artifact.
//! `tests/fig1_golden.rs` pins its text and builds and runs it with
//! `cc`.

use std::fmt::Write as _;
use sympiler_sparse::CscMatrix;

/// Emit matrix-specialized triangular-solve C (Figure 1e).
///
/// `reach` must be in a valid topological order; columns whose
/// off-diagonal count exceeds `peel_col_count` are peeled into
/// straight-line code with concrete constants taken from `l`'s column
/// pointers, exactly like the paper's example (threshold 2 there).
pub fn emit_trisolve_c(l: &CscMatrix, reach: &[usize], peel_col_count: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "/* Sympiler-generated sparse triangular solve");
    let _ = writeln!(
        out,
        "   specialized for one {}x{} pattern, reach-set size {} */",
        l.n_rows(),
        l.n_cols(),
        reach.len()
    );
    // Embed the reach set as static data.
    let set: Vec<String> = reach.iter().map(|j| j.to_string()).collect();
    let _ = writeln!(
        out,
        "static const int reachSet[{}] = {{{}}};",
        reach.len(),
        set.join(", ")
    );
    let _ = writeln!(
        out,
        "void trisolve_specialized(const int *Lp, const int *Li, const double *Lx, double *x) {{"
    );
    let mut px = 0usize;
    while px < reach.len() {
        let j = reach[px];
        // Peel columns with more than `peel_col_count` stored nonzeros
        // (the paper's Figure 1e: "columns within the reach-set with
        // more than 2 nonzeros").
        if l.col_nnz(j) > peel_col_count {
            // Peeled: concrete constants, like "x[7] /= Lx[20];".
            let start = l.col_ptr()[j];
            let end = l.col_ptr()[j + 1];
            let _ = writeln!(out, "  x[{j}] /= Lx[{start}]; /* peel col {j} */");
            let _ = writeln!(out, "  #pragma omp simd");
            let _ = writeln!(out, "  for (int p = {}; p < {end}; p++)", start + 1);
            let _ = writeln!(out, "    x[Li[p]] -= Lx[p] * x[{j}];");
            px += 1;
        } else {
            // A run of non-peeled columns: loop over reachSet[px..run).
            let run_start = px;
            while px < reach.len() && l.col_nnz(reach[px]) <= peel_col_count {
                px += 1;
            }
            let _ = writeln!(out, "  for (int px = {run_start}; px < {px}; px++) {{");
            let _ = writeln!(out, "    int j = reachSet[px];");
            let _ = writeln!(out, "    x[j] /= Lx[Lp[j]];");
            let _ = writeln!(out, "    for (int p = Lp[j] + 1; p < Lp[j + 1]; p++)");
            let _ = writeln!(out, "      x[Li[p]] -= Lx[p] * x[j];");
            let _ = writeln!(out, "  }}");
        }
    }
    out.push_str("}\n");
    out
}
