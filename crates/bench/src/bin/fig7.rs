//! Regenerates **Figure 7**: Cholesky factorization GFLOP/s — Sympiler
//! (VS-Block / +Low-Level) vs Eigen (simplicial) and CHOLMOD
//! (supernodal), numeric phase only.
//!
//! The paper's headline: Sympiler up to 2.4x over CHOLMOD and 6.3x over
//! Eigen; Eigen's simplicial code does not scale to large matrices;
//! CHOLMOD lags on problems with small supernodes.
//!
//! Two Sympiler bars carry the comparison with CHOLMOD. "strict" is
//! the paper's like-for-like setting — relaxed supernode amalgamation
//! off on both sides (§4.1: "this setting is not enabled in CHOLMOD").
//! "+Low-Level" is the compile default, which amalgamates along etree
//! parent links (`RELAX_FILL = 0.3`, `RELAX_COLS = 16`); its mean
//! supernode width and padded share of `nnz(L)` are deterministic and
//! reported beside the timings. All of it lands in
//! `results/BENCH_fig7.json` for the perf gate.
//!
//! Usage: `cargo run -p sympiler-bench --release --bin fig7 [--test]`

use sympiler_bench::engines::{chol_flops, time_chol_engine, CholEngine};
use sympiler_bench::harness::{geomean, gflops, Table};
use sympiler_bench::perf::PerfReport;
use sympiler_bench::workloads::prepare_suite;
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
        "Figure 7: Cholesky GFLOP/s, numeric phase (higher is better)",
        &[
            "ID",
            "matrix",
            "Eigen",
            "CHOLMOD",
            "Sympiler VS-Block",
            "Sympiler strict",
            "Sympiler +Low-Level",
            "vs Eigen",
            "strict vs CHOLMOD",
            "vs CHOLMOD",
            "mean width",
            "padded",
        ],
    );
    let (mut vs_eigen, mut strict_vs_cholmod, mut vs_cholmod) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut report = PerfReport::new("fig7");
    for p in &problems {
        let flops = chol_flops(p);
        let t_eigen = time_chol_engine(p, CholEngine::Eigen);
        let t_cholmod = time_chol_engine(p, CholEngine::Cholmod);
        let t_vs = time_chol_engine(p, CholEngine::SympilerVsBlock);
        let t_strict = time_chol_engine(p, CholEngine::SympilerStrict);
        let t_full = time_chol_engine(p, CholEngine::SympilerFull);
        let se = t_eigen.as_secs_f64() / t_full.as_secs_f64();
        let ss = t_cholmod.as_secs_f64() / t_strict.as_secs_f64();
        let sc = t_cholmod.as_secs_f64() / t_full.as_secs_f64();
        vs_eigen.push(se);
        strict_vs_cholmod.push(ss);
        vs_cholmod.push(sc);
        // What the default amalgamation did to this pattern.
        let chol = CholEngine::SympilerFull
            .plan(&p.a)
            .expect("sympiler engine");
        let mean_width = chol.partition().avg_width();
        let l_nnz = chol.report().size_of("nnz(L)").expect("reported") as f64;
        let padded_share = chol.padded_zeros() as f64 / l_nnz;
        report.push(&format!("{}:strict_vs_cholmod", p.name), ss);
        report.push(&format!("{}:vs_cholmod", p.name), sc);
        report.push(&format!("{}:mean_width", p.name), mean_width);
        report.push(&format!("{}:padded_share", p.name), padded_share);
        t.row(vec![
            p.id.to_string(),
            p.name.to_string(),
            format!("{:.3}", gflops(flops, t_eigen)),
            format!("{:.3}", gflops(flops, t_cholmod)),
            format!("{:.3}", gflops(flops, t_vs)),
            format!("{:.3}", gflops(flops, t_strict)),
            format!("{:.3}", gflops(flops, t_full)),
            format!("{:.2}x", se),
            format!("{:.2}x", ss),
            format!("{:.2}x", sc),
            format!("{mean_width:.2}"),
            format!("{:.1}%", padded_share * 100.0),
        ]);
    }
    t.emit(Some("fig7.csv"));
    report.write_results().expect("write perf report");
    println!(
        "geomean speedups: vs Eigen {:.2}x (paper: up to 6.3x), vs CHOLMOD {:.2}x strict / {:.2}x default (paper: up to 2.4x, avg 1.5x)",
        geomean(&vs_eigen),
        geomean(&strict_vs_cholmod),
        geomean(&vs_cholmod)
    );
}
