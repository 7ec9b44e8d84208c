//! Criterion bench for the symbolic inspectors (§4.3 overheads): the
//! near-linear scaling of etree / row-pattern / supernode / reach-set
//! inspection across grid sizes, and of the two LU inspectors that
//! dominate a cold compile across the unsymmetric suite — COLAMD per
//! entry of `A`, the pruned symbolic LU per factor entry.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use sympiler_bench::workloads::{ordered_lu_pattern, prepare_lu_suite};
use sympiler_sparse::gen;
use sympiler_sparse::suite::SuiteScale;

fn bench_inspectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("inspectors");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    for k in [16usize, 32, 48] {
        let a = gen::grid2d_laplacian(k, k, false, 7);
        group.throughput(Throughput::Elements(a.nnz() as u64));
        group.bench_function(BenchmarkId::new("etree", format!("grid{k}x{k}")), |b| {
            b.iter(|| black_box(sympiler_graph::etree(&a)));
        });
        let parent = sympiler_graph::etree(&a);
        group.bench_function(
            BenchmarkId::new("row_patterns", format!("grid{k}x{k}")),
            |b| {
                b.iter(|| black_box(sympiler_graph::ereach::row_patterns(&a, &parent)));
            },
        );
        let sym = sympiler_graph::symbolic_cholesky(&a);
        group.bench_function(
            BenchmarkId::new("supernodes", format!("grid{k}x{k}")),
            |b| {
                b.iter(|| black_box(sympiler_graph::supernodes_cholesky(&sym, 64)));
            },
        );
        let l = sympiler_sparse::CscMatrix::try_new(
            a.n_cols(),
            a.n_cols(),
            sym.l_col_ptr.clone(),
            sym.l_row_idx.clone(),
            vec![1.0; sym.l_nnz()],
        )
        .unwrap();
        let beta: Vec<usize> = (0..a.n_cols()).step_by(97).collect();
        group.bench_function(BenchmarkId::new("reach_dfs", format!("grid{k}x{k}")), |b| {
            b.iter(|| black_box(sympiler_graph::reach(&l, &beta)));
        });
    }
    group.finish();
}

/// Throughput is per unit of the quantity each inspector should be
/// linear in, so a flat printed rate across problems means it is:
/// COLAMD per entry of the `A` it orders, the symbolic factorization
/// per entry of the `L + U` it produces.
fn bench_lu_inspectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("lu_inspectors");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    for p in prepare_lu_suite(SuiteScale::Test) {
        let (pivoted, ordered) = ordered_lu_pattern(&p);
        group.throughput(Throughput::Elements(pivoted.nnz() as u64));
        group.bench_function(BenchmarkId::new("colamd", p.name), |b| {
            b.iter(|| black_box(sympiler_graph::colamd::colamd_ordering(&pivoted)));
        });
        let sym = sympiler_graph::lu_symbolic(&ordered);
        group.throughput(Throughput::Elements((sym.l_nnz() + sym.u_nnz()) as u64));
        group.bench_function(BenchmarkId::new("lu_symbolic", p.name), |b| {
            b.iter(|| black_box(sympiler_graph::lu_symbolic(&ordered)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_inspectors, bench_lu_inspectors);
criterion_main!(benches);
