//! Criterion bench for ablation A1: specialized unrolled
//! kernels vs the generic mini-BLAS tier on small blocks — the §4.2
//! argument that "BLAS routines are not well-optimized for small dense
//! kernels".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use sympiler_dense::small::{gemv_sub_small, potrf_small, trsv_small};
use sympiler_dense::{gemv_sub, potrf_lower, trsv_lower, DenseMat};

fn bench_small_blocks(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_kernels");
    group.sample_size(30);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    for n in [2usize, 3, 4, 8, 16] {
        let spd = DenseMat::random_spd(n, n as u64);
        group.bench_function(BenchmarkId::new("potrf_generic", n), |b| {
            b.iter(|| {
                let mut a = spd.as_slice().to_vec();
                potrf_lower(n, &mut a, n).unwrap();
                black_box(&a);
            });
        });
        group.bench_function(BenchmarkId::new("potrf_specialized", n), |b| {
            b.iter(|| {
                let mut a = spd.as_slice().to_vec();
                potrf_small(n, &mut a, n).unwrap();
                black_box(&a);
            });
        });

        let mut l = spd.as_slice().to_vec();
        potrf_lower(n, &mut l, n).unwrap();
        let rhs: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        group.bench_function(BenchmarkId::new("trsv_generic", n), |b| {
            b.iter(|| {
                let mut x = rhs.clone();
                trsv_lower(n, &l, n, &mut x);
                black_box(&x);
            });
        });
        group.bench_function(BenchmarkId::new("trsv_specialized", n), |b| {
            b.iter(|| {
                let mut x = rhs.clone();
                trsv_small(n, &l, n, &mut x);
                black_box(&x);
            });
        });
    }
    // Tall-skinny panel GEMV (the trisolve off-diagonal update shape).
    for k in [1usize, 2, 4] {
        let m = 64;
        let a = DenseMat::random_spd(m, 3);
        let x: Vec<f64> = (0..k).map(|i| 1.0 + i as f64).collect();
        group.bench_function(BenchmarkId::new("panel_gemv_generic", k), |b| {
            let mut y = vec![0.0; m];
            b.iter(|| {
                gemv_sub(m, k, a.as_slice(), m, &x, &mut y);
                black_box(&y);
            });
        });
        group.bench_function(BenchmarkId::new("panel_gemv_specialized", k), |b| {
            let mut y = vec![0.0; m];
            b.iter(|| {
                gemv_sub_small(m, k, a.as_slice(), m, &x, &mut y);
                black_box(&y);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_small_blocks);
criterion_main!(benches);
