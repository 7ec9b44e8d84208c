//! The oracle's inputs: the `sparse::gen` families at a fixed seed
//! list, fixed adversarial shapes, and the Matrix Market round trip of
//! the suites.

use sympiler::prelude::*;
use sympiler::sparse::gen;
use sympiler::sparse::io::{read_matrix_market, write_matrix_market, MmSymmetry};

/// The fixed seeds every generator family runs at.
pub const SEEDS: [u64; 3] = [11, 502, 977];

/// Unsymmetric, statically pivotable matrices, n ≤ 40.
pub fn unsym_families() -> Vec<(String, CscMatrix)> {
    let mut cases = Vec::new();
    for (k, &seed) in SEEDS.iter().enumerate() {
        let n = [9, 23, 40][k];
        cases.push((
            format!("random_unsym({n}, 3, {seed})"),
            gen::random_unsym(n, 3, seed),
        ));
        cases.push((
            format!("circuit_unsym({n}, 3, 1, {seed})"),
            gen::circuit_unsym(n, 3, 1, seed),
        ));
        let side = [3, 5, 6][k];
        cases.push((
            format!("convection_diffusion_2d({side}, {side}, 1.5, {seed})"),
            gen::convection_diffusion_2d(side, side, 1.5, seed),
        ));
    }
    cases
}

/// Structurally zero diagonals: only a pre-pivot factors these.
pub fn zero_diag_families() -> Vec<(String, CscMatrix)> {
    let mut cases = Vec::new();
    for (k, &seed) in SEEDS.iter().enumerate() {
        let n = [16, 27, 36][k];
        cases.push((
            format!("circuit_zero_diag({n}, 3, 1, {seed})"),
            gen::circuit_zero_diag(n, 3, 1, seed),
        ));
        let (m, kk) = ([9, 20, 33][k], [2, 5, 8][k]);
        cases.push((
            format!("saddle_point_2x2({m}, {kk}, {seed})"),
            gen::saddle_point_2x2(m, kk, seed),
        ));
    }
    cases
}

/// `n × n` from `(row, col, value)` triplets.
fn from_triplets(n: usize, entries: impl IntoIterator<Item = (usize, usize, f64)>) -> CscMatrix {
    let mut t = TripletMatrix::new(n, n);
    for (i, j, v) in entries {
        t.push(i, j, v);
    }
    t.to_csc().unwrap()
}

/// A dominant diagonal `4 + j` plus `extra` off-diagonal entries with
/// alternating signs.
fn shaped(n: usize, extra: impl IntoIterator<Item = (usize, usize)>) -> CscMatrix {
    let diag = (0..n).map(|j| (j, j, 4.0 + j as f64));
    let off = extra
        .into_iter()
        .enumerate()
        .map(|(k, (i, j))| (i, j, if k % 2 == 0 { -0.5 } else { 0.25 }));
    from_triplets(n, diag.chain(off))
}

/// Shapes a generator rarely draws: the extremes of fill, of
/// dependence depth, of size, and of value.
pub fn adversarial() -> Vec<(String, CscMatrix)> {
    let n = 12;
    let arrow = shaped(n, (1..n).flat_map(|i| [(i, 0), (0, i)]));
    let chain = shaped(n, (1..n).flat_map(|i| [(i, i - 1), (i - 1, i)]));
    let dense_row = shaped(n, (0..n - 1).map(|j| (n - 1, j)));
    let dense_col = shaped(n, (1..n).map(|i| (i, 0)).chain([(0, 5), (3, 7)]));
    let dense = shaped(
        6,
        (0..6).flat_map(|i| (0..6).filter(move |&j| j != i).map(move |j| (i, j))),
    );
    let empty_col = from_triplets(
        n,
        (0..n)
            .filter(|&j| j != 4)
            .flat_map(|j| [(j, j, 3.0), ((j + 1) % n, j, -1.0)]),
    );
    let no_diag_entry = from_triplets(
        n,
        (0..n)
            .filter(|&j| j != 5)
            .map(|j| (j, j, 2.0 + j as f64))
            .chain([(5, 4, 1.5), (4, 5, 2.5), (6, 5, -1.0)]),
    );
    let one = from_triplets(1, [(0, 0, -4.0)]);
    let empty = CscMatrix::zeros(0, 0);
    let diagonal = shaped(6, []);
    let poisoned = |v: f64, at: usize| {
        let mut a = gen::circuit_unsym(20, 3, 1, 5);
        a.values_mut()[at] = v;
        a
    };
    vec![
        ("arrow".into(), arrow),
        ("chain".into(), chain),
        ("dense row".into(), dense_row),
        ("dense column".into(), dense_col),
        ("dense 6x6".into(), dense),
        ("empty column".into(), empty_col),
        ("structurally zero diagonal".into(), no_diag_entry),
        ("1x1".into(), one),
        ("n = 0".into(), empty),
        ("diagonal".into(), diagonal),
        ("one NaN value".into(), poisoned(f64::NAN, 7)),
        ("+Inf and -Inf values".into(), {
            let mut a = poisoned(f64::INFINITY, 3);
            let last = a.nnz() - 1;
            a.values_mut()[last] = f64::NEG_INFINITY;
            a
        }),
    ]
}

/// SPD matrices in lower storage, sizes 0 to 40.
pub fn spd_families() -> Vec<(String, CscMatrix)> {
    let mut cases = vec![
        ("n = 0".into(), CscMatrix::zeros(0, 0)),
        ("1x1".into(), from_triplets(1, [(0, 0, 9.0)])),
    ];
    for (k, &seed) in SEEDS.iter().enumerate() {
        let n = [5, 21, 40][k];
        cases.push((
            format!("random_spd({n}, 3, {seed})"),
            gen::random_spd(n, 3, seed),
        ));
        cases.push((
            format!("banded_spd({n}, 2, {seed})"),
            gen::banded_spd(n, 2, seed),
        ));
        let side = [2, 4, 6][k];
        cases.push((
            format!("grid2d_laplacian({side}, {side}, true, {seed})"),
            gen::grid2d_laplacian(side, side, true, seed),
        ));
    }
    cases
}

/// Lower-triangular matrices with a sparse right-hand side each.
pub fn lower_families() -> Vec<(String, CscMatrix, SparseVec)> {
    let mut cases = Vec::new();
    for (k, &seed) in SEEDS.iter().enumerate() {
        for n in [1 + 7 * k, 20 + 20 * k] {
            let l = gen::random_lower_triangular(n, 1 + k, seed);
            let idx: Vec<usize> = (0..n).filter(|i| (i * 5 + k) % 7 < 2).collect();
            let idx = if idx.is_empty() { vec![n - 1] } else { idx };
            let vals = idx.iter().map(|&i| 1.0 + (i % 3) as f64).collect();
            let b = SparseVec::try_new(n, idx, vals).unwrap();
            cases.push((
                format!("random_lower_triangular({n}, {}, {seed})", 1 + k),
                l,
                b,
            ));
        }
    }
    cases
}

/// `a` written as Matrix Market and read back.
pub fn round_trip(a: &CscMatrix, symmetry: MmSymmetry) -> CscMatrix {
    let mut buf = Vec::new();
    write_matrix_market(&mut buf, a, symmetry).unwrap();
    let back = read_matrix_market(&buf[..]).unwrap().matrix;
    assert_eq!(&back, a, "the round trip keeps every entry");
    back
}
