//! A structural minimiser for gate failures: it shrinks a failing
//! matrix one step at a time and keeps each step after which the same
//! check still fails, then prints the survivor as a Matrix Market
//! literal ready to paste into a test.
//!
//! The steps, largest first: drop half of the row/column pairs (then a
//! quarter, and so on down to one pair), drop one entry, reset the
//! values to a ramp. It stops when no step keeps the failure.

use super::gate::Failure;
use sympiler::prelude::*;
use sympiler::sparse::io::{write_matrix_market, MmSymmetry};

/// `a` restricted to the rows and columns `keep` (ascending).
fn restrict(a: &CscMatrix, keep: &[usize]) -> CscMatrix {
    let mut new = vec![usize::MAX; a.n_cols()];
    for (k, &old) in keep.iter().enumerate() {
        new[old] = k;
    }
    let mut t = TripletMatrix::new(keep.len(), keep.len());
    for &j in keep {
        for (i, v) in a.col_iter(j) {
            if new[i] != usize::MAX {
                t.push(new[i], new[j], v);
            }
        }
    }
    t.to_csc().unwrap()
}

/// `a` without its `p`-th stored entry.
fn drop_entry(a: &CscMatrix, p: usize) -> CscMatrix {
    let n = a.n_cols();
    let mut t = TripletMatrix::new(n, n);
    for j in 0..n {
        for q in a.col_ptr()[j]..a.col_ptr()[j + 1] {
            if q != p {
                t.push(a.row_idx()[q], j, a.values()[q]);
            }
        }
    }
    t.to_csc().unwrap()
}

/// `a`'s pattern with `n + 1` on the diagonal and `-1`, `-2`, `-3` in
/// turn off it: small exact values that keep the pivots away from
/// zero.
fn ramp(a: &CscMatrix) -> CscMatrix {
    let mut r = a.clone();
    let n = a.n_cols() as f64;
    let mut k = 0;
    for j in 0..a.n_cols() {
        for q in a.col_ptr()[j]..a.col_ptr()[j + 1] {
            r.values_mut()[q] = if a.row_idx()[q] == j {
                n + 1.0
            } else {
                k += 1;
                -(1.0 + (k % 3) as f64)
            };
        }
    }
    r
}

/// The next smaller candidates of `a`, largest step first: without
/// either half of its row/column pairs, then each quarter, and so on
/// down to each single pair; without each entry; with ramp values.
fn candidates(a: &CscMatrix) -> Vec<CscMatrix> {
    let n = a.n_cols();
    let mut out = Vec::new();
    let mut block = n.div_ceil(2);
    while block > 0 {
        for start in (0..n).step_by(block) {
            let keep: Vec<usize> = (0..n)
                .filter(|&j| j < start || j >= start + block)
                .collect();
            out.push(restrict(a, &keep));
        }
        block = if block == 1 { 0 } else { block.div_ceil(2) };
    }
    out.extend((0..a.nnz()).map(|p| drop_entry(a, p)));
    let r = ramp(a);
    if r != *a {
        out.push(r);
    }
    out
}

/// Shrink `a`, on which `gate` fails with `failure`, to a matrix on
/// which no step keeps that check failing. Returns the survivor and
/// its failure.
pub fn minimise(
    a: &CscMatrix,
    failure: Failure,
    gate: impl Fn(&CscMatrix) -> Result<(), Failure>,
) -> (CscMatrix, Failure) {
    let mut current = (a.clone(), failure);
    'shrink: loop {
        for candidate in candidates(&current.0) {
            if let Err(f) = gate(&candidate) {
                if f.check == current.1.check {
                    current = (candidate, f);
                    continue 'shrink;
                }
            }
        }
        return current;
    }
}

/// `a` as a Matrix Market literal whose comments name the failing cell
/// and check.
pub fn literal(a: &CscMatrix, failure: &Failure) -> String {
    let mut buf = Vec::new();
    write_matrix_market(&mut buf, a, MmSymmetry::General).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let (header, body) = text.split_once('\n').unwrap();
    format!(
        "{header}\n% cell: {}\n% check: {}\n% seen: {}\n{body}",
        failure.cell, failure.check, failure.detail
    )
}
