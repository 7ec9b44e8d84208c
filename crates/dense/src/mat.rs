//! Owned column-major dense matrix, used by tests, examples, and the
//! supernodal panel buffers.

/// A column-major dense matrix. `data[j * rows + i]` is entry `(i, j)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMat {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a column-major slice.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Self { rows, cols, data }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i] = v;
    }

    /// The raw column-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The raw mutable column-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Leading dimension (== rows for owned matrices).
    #[inline]
    pub fn lda(&self) -> usize {
        self.rows
    }

    /// Multiply `self * x` into a fresh vector.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        let mut y = vec![0.0; self.rows];
        for j in 0..self.cols {
            let col = &self.data[j * self.rows..(j + 1) * self.rows];
            let xj = x[j];
            for (yi, &aij) in y.iter_mut().zip(col) {
                *yi += aij * xj;
            }
        }
        y
    }

    /// `self * other`.
    pub fn matmul(&self, other: &DenseMat) -> DenseMat {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        let mut c = DenseMat::zeros(self.rows, other.cols);
        for j in 0..other.cols {
            for k in 0..self.cols {
                let b = other.get(k, j);
                if b == 0.0 {
                    continue;
                }
                for i in 0..self.rows {
                    let v = c.get(i, j) + self.get(i, k) * b;
                    c.set(i, j, v);
                }
            }
        }
        c
    }

    /// Transpose (allocates).
    pub fn transpose(&self) -> DenseMat {
        let mut t = DenseMat::zeros(self.cols, self.rows);
        for j in 0..self.cols {
            for i in 0..self.rows {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }

    /// Max absolute difference to another matrix.
    pub fn max_abs_diff(&self, other: &DenseMat) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// A deterministic SPD test matrix: `B B^T + n I` for a pseudo-random
    /// `B` generated from a linear congruential sequence.
    pub fn random_spd(n: usize, seed: u64) -> DenseMat {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let mut b = DenseMat::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                b.set(i, j, next());
            }
        }
        let mut a = b.matmul(&b.transpose());
        for i in 0..n {
            a.set(i, i, a.get(i, i) + n as f64);
        }
        a
    }
}

/// Deterministic test values in (-0.8, 0.9), never exactly zero.
#[cfg(test)]
pub(crate) fn lcg_fill(len: usize, seed: u64) -> Vec<f64> {
    let mut s = seed;
    (0..len)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(11);
            ((s >> 40) as f64) / 1e7 - 0.8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let mut m = DenseMat::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.lda(), 2);
        assert_eq!(m.as_slice()[2 * 2 + 1], 5.0);
    }

    #[test]
    fn from_col_major_layout() {
        // [1 3; 2 4]
        let m = DenseMat::from_col_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 0), 2.0);
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.get(1, 1), 4.0);
    }

    #[test]
    fn matvec_and_matmul_agree() {
        let a = DenseMat::from_col_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let x = vec![5.0, 6.0];
        let y = a.matvec(&x);
        assert_eq!(y, vec![1.0 * 5.0 + 3.0 * 6.0, 2.0 * 5.0 + 4.0 * 6.0]);
        let xm = DenseMat::from_col_major(2, 1, x);
        let ym = a.matmul(&xm);
        assert_eq!(ym.as_slice(), y.as_slice());
    }

    #[test]
    fn transpose_involution() {
        let a = DenseMat::from_col_major(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), a.get(1, 2));
    }

    #[test]
    fn random_spd_is_symmetric_dominantish() {
        let a = DenseMat::random_spd(6, 42);
        for i in 0..6 {
            for j in 0..6 {
                assert!((a.get(i, j) - a.get(j, i)).abs() < 1e-12);
            }
            assert!(a.get(i, i) > 0.0);
        }
        // Deterministic.
        assert_eq!(a, DenseMat::random_spd(6, 42));
    }
}
