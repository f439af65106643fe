//! Dense linear algebra: matrices, LU decomposition, solves and inverses.
//!
//! Portfolio selection (paper §4.4) needs `Σ⁻¹` for covariance matrices of
//! at most a few hundred hosts, so a straightforward `O(n³)` LU with partial
//! pivoting is more than adequate — and has no dependencies.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// A row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix-vector product `A·x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "mul_vec dimension mismatch");
        let mut out = vec![0.0; self.rows];
        for (r, out_r) in out.iter_mut().enumerate() {
            let row = self.row(r);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *out_r = acc;
        }
        out
    }

    /// Matrix product `A·B`.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn mul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "mul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// LU decomposition with partial pivoting. Returns `None` if the matrix
    /// is singular (a pivot underflows) or non-square.
    pub fn lu(&self) -> Option<Lu> {
        if self.rows != self.cols {
            return None;
        }
        let n = self.rows;
        let mut lu = self.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for col in 0..n {
            // Pivot: largest absolute value in this column at/below diagonal.
            let mut pivot_row = col;
            let mut pivot_val = lu[col * n + col].abs();
            for r in (col + 1)..n {
                let v = lu[r * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-300 {
                return None;
            }
            if pivot_row != col {
                for j in 0..n {
                    lu.swap(col * n + j, pivot_row * n + j);
                }
                perm.swap(col, pivot_row);
            }
            let pivot = lu[col * n + col];
            for r in (col + 1)..n {
                let factor = lu[r * n + col] / pivot;
                lu[r * n + col] = factor;
                for j in (col + 1)..n {
                    lu[r * n + j] -= factor * lu[col * n + j];
                }
            }
        }
        Some(Lu { n, lu, perm })
    }

    /// Solve `A·x = b` via LU. `None` when singular.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        self.lu().map(|lu| lu.solve(b))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  [")?;
            for c in 0..self.cols {
                write!(f, "{:>10.4}", self[(r, c)])?;
                if c + 1 < self.cols {
                    write!(f, ", ")?;
                }
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

/// The result of an LU decomposition with partial pivoting: `P·A = L·U`.
pub struct Lu {
    n: usize,
    /// Combined storage: strictly-lower = L (unit diagonal implied), upper = U.
    lu: Vec<f64>,
    perm: Vec<usize>,
}

impl Lu {
    /// Solve `A·x = b` using forward/back substitution.
    ///
    /// # Panics
    /// Panics if `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "solve dimension mismatch");
        let n = self.n;
        // Apply permutation, then Ly = Pb.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut acc = b[self.perm[i]];
            for (j, yj) in y.iter().enumerate().take(i) {
                acc -= self.lu[i * n + j] * yj;
            }
            y[i] = acc;
        }
        // Ux = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut acc = y[i];
            for (j, xj) in x.iter().enumerate().take(n).skip(i + 1) {
                acc -= self.lu[i * n + j] * xj;
            }
            x[i] = acc / self.lu[i * n + i];
        }
        x
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() <= eps
    }

    /// A `rows × cols` matrix from row-major `data`.
    fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols);
        Matrix { rows, cols, data }
    }

    #[test]
    fn identity_solve_is_identity() {
        let a = Matrix::identity(4);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(a.solve(&b).unwrap(), b);
    }

    #[test]
    fn known_solve() {
        // 2x + y = 5 ; x + 3y = 10  ->  x = 1, y = 3
        let a = from_rows(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!(approx(x[0], 1.0, 1e-12));
        assert!(approx(x[1], 3.0, 1e-12));
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the leading diagonal forces a row swap.
        let a = from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_matrix_rejected() {
        let a = from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(a.lu().is_none());
        assert!(a.solve(&[1.0, 1.0]).is_none());
    }

    #[test]
    fn mul_vec_and_mul_agree() {
        let a = from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = vec![1.0, 0.5, -1.0];
        let via_vec = a.mul_vec(&x);
        let xm = from_rows(3, 1, x);
        let via_mat = a.mul(&xm);
        assert!(approx(via_vec[0], via_mat[(0, 0)], 1e-12));
        assert!(approx(via_vec[1], via_mat[(1, 0)], 1e-12));
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mul_vec_bad_shape_panics() {
        Matrix::identity(3).mul_vec(&[1.0, 2.0]);
    }

    #[test]
    fn ill_conditioned_hilbert_still_solves() {
        // Hilbert 5x5 is ill-conditioned but far from numerically singular.
        let n = 5;
        let mut h = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                h[(i, j)] = 1.0 / ((i + j + 1) as f64);
            }
        }
        let x_true = vec![1.0; n];
        let b = h.mul_vec(&x_true);
        let x = h.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!(approx(*xi, *ti, 1e-6), "{xi} vs {ti}");
        }
    }
}
