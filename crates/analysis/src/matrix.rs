//! Small dense matrices.
//!
//! The modeling phase of the framework only ever manipulates tiny matrices
//! (a handful of configuration parameters and dataset properties), so a
//! straightforward row-major `Vec<f64>` implementation with Gaussian
//! elimination and a Jacobi eigen-solver is both sufficient and dependency
//! free.

use crate::error::AnalysisError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use geopriv_analysis::Matrix;
///
/// # fn main() -> Result<(), geopriv_analysis::AnalysisError> {
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// assert_eq!(a.multiply(&b)?, a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a slice of equally-long rows.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::DimensionMismatch`] if rows have different
    /// lengths or the input is empty, and [`AnalysisError::NonFiniteInput`]
    /// if any entry is NaN or infinite.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, AnalysisError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(AnalysisError::DimensionMismatch {
                expected: "at least one non-empty row".to_string(),
                actual: format!("{} rows", rows.len()),
            });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(AnalysisError::DimensionMismatch {
                    expected: format!("row of length {cols}"),
                    actual: format!("row {i} of length {}", row.len()),
                });
            }
            if row.iter().any(|v| !v.is_finite()) {
                return Err(AnalysisError::NonFiniteInput);
            }
            data.extend_from_slice(row);
        }
        Ok(Self { rows: rows.len(), cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({} rows)", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns column `j` as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn column(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column index {j} out of bounds ({} cols)", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self · other`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::DimensionMismatch`] if the inner dimensions disagree.
    pub fn multiply(&self, other: &Matrix) -> Result<Matrix, AnalysisError> {
        if self.cols != other.rows {
            return Err(AnalysisError::DimensionMismatch {
                expected: format!("{} rows", self.cols),
                actual: format!("{} rows", other.rows),
            });
        }
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
        Ok(out)
    }

    /// Matrix-vector product `self · v`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::DimensionMismatch`] if `v.len() != self.cols()`.
    pub fn multiply_vec(&self, v: &[f64]) -> Result<Vec<f64>, AnalysisError> {
        if v.len() != self.cols {
            return Err(AnalysisError::DimensionMismatch {
                expected: format!("vector of length {}", self.cols),
                actual: format!("vector of length {}", v.len()),
            });
        }
        Ok((0..self.rows).map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum()).collect())
    }

    /// Solves the linear system `self · x = b` by Gaussian elimination with
    /// partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::SingularMatrix`] if the matrix is singular and
    /// [`AnalysisError::DimensionMismatch`] for shape errors.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, AnalysisError> {
        if !self.is_square() {
            return Err(AnalysisError::DimensionMismatch {
                expected: "square matrix".to_string(),
                actual: format!("{}x{}", self.rows, self.cols),
            });
        }
        if b.len() != self.rows {
            return Err(AnalysisError::DimensionMismatch {
                expected: format!("rhs of length {}", self.rows),
                actual: format!("rhs of length {}", b.len()),
            });
        }
        let n = self.rows;
        // Augmented copy.
        let mut a = self.data.clone();
        let mut rhs = b.to_vec();

        for col in 0..n {
            // Partial pivot.
            let mut pivot = col;
            let mut best = a[col * n + col].abs();
            for row in (col + 1)..n {
                let candidate = a[row * n + col].abs();
                if candidate > best {
                    best = candidate;
                    pivot = row;
                }
            }
            if best < 1e-12 {
                return Err(AnalysisError::SingularMatrix);
            }
            if pivot != col {
                for j in 0..n {
                    a.swap(col * n + j, pivot * n + j);
                }
                rhs.swap(col, pivot);
            }
            // Eliminate below.
            for row in (col + 1)..n {
                let factor = a[row * n + col] / a[col * n + col];
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[row * n + j] -= factor * a[col * n + j];
                }
                rhs[row] -= factor * rhs[col];
            }
        }
        // Back substitution.
        let mut x = vec![0.0; n];
        for row in (0..n).rev() {
            let mut sum = rhs[row];
            for j in (row + 1)..n {
                sum -= a[row * n + j] * x[j];
            }
            x[row] = sum / a[row * n + row];
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(AnalysisError::SingularMatrix);
        }
        Ok(x)
    }

    /// Computes the sample covariance matrix of a data matrix whose rows are
    /// observations and columns are variables.
    ///
    /// # Errors
    ///
    /// Requires at least two observations.
    pub fn covariance_matrix(&self) -> Result<Matrix, AnalysisError> {
        if self.rows < 2 {
            return Err(AnalysisError::NotEnoughData { required: 2, actual: self.rows });
        }
        let means: Vec<f64> =
            (0..self.cols).map(|j| self.column(j).iter().sum::<f64>() / self.rows as f64).collect();
        let mut cov = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.cols {
            for j in i..self.cols {
                let mut sum = 0.0;
                for r in 0..self.rows {
                    sum += (self[(r, i)] - means[i]) * (self[(r, j)] - means[j]);
                }
                let c = sum / (self.rows - 1) as f64;
                cov[(i, j)] = c;
                cov[(j, i)] = c;
            }
        }
        Ok(cov)
    }

    /// Maximum absolute off-diagonal element of a square matrix.
    ///
    /// Used by the Jacobi eigen-solver as a convergence measure.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn max_off_diagonal(&self) -> f64 {
        assert!(self.is_square(), "max_off_diagonal requires a square matrix");
        let mut best: f64 = 0.0;
        for i in 0..self.rows {
            for j in 0..self.cols {
                if i != j {
                    best = best.max(self[(i, j)].abs());
                }
            }
        }
        best
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "index ({i}, {j}) out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "index ({i}, {j}) out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: &[Vec<f64>]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let a = m(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.rows(), 2);
        assert_eq!(a.cols(), 3);
        assert!(!a.is_square());
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(a.column(2), vec![3.0, 6.0]);
        assert_eq!(a[(0, 1)], 2.0);

        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[vec![]]).is_err());
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Matrix::from_rows(&[vec![f64::NAN]]).is_err());
    }

    #[test]
    fn identity_and_zeros() {
        let i3 = Matrix::identity(3);
        assert_eq!(i3[(0, 0)], 1.0);
        assert_eq!(i3[(0, 1)], 0.0);
        let z = Matrix::zeros(2, 4);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 4);
        assert!(z.row(1).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn transpose_and_multiply() {
        let a = m(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t[(0, 2)], 5.0);

        let b = m(&[vec![7.0, 8.0], vec![9.0, 10.0]]);
        let prod = a.multiply(&b).unwrap();
        assert_eq!(prod.rows(), 3);
        assert_eq!(prod.cols(), 2);
        assert_eq!(prod[(0, 0)], 1.0 * 7.0 + 2.0 * 9.0);
        assert_eq!(prod[(2, 1)], 5.0 * 8.0 + 6.0 * 10.0);

        assert!(b.multiply(&a).is_err()); // 2x2 times 3x2 is invalid

        let identity = Matrix::identity(2);
        assert_eq!(a.multiply(&identity).unwrap(), a);
    }

    #[test]
    fn multiply_vec() {
        let a = m(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.multiply_vec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.multiply_vec(&[1.0]).is_err());
    }

    #[test]
    fn solve_linear_system() {
        // 2x + y = 5 ; x + 3y = 10 -> x = 1, y = 3
        let a = m(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);

        // Needs pivoting (zero on the diagonal).
        let b = m(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let y = b.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(y, vec![3.0, 2.0]);

        // Singular matrix.
        let s = m(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(s.solve(&[1.0, 2.0]), Err(AnalysisError::SingularMatrix));

        // Shape errors.
        let rect = m(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert!(rect.solve(&[1.0, 2.0]).is_err());
        assert!(a.solve(&[1.0]).is_err());
    }

    #[test]
    fn solve_larger_system_verifies_by_substitution() {
        let a = m(&[
            vec![4.0, -2.0, 1.0, 0.5],
            vec![-2.0, 5.0, -1.0, 0.0],
            vec![1.0, -1.0, 6.0, 2.0],
            vec![0.5, 0.0, 2.0, 3.0],
        ]);
        let b = [1.0, -2.0, 3.0, 0.5];
        let x = a.solve(&b).unwrap();
        let back = a.multiply_vec(&x).unwrap();
        for (computed, expected) in back.iter().zip(&b) {
            assert!((computed - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn covariance_matrix_is_symmetric_and_matches_stats() {
        let data =
            m(&[vec![1.0, 10.0], vec![2.0, 8.0], vec![3.0, 13.0], vec![4.0, 9.0], vec![5.0, 15.0]]);
        let cov = data.covariance_matrix().unwrap();
        assert!(cov.is_square());
        assert_eq!(cov[(0, 1)], cov[(1, 0)]);
        let (x, y) = (data.column(0), data.column(1));
        let (mx, my) = (crate::stats::mean(&x).unwrap(), crate::stats::mean(&y).unwrap());
        let expected =
            x.iter().zip(&y).map(|(a, b)| (a - mx) * (b - my)).sum::<f64>() / (x.len() - 1) as f64;
        assert!((cov[(0, 1)] - expected).abs() < 1e-12);
        let var0 = crate::stats::variance(&data.column(0)).unwrap();
        assert!((cov[(0, 0)] - var0).abs() < 1e-12);

        assert!(m(&[vec![1.0, 2.0]]).covariance_matrix().is_err());
    }

    #[test]
    fn max_off_diagonal() {
        let a = m(&[vec![5.0, -3.0], vec![0.5, 7.0]]);
        assert_eq!(a.max_off_diagonal(), 3.0);
        assert_eq!(Matrix::identity(4).max_off_diagonal(), 0.0);
    }

    #[test]
    fn display_contains_all_rows() {
        let a = m(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let s = a.to_string();
        assert!(s.contains("1.0000"));
        assert!(s.contains("4.0000"));
        assert_eq!(s.lines().count(), 2);
    }
}
