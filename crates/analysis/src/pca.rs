//! Principal component analysis.
//!
//! Step 1 of the paper's framework selects the dataset properties `d_j` that
//! actually influence the privacy/utility metrics "soundly chosen using a
//! principal component analysis". [`Pca`] implements exactly that: it
//! standardizes a property matrix (rows = users or datasets, columns =
//! candidate properties), extracts the principal components with a Jacobi
//! eigen-solver, and reports per-property loadings so the framework can keep
//! the most influential properties.

use crate::error::AnalysisError;
use crate::matrix::Matrix;
use crate::stats;
use serde::{Deserialize, Serialize};

const JACOBI_MAX_SWEEPS: usize = 100;
const JACOBI_TOLERANCE: f64 = 1e-12;

/// One principal component: its eigenvalue, the fraction of total variance it
/// explains, and its loading on each original variable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrincipalComponent {
    /// Eigenvalue of the (standardized) covariance matrix.
    pub eigenvalue: f64,
    /// Fraction of the total variance explained by this component, in `[0, 1]`.
    pub explained_variance_ratio: f64,
    /// Unit-norm loading vector over the original variables.
    pub loadings: Vec<f64>,
}

/// Result of a principal component analysis.
///
/// # Examples
///
/// ```
/// use geopriv_analysis::pca::Pca;
///
/// # fn main() -> Result<(), geopriv_analysis::AnalysisError> {
/// // Two strongly correlated variables and one independent variable.
/// let data: Vec<Vec<f64>> = (0..30)
///     .map(|i| {
///         let t = i as f64;
///         vec![t, 2.0 * t + (i % 3) as f64, (i % 5) as f64]
///     })
///     .collect();
/// let pca = Pca::fit(&data)?;
/// // The first component captures the shared trend of the first two variables.
/// assert!(pca.components()[0].explained_variance_ratio > 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pca {
    components: Vec<PrincipalComponent>,
    variable_count: usize,
    observation_count: usize,
    means: Vec<f64>,
    std_devs: Vec<f64>,
}

impl Pca {
    /// Fits a PCA on a matrix whose rows are observations and columns are variables.
    ///
    /// Variables are standardized (z-scored) before the analysis, so the
    /// components are those of the correlation matrix — properties measured
    /// in wildly different units (meters, seconds, counts) are comparable.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::NotEnoughData`] with fewer than two observations.
    /// * [`AnalysisError::DimensionMismatch`] for ragged rows.
    /// * [`AnalysisError::NoConvergence`] if the eigen-solver fails (does not
    ///   happen on real symmetric matrices of this size).
    pub fn fit(observations: &[Vec<f64>]) -> Result<Self, AnalysisError> {
        if observations.len() < 2 {
            return Err(AnalysisError::NotEnoughData { required: 2, actual: observations.len() });
        }
        let raw = Matrix::from_rows(observations)?;
        let p = raw.cols();
        let n = raw.rows();

        // Standardize column by column.
        let mut means = Vec::with_capacity(p);
        let mut std_devs = Vec::with_capacity(p);
        let mut standardized_rows = vec![vec![0.0; p]; n];
        for j in 0..p {
            let col = raw.column(j);
            let m = stats::mean(&col)?;
            let s = stats::std_dev(&col)?;
            means.push(m);
            std_devs.push(s);
            for (row, &value) in standardized_rows.iter_mut().zip(&col) {
                row[j] = if s == 0.0 { 0.0 } else { (value - m) / s };
            }
        }
        let standardized = Matrix::from_rows(&standardized_rows)?;
        let cov = standardized.covariance_matrix()?;

        let (eigenvalues, eigenvectors) = jacobi_eigen(&cov)?;

        // Sort by decreasing eigenvalue.
        let mut order: Vec<usize> = (0..p).collect();
        order.sort_by(|&a, &b| eigenvalues[b].partial_cmp(&eigenvalues[a]).expect("finite"));

        let total: f64 = eigenvalues.iter().map(|&v| v.max(0.0)).sum();
        let components = order
            .iter()
            .map(|&idx| {
                let eigenvalue = eigenvalues[idx].max(0.0);
                PrincipalComponent {
                    eigenvalue,
                    explained_variance_ratio: if total > 0.0 { eigenvalue / total } else { 0.0 },
                    loadings: eigenvectors.column(idx),
                }
            })
            .collect();

        Ok(Self { components, variable_count: p, observation_count: n, means, std_devs })
    }

    /// The principal components in order of decreasing explained variance.
    pub fn components(&self) -> &[PrincipalComponent] {
        &self.components
    }

    /// Number of original variables.
    pub fn variable_count(&self) -> usize {
        self.variable_count
    }

    /// Number of observations used for the fit.
    pub fn observation_count(&self) -> usize {
        self.observation_count
    }

    /// Number of components needed to explain at least `threshold` (e.g. 0.9)
    /// of the variance.
    pub fn components_for_variance(&self, threshold: f64) -> usize {
        let mut acc = 0.0;
        for (i, c) in self.components.iter().enumerate() {
            acc += c.explained_variance_ratio;
            if acc >= threshold {
                return i + 1;
            }
        }
        self.components.len()
    }

    /// Importance score of each original variable: the sum over components of
    /// `|loading| · explained_variance_ratio`.
    ///
    /// This is the ranking the framework uses to retain the most influential
    /// dataset properties.
    pub fn variable_importance(&self) -> Vec<f64> {
        let mut scores = vec![0.0; self.variable_count];
        for c in &self.components {
            for (j, &loading) in c.loadings.iter().enumerate() {
                scores[j] += loading.abs() * c.explained_variance_ratio;
            }
        }
        scores
    }

    /// Projects an observation onto the first `k` principal components.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::LengthMismatch`] if the observation length
    /// differs from the fitted variable count.
    pub fn project(&self, observation: &[f64], k: usize) -> Result<Vec<f64>, AnalysisError> {
        if observation.len() != self.variable_count {
            return Err(AnalysisError::LengthMismatch {
                left: observation.len(),
                right: self.variable_count,
            });
        }
        let standardized: Vec<f64> =
            observation
                .iter()
                .enumerate()
                .map(|(j, &v)| {
                    if self.std_devs[j] == 0.0 {
                        0.0
                    } else {
                        (v - self.means[j]) / self.std_devs[j]
                    }
                })
                .collect();
        Ok(self
            .components
            .iter()
            .take(k)
            .map(|c| c.loadings.iter().zip(&standardized).map(|(a, b)| a * b).sum())
            .collect())
    }
}

/// Jacobi eigenvalue iteration for real symmetric matrices.
///
/// Returns `(eigenvalues, eigenvector_matrix)` where column `i` of the matrix
/// is the eigenvector for `eigenvalues[i]`.
fn jacobi_eigen(matrix: &Matrix) -> Result<(Vec<f64>, Matrix), AnalysisError> {
    if !matrix.is_square() {
        return Err(AnalysisError::DimensionMismatch {
            expected: "square matrix".to_string(),
            actual: format!("{}x{}", matrix.rows(), matrix.cols()),
        });
    }
    let n = matrix.rows();
    let mut a = matrix.clone();
    let mut v = Matrix::identity(n);

    for _sweep in 0..JACOBI_MAX_SWEEPS {
        if a.max_off_diagonal() < JACOBI_TOLERANCE {
            let eigenvalues = (0..n).map(|i| a[(i, i)]).collect();
            return Ok((eigenvalues, v));
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[(p, q)];
                if apq.abs() < JACOBI_TOLERANCE {
                    continue;
                }
                let app = a[(p, p)];
                let aqq = a[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                // Rotate A.
                for k in 0..n {
                    let akp = a[(k, p)];
                    let akq = a[(k, q)];
                    a[(k, p)] = c * akp - s * akq;
                    a[(k, q)] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[(p, k)];
                    let aqk = a[(q, k)];
                    a[(p, k)] = c * apk - s * aqk;
                    a[(q, k)] = s * apk + c * aqk;
                }
                // Accumulate eigenvectors.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    if a.max_off_diagonal() < 1e-8 {
        let eigenvalues = (0..n).map(|i| a[(i, i)]).collect();
        Ok((eigenvalues, v))
    } else {
        Err(AnalysisError::NoConvergence { iterations: JACOBI_MAX_SWEEPS })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jacobi_diagonalizes_known_matrix() {
        // Eigenvalues of [[2, 1], [1, 2]] are 1 and 3.
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let (mut values, vectors) = jacobi_eigen(&m).unwrap();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((values[0] - 1.0).abs() < 1e-9);
        assert!((values[1] - 3.0).abs() < 1e-9);
        // Eigenvectors are orthonormal.
        let vt_v = vectors.transpose().multiply(&vectors).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((vt_v[(i, j)] - expected).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn jacobi_rejects_non_square() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert!(jacobi_eigen(&m).is_err());
    }

    #[test]
    fn pca_finds_dominant_direction() {
        // Points along y = 2x with small orthogonal jitter: one dominant component.
        let data: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let t = i as f64 / 10.0;
                let jitter = if i % 2 == 0 { 0.05 } else { -0.05 };
                vec![t + jitter, 2.0 * t - jitter]
            })
            .collect();
        let pca = Pca::fit(&data).unwrap();
        assert_eq!(pca.variable_count(), 2);
        assert_eq!(pca.observation_count(), 100);
        assert!(pca.components()[0].explained_variance_ratio > 0.95);
        let explained: f64 =
            pca.components().iter().take(2).map(|c| c.explained_variance_ratio).sum();
        assert!((explained - 1.0).abs() < 1e-9);
        assert_eq!(pca.components_for_variance(0.9), 1);

        // The dominant loadings have equal magnitude on both (standardized) variables.
        let l = &pca.components()[0].loadings;
        assert!((l[0].abs() - l[1].abs()).abs() < 1e-6);
    }

    #[test]
    fn explained_variance_ratios_sum_to_one() {
        let data: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let t = i as f64;
                vec![t.sin(), (t * 0.7).cos(), t % 5.0, (t * t) % 11.0]
            })
            .collect();
        let pca = Pca::fit(&data).unwrap();
        let total: f64 = pca.components().iter().map(|c| c.explained_variance_ratio).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Components are sorted in decreasing order of explained variance.
        for pair in pca.components().windows(2) {
            assert!(pair[0].explained_variance_ratio >= pair[1].explained_variance_ratio - 1e-12);
        }
    }

    #[test]
    fn constant_variable_gets_no_importance() {
        let data: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, 5.0, (i % 7) as f64]).collect();
        let pca = Pca::fit(&data).unwrap();
        let importance = pca.variable_importance();
        assert_eq!(importance.len(), 3);
        // The constant column cannot carry variance.
        assert!(importance[1] < importance[0]);
        assert!(importance[1] < importance[2]);
    }

    #[test]
    fn projection_reduces_dimension() {
        let data: Vec<Vec<f64>> =
            (0..50).map(|i| vec![i as f64, 2.0 * i as f64 + 1.0, (i % 3) as f64]).collect();
        let pca = Pca::fit(&data).unwrap();
        let projected = pca.project(&[10.0, 21.0, 1.0], 2).unwrap();
        assert_eq!(projected.len(), 2);
        assert!(projected.iter().all(|v| v.is_finite()));
        assert!(pca.project(&[1.0, 2.0], 2).is_err());
    }

    #[test]
    fn pca_requires_at_least_two_observations() {
        assert!(Pca::fit(&[vec![1.0, 2.0]]).is_err());
        assert!(Pca::fit(&[]).is_err());
        assert!(Pca::fit(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }
}
