//! Descriptive statistics.

use crate::error::AnalysisError;

fn check_finite(data: &[f64]) -> Result<(), AnalysisError> {
    if data.iter().any(|v| !v.is_finite()) {
        Err(AnalysisError::NonFiniteInput)
    } else {
        Ok(())
    }
}

/// Arithmetic mean of a slice.
///
/// # Errors
///
/// Returns [`AnalysisError::NotEnoughData`] for an empty slice and
/// [`AnalysisError::NonFiniteInput`] if any value is NaN or infinite.
pub fn mean(data: &[f64]) -> Result<f64, AnalysisError> {
    if data.is_empty() {
        return Err(AnalysisError::NotEnoughData { required: 1, actual: 0 });
    }
    check_finite(data)?;
    Ok(data.iter().sum::<f64>() / data.len() as f64)
}

/// Sample variance (Bessel-corrected, `n - 1` denominator).
///
/// # Errors
///
/// Requires at least two samples.
pub fn variance(data: &[f64]) -> Result<f64, AnalysisError> {
    if data.len() < 2 {
        return Err(AnalysisError::NotEnoughData { required: 2, actual: data.len() });
    }
    let m = mean(data)?;
    Ok(data.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (data.len() - 1) as f64)
}

/// Sample standard deviation.
///
/// # Errors
///
/// Requires at least two samples.
pub fn std_dev(data: &[f64]) -> Result<f64, AnalysisError> {
    variance(data).map(f64::sqrt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&data).unwrap(), 5.0);
        assert!((variance(&data).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&data).unwrap() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_and_non_finite_inputs_error() {
        assert!(mean(&[]).is_err());
        assert!(mean(&[1.0, f64::NAN]).is_err());
        assert!(variance(&[1.0]).is_err());
    }

    #[test]
    fn summary_is_consistent() {
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let lo = data.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let m = mean(&data).unwrap();
        assert_eq!(m, 31.0 / 8.0);
        assert!(lo <= m && m <= hi);
        let v = variance(&data).unwrap();
        assert!(v > 0.0);
        assert_eq!(std_dev(&data).unwrap(), v.sqrt());
        assert!(std_dev(&data).unwrap() <= hi - lo);
        assert_eq!(mean(&[4.2]).unwrap(), 4.2);
    }

    #[test]
    fn variance_ignores_shifts_and_scales_quadratically() {
        let data = [1.5, 2.0, 4.5, 7.0];
        let shifted: Vec<f64> = data.iter().map(|v| v + 100.0).collect();
        let scaled: Vec<f64> = data.iter().map(|v| v * 3.0).collect();
        let v = variance(&data).unwrap();
        assert!((variance(&shifted).unwrap() - v).abs() < 1e-9);
        assert!((variance(&scaled).unwrap() - 9.0 * v).abs() < 1e-9);
        assert_eq!(variance(&[2.5, 2.5, 2.5]).unwrap(), 0.0);
    }

    #[test]
    fn spread_needs_two_finite_samples() {
        assert_eq!(variance(&[]), Err(AnalysisError::NotEnoughData { required: 2, actual: 0 }));
        assert_eq!(std_dev(&[1.0]), Err(AnalysisError::NotEnoughData { required: 2, actual: 1 }));
        assert_eq!(variance(&[1.0, f64::INFINITY]), Err(AnalysisError::NonFiniteInput));
        assert_eq!(mean(&[]), Err(AnalysisError::NotEnoughData { required: 1, actual: 0 }));
    }
}
