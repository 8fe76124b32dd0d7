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

/// Minimum of a slice.
///
/// # Errors
///
/// Returns an error for an empty or non-finite slice.
pub fn min(data: &[f64]) -> Result<f64, AnalysisError> {
    if data.is_empty() {
        return Err(AnalysisError::NotEnoughData { required: 1, actual: 0 });
    }
    check_finite(data)?;
    Ok(data.iter().copied().fold(f64::INFINITY, f64::min))
}

/// Maximum of a slice.
///
/// # Errors
///
/// Returns an error for an empty or non-finite slice.
pub fn max(data: &[f64]) -> Result<f64, AnalysisError> {
    if data.is_empty() {
        return Err(AnalysisError::NotEnoughData { required: 1, actual: 0 });
    }
    check_finite(data)?;
    Ok(data.iter().copied().fold(f64::NEG_INFINITY, f64::max))
}

/// Quantile with linear interpolation between closest ranks.
///
/// `q` must lie in `[0, 1]`; `quantile(data, 0.5)` is the median.
///
/// # Errors
///
/// Returns [`AnalysisError::OutOfDomain`] for `q` outside `[0, 1]` and the
/// usual data errors otherwise.
pub fn quantile(data: &[f64], q: f64) -> Result<f64, AnalysisError> {
    if !(0.0..=1.0).contains(&q) || !q.is_finite() {
        return Err(AnalysisError::OutOfDomain { value: q, min: 0.0, max: 1.0 });
    }
    if data.is_empty() {
        return Err(AnalysisError::NotEnoughData { required: 1, actual: 0 });
    }
    check_finite(data)?;
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("values are finite"));
    let pos = q * (sorted.len() - 1) as f64;
    let lower = pos.floor() as usize;
    let upper = pos.ceil() as usize;
    let frac = pos - lower as f64;
    Ok(sorted[lower] * (1.0 - frac) + sorted[upper] * frac)
}

/// Median (the 0.5 quantile).
///
/// # Errors
///
/// Returns an error for an empty or non-finite slice.
pub fn median(data: &[f64]) -> Result<f64, AnalysisError> {
    quantile(data, 0.5)
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
        assert!(min(&[]).is_err());
        assert!(max(&[f64::INFINITY]).is_err());
        assert!(median(&[]).is_err());
    }

    #[test]
    fn quantiles_and_median() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&data, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&data, 1.0).unwrap(), 4.0);
        assert_eq!(median(&data).unwrap(), 2.5);
        assert_eq!(quantile(&data, 0.25).unwrap(), 1.75);
        assert!(quantile(&data, 1.5).is_err());
        assert!(quantile(&data, -0.1).is_err());

        let odd = [5.0, 1.0, 3.0];
        assert_eq!(median(&odd).unwrap(), 3.0);
    }

    #[test]
    fn summary_is_consistent() {
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let (q1, q3) = (quantile(&data, 0.25).unwrap(), quantile(&data, 0.75).unwrap());
        assert_eq!(min(&data).unwrap(), 1.0);
        assert_eq!(max(&data).unwrap(), 9.0);
        assert!(1.0 <= q1 && q1 <= median(&data).unwrap() && median(&data).unwrap() <= q3);
        assert!(q3 <= 9.0);
        assert_eq!(median(&[4.2]).unwrap(), 4.2);
    }
}
