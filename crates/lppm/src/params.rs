//! Configuration-parameter types shared by the mechanisms.

use crate::error::LppmError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The ε parameter of Geo-Indistinguishability, in inverse meters (m⁻¹).
///
/// ε quantifies the privacy budget per unit of distance: "the lower the ε,
/// the higher the noise". Typical values in the paper's sweep range from
/// 10⁻⁴ m⁻¹ (kilometric noise) to 1 m⁻¹ (metric noise).
///
/// # Examples
///
/// ```
/// use geopriv_lppm::Epsilon;
///
/// # fn main() -> Result<(), geopriv_lppm::LppmError> {
/// let eps = Epsilon::new(0.01)?;
/// assert_eq!(eps.value(), 0.01);
/// // The expected noise radius of GEO-I is 2/ε.
/// assert_eq!(eps.expected_noise_radius_m(), 200.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Epsilon(f64);

impl Epsilon {
    /// Creates an ε value.
    ///
    /// # Errors
    ///
    /// Returns [`LppmError::InvalidParameter`] unless the value is finite and
    /// strictly positive.
    pub fn new(value: f64) -> Result<Self, LppmError> {
        if value.is_finite() && value > 0.0 {
            Ok(Self(value))
        } else {
            Err(LppmError::InvalidParameter {
                name: "epsilon",
                value,
                reason: "epsilon must be finite and strictly positive (in m^-1)",
            })
        }
    }

    /// The raw value in m⁻¹.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// The mean distance of the planar-Laplace noise this ε induces: `2/ε` meters.
    pub fn expected_noise_radius_m(self) -> f64 {
        2.0 / self.0
    }
}

impl fmt::Display for Epsilon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ε = {} m⁻¹", self.0)
    }
}

impl TryFrom<f64> for Epsilon {
    type Error = LppmError;

    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Epsilon::new(value)
    }
}

impl From<Epsilon> for f64 {
    fn from(eps: Epsilon) -> f64 {
        eps.0
    }
}

/// Description of one configuration parameter of an LPPM: its name and
/// valid range.
///
/// This is the machine-readable contract the configuration framework uses to
/// sweep a mechanism without knowing anything about its internals. Every
/// parameter is logarithmic, as ε is in the paper: it is swept
/// geometrically and each metric is modeled as a function of its logarithm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParameterDescriptor {
    name: String,
    min: f64,
    max: f64,
}

impl ParameterDescriptor {
    /// Creates a parameter descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`LppmError::InvalidParameter`] if the range is empty, not
    /// finite, or not strictly positive.
    pub fn new(name: impl Into<String>, min: f64, max: f64) -> Result<Self, LppmError> {
        if !(min.is_finite() && max.is_finite() && min < max) {
            return Err(LppmError::InvalidParameter {
                name: "range",
                value: min,
                reason: "parameter range must be finite and non-empty",
            });
        }
        if min <= 0.0 {
            return Err(LppmError::InvalidParameter {
                name: "range",
                value: min,
                reason: "logarithmic parameters must have a strictly positive range",
            });
        }
        Ok(Self { name: name.into(), min, max })
    }

    /// The axis default, the value a multi-axis sweep holds this parameter at
    /// while other axes vary (see [`crate::ConfigSpace::one_at_a_time`]): the
    /// geometric midpoint of the range.
    pub fn default_value(&self) -> f64 {
        (self.min * self.max).sqrt()
    }

    /// The parameter name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Lower bound of the valid range.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Upper bound of the valid range.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Returns `true` if `value` lies inside the valid range.
    pub fn contains(&self, value: f64) -> bool {
        value.is_finite() && value >= self.min && value <= self.max
    }

    /// Generates `count` sweep values across the range, spaced geometrically.
    ///
    /// Both endpoints are included *exactly*: the formula
    /// `min * (max / min).powf(t)` drifts off `max` by a few ULPs at `t = 1`,
    /// which would make the last sweep value fall outside the descriptor's
    /// own range. `count` is clamped to at least 2.
    pub fn sweep(&self, count: usize) -> Vec<f64> {
        let count = count.max(2);
        let last = count - 1;
        (0..count)
            .map(|i| {
                if i == 0 {
                    self.min
                } else if i == last {
                    self.max
                } else {
                    self.min * (self.max / self.min).powf(i as f64 / last as f64)
                }
            })
            .collect()
    }

    /// Returns a copy of the descriptor under a different name (same range)
    /// — used by `PipelineFactory` in `geopriv-core` to qualify colliding
    /// stage parameter names.
    #[must_use]
    pub fn with_name(&self, name: impl Into<String>) -> Self {
        Self { name: name.into(), ..self.clone() }
    }

    /// A stable token encoding the descriptor's name and range, for use in
    /// cache keys (two systems sweeping the same mechanism over different
    /// ranges must not be conflated). The trailing `:log` names the axis
    /// scale; it is part of every stored cache key, so it stays.
    pub fn cache_token(&self) -> String {
        format!("{}:{:e}..{:e}:log", self.name, self.min, self.max)
    }
}

impl fmt::Display for ParameterDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ∈ [{}, {}] (log)", self.name, self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_validation() {
        assert!(Epsilon::new(0.01).is_ok());
        assert!(Epsilon::new(0.0).is_err());
        assert!(Epsilon::new(-1.0).is_err());
        assert!(Epsilon::new(f64::NAN).is_err());
        assert!(Epsilon::new(f64::INFINITY).is_err());
        assert!(Epsilon::try_from(0.5).is_ok());
        let eps = Epsilon::new(0.02).unwrap();
        assert_eq!(f64::from(eps), 0.02);
        assert!(eps.to_string().contains("0.02"));
    }

    #[test]
    fn expected_noise_radius_is_two_over_epsilon() {
        assert_eq!(Epsilon::new(0.01).unwrap().expected_noise_radius_m(), 200.0);
        assert_eq!(Epsilon::new(0.1).unwrap().expected_noise_radius_m(), 20.0);
    }

    #[test]
    fn descriptor_validation() {
        assert!(ParameterDescriptor::new("epsilon", 1e-4, 1.0).is_ok());
        assert!(ParameterDescriptor::new("epsilon", 1.0, 1.0).is_err());
        assert!(ParameterDescriptor::new("epsilon", 2.0, 1.0).is_err());
        assert!(ParameterDescriptor::new("epsilon", 0.0, 1.0).is_err());
        assert!(ParameterDescriptor::new("epsilon", -1.0, 1.0).is_err());
        assert!(ParameterDescriptor::new("epsilon", f64::NAN, 1.0).is_err());
    }

    #[test]
    fn descriptor_accessors_and_contains() {
        let d = ParameterDescriptor::new("cell", 50.0, 1000.0).unwrap();
        assert_eq!(d.name(), "cell");
        assert_eq!(d.min(), 50.0);
        assert_eq!(d.max(), 1000.0);
        assert!(d.contains(50.0) && d.contains(1000.0) && d.contains(300.0));
        assert!(!d.contains(10.0) && !d.contains(2000.0) && !d.contains(f64::NAN));
        assert!(d.to_string().contains("cell"));
    }

    #[test]
    fn logarithmic_sweep_is_geometric() {
        // The paper's sweep: epsilon from 1e-4 to 1 on a log scale.
        let d = ParameterDescriptor::new("epsilon", 1e-4, 1.0).unwrap();
        let sweep = d.sweep(5);
        assert_eq!(sweep.len(), 5);
        // Endpoints are pinned exactly, not merely within a tolerance.
        assert_eq!(sweep[0], 1e-4);
        assert_eq!(sweep[4], 1.0);
        // Constant ratio between consecutive points.
        let r1 = sweep[1] / sweep[0];
        let r2 = sweep[3] / sweep[2];
        assert!((r1 - r2).abs() < 1e-9);
        assert!((r1 - 10.0).abs() < 1e-9);
        assert_eq!(d.sweep(0).len(), 2);
    }

    #[test]
    fn sweep_endpoints_are_exact_for_any_range() {
        // Ranges whose ratio is not a power of two drift off the exact
        // endpoint under `min * ratio.powf(1.0)`.
        let ranges = [(1e-4, 1.0), (0.1, 0.3), (3e-3, 7e-1), (1.0, 9999.0), (2.5e-5, 0.123)];
        for &(min, max) in &ranges {
            let d = ParameterDescriptor::new("p", min, max).unwrap();
            for count in [2, 3, 7, 25, 100] {
                let sweep = d.sweep(count);
                assert_eq!(sweep[0], min, "{min}..{max} x{count}");
                assert_eq!(*sweep.last().unwrap(), max, "{min}..{max} x{count}");
                // Every sweep value lies inside the descriptor's range.
                assert!(sweep.iter().all(|&v| d.contains(v)));
            }
        }
    }

    #[test]
    fn display_and_cache_token_share_the_scale_token() {
        let log = ParameterDescriptor::new("epsilon", 1e-4, 1.0).unwrap();
        assert_eq!(log.to_string(), "epsilon ∈ [0.0001, 1] (log)");
        assert_eq!(log.cache_token(), "epsilon:1e-4..1e0:log");
    }

    #[test]
    fn defaults_fall_back_to_the_scale_aware_midpoint() {
        let log = ParameterDescriptor::new("epsilon", 1e-4, 1.0).unwrap();
        assert!((log.default_value() - 0.01).abs() < 1e-12); // geometric midpoint
        let cell = ParameterDescriptor::new("cell", 50.0, 5000.0).unwrap();
        assert_eq!(cell.default_value(), 500.0);
        // Qualifying the name keeps the default.
        assert_eq!(cell.with_name("1.cell").default_value(), 500.0);
    }

    #[test]
    fn cache_token_distinguishes_configurations() {
        let a = ParameterDescriptor::new("epsilon", 1e-4, 1.0).unwrap();
        let b = ParameterDescriptor::new("epsilon", 1e-3, 1.0).unwrap();
        let c = ParameterDescriptor::new("eps", 1e-4, 1.0).unwrap();
        assert_ne!(a.cache_token(), b.cache_token());
        assert_ne!(a.cache_token(), c.cache_token());
        assert_eq!(a.cache_token(), a.clone().cache_token());
        assert!(a.cache_token().contains("epsilon"));
    }
}
