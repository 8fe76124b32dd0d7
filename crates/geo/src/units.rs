//! Strongly typed scalar units.
//!
//! The paper mixes several physical quantities (meters for noise amplitudes
//! and cell sizes, seconds for dwell times, the ε parameter in m⁻¹).
//! Newtypes keep them apart at compile time ([C-NEWTYPE]).
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use crate::error::GeoError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! scalar_unit {
    ($(#[$doc:meta])* $name:ident, $suffix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        #[serde(transparent)]
        pub struct $name(f64);

        impl $name {
            /// Wraps a raw `f64` value.
            ///
            /// The value is not validated here; use the constructors of the
            /// consuming types (grids, LPPMs…) for validated entry points.
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the wrapped value.
            pub const fn as_f64(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns `true` if the wrapped value is finite.
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns the smaller of two values.
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of two values.
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Validates that the value is finite and strictly positive.
            ///
            /// # Errors
            ///
            /// Returns [`GeoError::InvalidLength`] otherwise.
            pub fn expect_positive(self, name: &'static str) -> Result<Self, GeoError> {
                if self.0.is_finite() && self.0 > 0.0 {
                    Ok(self)
                } else {
                    Err(GeoError::InvalidLength { name, value: self.0 })
                }
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", self.0, $suffix)
            }
        }

        impl From<f64> for $name {
            fn from(value: f64) -> Self {
                Self(value)
            }
        }

        impl From<$name> for f64 {
            fn from(value: $name) -> f64 {
                value.0
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }
    };
}

scalar_unit!(
    /// A length in meters.
    ///
    /// Used for distances, noise amplitudes, grid cell sizes and POI
    /// clustering diameters.
    Meters,
    " m"
);

scalar_unit!(
    /// A duration in seconds.
    ///
    /// Used for timestamps, sampling periods and POI dwell times.
    Seconds,
    " s"
);

scalar_unit!(
    /// An angle in decimal degrees.
    Degrees,
    "°"
);

impl Meters {
    /// Converts to kilometers.
    pub fn to_kilometers(self) -> f64 {
        self.0 / 1_000.0
    }
}

impl Seconds {
    /// Creates a duration from minutes.
    pub fn from_minutes(minutes: f64) -> Self {
        Self(minutes * 60.0)
    }

    /// Creates a duration from hours.
    pub fn from_hours(hours: f64) -> Self {
        Self(hours * 3_600.0)
    }

    /// Converts to hours (fractional).
    pub fn to_hours(self) -> f64 {
        self.0 / 3_600.0
    }
}

impl Degrees {
    /// Converts to radians.
    pub fn to_radians(self) -> f64 {
        self.0.to_radians()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves_like_f64() {
        let a = Meters::new(100.0);
        let b = Meters::new(50.0);
        assert_eq!((a + b).as_f64(), 150.0);
        assert_eq!((a - b).as_f64(), 50.0);
        assert_eq!((a * 2.0).as_f64(), 200.0);
        assert_eq!((a / 2.0).as_f64(), 50.0);
        assert_eq!(a / b, 2.0);
        assert_eq!((-a).as_f64(), -100.0);
    }

    #[test]
    fn sums_and_assign_ops() {
        let total: Meters =
            vec![Meters::new(1.0), Meters::new(2.0), Meters::new(3.0)].into_iter().sum();
        assert_eq!(total.as_f64(), 6.0);

        let mut m = Meters::new(1.0);
        m += Meters::new(2.0);
        m -= Meters::new(0.5);
        assert!((m.as_f64() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn conversions() {
        assert_eq!(Meters::new(2_000.0).to_kilometers(), 2.0);
        assert_eq!(Seconds::from_minutes(2.0).as_f64(), 120.0);
        assert_eq!(Seconds::from_hours(1.0).as_f64(), 3_600.0);
        assert!((Degrees::new(180.0).to_radians() - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn expect_positive_validates() {
        assert!(Meters::new(1.0).expect_positive("len").is_ok());
        assert!(Meters::new(0.0).expect_positive("len").is_err());
        assert!(Meters::new(-2.0).expect_positive("len").is_err());
        assert!(Meters::new(f64::NAN).expect_positive("len").is_err());
        assert!(Meters::new(f64::INFINITY).expect_positive("len").is_err());
    }

    #[test]
    fn min_max_abs() {
        let a = Meters::new(-3.0);
        let b = Meters::new(2.0);
        assert_eq!(a.abs().as_f64(), 3.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display_has_suffix() {
        assert_eq!(Meters::new(5.0).to_string(), "5 m");
        assert_eq!(Seconds::new(5.0).to_string(), "5 s");
        assert_eq!(Degrees::new(5.0).to_string(), "5°");
    }

    #[test]
    fn from_into_roundtrip() {
        let m: Meters = 42.0.into();
        let f: f64 = m.into();
        assert_eq!(f, 42.0);
    }
}
