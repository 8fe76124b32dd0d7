//! Error type for LPPM operations.

use geopriv_mobility::MobilityError;
use std::fmt;

/// Errors produced by the `geopriv-lppm` crate.
#[derive(Debug)]
#[non_exhaustive]
pub enum LppmError {
    /// An LPPM was configured with an invalid parameter value.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
        /// Human-readable description of the constraint.
        reason: &'static str,
    },
    /// The underlying mobility data could not be manipulated (for example
    /// a mechanism released no record of a trace).
    Mobility(MobilityError),
}

impl fmt::Display for LppmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LppmError::InvalidParameter { name, value, reason } => {
                write!(f, "invalid parameter {name} = {value}: {reason}")
            }
            LppmError::Mobility(e) => write!(f, "mobility error: {e}"),
        }
    }
}

impl std::error::Error for LppmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LppmError::Mobility(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MobilityError> for LppmError {
    fn from(e: MobilityError) -> Self {
        LppmError::Mobility(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = LppmError::InvalidParameter {
            name: "epsilon",
            value: -1.0,
            reason: "must be positive",
        };
        assert!(e.to_string().contains("epsilon"));
        assert!(std::error::Error::source(&e).is_none());

        let m = LppmError::from(MobilityError::EmptyTrace);
        assert!(m.to_string().contains("mobility"));
        assert!(std::error::Error::source(&m).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<LppmError>();
    }
}
