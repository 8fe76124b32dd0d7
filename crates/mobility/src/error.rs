//! Error type for mobility-data operations.

use geopriv_geo::GeoError;
use std::fmt;

/// Errors produced by the `geopriv-mobility` crate.
#[derive(Debug)]
#[non_exhaustive]
pub enum MobilityError {
    /// A geospatial operation failed.
    Geo(GeoError),
    /// A trace or dataset was empty where data is required.
    EmptyTrace,
    /// A dataset contained no users.
    EmptyDataset,
    /// Records were not ordered by timestamp where ordering is required.
    UnorderedRecords {
        /// Index of the first out-of-order record.
        index: usize,
    },
    /// A timestamp was `NaN` or infinite: it has no place on a timeline.
    NonFiniteTimestamp {
        /// Index of the first non-finite timestamp.
        index: usize,
    },
    /// A generator or parser was configured with an invalid parameter.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the constraint that was violated.
        reason: String,
    },
    /// A line of an input file could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// An I/O error occurred while reading or writing trace files.
    Io(std::io::Error),
}

impl fmt::Display for MobilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MobilityError::Geo(e) => write!(f, "geospatial error: {e}"),
            MobilityError::EmptyTrace => write!(f, "trace contains no records"),
            MobilityError::EmptyDataset => write!(f, "dataset contains no traces"),
            MobilityError::UnorderedRecords { index } => {
                write!(f, "records are not ordered by timestamp (first violation at index {index})")
            }
            MobilityError::NonFiniteTimestamp { index } => {
                write!(f, "timestamp at index {index} is not finite")
            }
            MobilityError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter {name}: {reason}")
            }
            MobilityError::Parse { line, reason } => {
                write!(f, "parse error at line {line}: {reason}")
            }
            MobilityError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for MobilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MobilityError::Geo(e) => Some(e),
            MobilityError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GeoError> for MobilityError {
    fn from(e: GeoError) -> Self {
        MobilityError::Geo(e)
    }
}

impl From<std::io::Error> for MobilityError {
    fn from(e: std::io::Error) -> Self {
        MobilityError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = MobilityError::from(GeoError::EmptyBounds);
        assert!(e.to_string().contains("geospatial"));
        assert!(std::error::Error::source(&e).is_some());

        let t = MobilityError::NonFiniteTimestamp { index: 2 };
        assert_eq!(t.to_string(), "timestamp at index 2 is not finite");

        let p = MobilityError::Parse { line: 3, reason: "bad latitude".into() };
        assert!(p.to_string().contains("line 3"));
        assert!(std::error::Error::source(&p).is_none());

        let io = MobilityError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(io.to_string().contains("i/o"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<MobilityError>();
    }
}
