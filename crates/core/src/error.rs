//! Error type for the configuration framework.

use geopriv_analysis::AnalysisError;
use geopriv_lppm::LppmError;
use geopriv_metrics::MetricError;
use geopriv_mobility::MobilityError;
use std::fmt;

/// Errors produced by the `geopriv-core` configuration framework.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// A framework component was configured with an invalid parameter.
    InvalidConfiguration {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A protection mechanism failed.
    Lppm(LppmError),
    /// A metric evaluation failed.
    Metric(MetricError),
    /// A numerical-analysis step (modeling, inversion, PCA) failed.
    Analysis(AnalysisError),
    /// A mobility-data operation failed.
    Mobility(MobilityError),
    /// The requested objectives cannot be satisfied by any parameter value in
    /// the modeled range.
    Infeasible {
        /// Description of the conflicting constraints.
        reason: String,
    },
    /// A constraint or query referenced a metric id that is not part of the
    /// suite under study.
    UnknownMetric {
        /// The unresolved metric id.
        metric: String,
        /// The ids that are available.
        available: Vec<String>,
    },
    /// A wire-format document (JSON export) could not be parsed or did not
    /// have the expected shape.
    Parse {
        /// What was malformed, with a byte offset or field path.
        reason: String,
    },
    /// An internal invariant of the execution engine was violated — a bug in
    /// the framework (never in the caller's configuration), surfaced as a
    /// typed error instead of a worker panic.
    Internal {
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfiguration { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
            CoreError::Lppm(e) => write!(f, "protection mechanism error: {e}"),
            CoreError::Metric(e) => write!(f, "metric error: {e}"),
            CoreError::Analysis(e) => write!(f, "analysis error: {e}"),
            CoreError::Mobility(e) => write!(f, "mobility error: {e}"),
            CoreError::Infeasible { reason } => write!(f, "objectives are infeasible: {reason}"),
            CoreError::UnknownMetric { metric, available } => {
                write!(f, "unknown metric \"{metric}\" (available: {})", available.join(", "))
            }
            CoreError::Parse { reason } => write!(f, "malformed document: {reason}"),
            CoreError::Internal { reason } => {
                write!(f, "internal framework error (please report): {reason}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Lppm(e) => Some(e),
            CoreError::Metric(e) => Some(e),
            CoreError::Analysis(e) => Some(e),
            CoreError::Mobility(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LppmError> for CoreError {
    fn from(e: LppmError) -> Self {
        CoreError::Lppm(e)
    }
}

impl From<MetricError> for CoreError {
    fn from(e: MetricError) -> Self {
        CoreError::Metric(e)
    }
}

impl From<AnalysisError> for CoreError {
    fn from(e: AnalysisError) -> Self {
        CoreError::Analysis(e)
    }
}

impl From<MobilityError> for CoreError {
    fn from(e: MobilityError) -> Self {
        CoreError::Mobility(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::InvalidConfiguration { reason: "no sweep points".into() };
        assert!(e.to_string().contains("no sweep points"));
        assert!(std::error::Error::source(&e).is_none());

        let e = CoreError::from(AnalysisError::NotInvertible);
        assert!(e.to_string().contains("analysis"));
        assert!(std::error::Error::source(&e).is_some());

        let e = CoreError::from(MobilityError::EmptyDataset);
        assert!(std::error::Error::source(&e).is_some());
        let e = CoreError::from(MetricError::DatasetMismatch { reason: "x".into() });
        assert!(std::error::Error::source(&e).is_some());
        let e = CoreError::from(LppmError::from(MobilityError::EmptyTrace));
        assert!(std::error::Error::source(&e).is_some());

        let e = CoreError::Infeasible { reason: "privacy and utility conflict".into() };
        assert!(e.to_string().contains("infeasible"));

        let e = CoreError::UnknownMetric {
            metric: "typo-metric".into(),
            available: vec!["poi-retrieval".into(), "area-coverage".into()],
        };
        assert!(e.to_string().contains("typo-metric"));
        assert!(e.to_string().contains("poi-retrieval"));
        assert!(std::error::Error::source(&e).is_none());

        let e = CoreError::Parse { reason: "expected ':' (at byte 7)".into() };
        assert!(e.to_string().contains("malformed document"));
        assert!(e.to_string().contains("at byte 7"));
        assert!(std::error::Error::source(&e).is_none());

        let e = CoreError::Internal { reason: "a work slot was never filled".into() };
        assert!(e.to_string().contains("internal framework error"));
        assert!(e.to_string().contains("never filled"));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<CoreError>();
    }
}
