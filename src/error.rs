//! The unified error type of the `geopriv` facade.

use geopriv_analysis::AnalysisError;
use geopriv_core::CoreError;
use geopriv_lppm::LppmError;
use geopriv_metrics::MetricError;
use geopriv_mobility::MobilityError;
use std::fmt;

/// Any error the `geopriv` workspace can produce, so facade call chains
/// ([`crate::AutoConf`]) propagate with one `?` regardless of which layer
/// failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A configuration-framework step failed (sweep, modeling, inversion).
    Core(CoreError),
    /// A metric evaluation or suite-construction step failed.
    Metrics(MetricError),
    /// A protection mechanism failed.
    Lppm(LppmError),
    /// A numerical-analysis step failed.
    Analysis(AnalysisError),
    /// A mobility-data operation failed.
    Mobility(MobilityError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Core(e) => write!(f, "{e}"),
            Error::Metrics(e) => write!(f, "{e}"),
            Error::Lppm(e) => write!(f, "{e}"),
            Error::Analysis(e) => write!(f, "{e}"),
            Error::Mobility(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Core(e) => Some(e),
            Error::Metrics(e) => Some(e),
            Error::Lppm(e) => Some(e),
            Error::Analysis(e) => Some(e),
            Error::Mobility(e) => Some(e),
        }
    }
}

impl From<CoreError> for Error {
    fn from(e: CoreError) -> Self {
        Error::Core(e)
    }
}

impl From<MetricError> for Error {
    fn from(e: MetricError) -> Self {
        Error::Metrics(e)
    }
}

impl From<LppmError> for Error {
    fn from(e: LppmError) -> Self {
        Error::Lppm(e)
    }
}

impl From<AnalysisError> for Error {
    fn from(e: AnalysisError) -> Self {
        Error::Analysis(e)
    }
}

impl From<MobilityError> for Error {
    fn from(e: MobilityError) -> Self {
        Error::Mobility(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_every_layer_with_display_and_source() {
        let errors: Vec<Error> = vec![
            CoreError::Infeasible { reason: "conflict".into() }.into(),
            MetricError::DatasetMismatch { reason: "sizes".into() }.into(),
            LppmError::from(MobilityError::EmptyTrace).into(),
            AnalysisError::NotInvertible.into(),
            MobilityError::EmptyDataset.into(),
        ];
        for error in &errors {
            assert!(!error.to_string().is_empty());
            assert!(std::error::Error::source(error).is_some());
        }
        assert!(errors[0].to_string().contains("infeasible"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<Error>();
    }
}
