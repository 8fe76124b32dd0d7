//! # geopriv-bench
//!
//! Reproduction harness for the evaluation artifacts of Cerf et al.,
//! *Toward an Easy Configuration of Location Privacy Protection Mechanisms*
//! (Middleware 2016).
//!
//! Each binary regenerates one artifact:
//!
//! | Binary | Artifact |
//! |---|---|
//! | `fig1` | Figure 1a (privacy vs ε) and Figure 1b (utility vs ε) |
//! | `equation2` | the log-linear fit of Equation 2 (a, b, α, β) |
//! | `operating_point` | the ε = 0.01 operating point (≤ 10 % privacy, ≈ 80 % utility) |
//! | `pca_properties` | the PCA-based dataset-property selection of §3 step 1 |
//! | `ablations` | sensitivity of the curves to metric/dataset parameters and other LPPMs |
//!
//! This library exposes the shared scenario: a deterministic synthetic
//! taxi-fleet dataset standing in for cabspotting, plus helpers to run the
//! paper's sweep at several fidelity levels. The system's speed is measured
//! by the standalone `geobench` package, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use geopriv_core::prelude::*;
use geopriv_mobility::generator::TaxiFleetBuilder;
use geopriv_mobility::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed used by every reproduction binary so that figures are identical
/// across runs and machines.
pub const REPRODUCTION_SEED: u64 = 20161212; // Middleware 2016 started on Dec 12.

/// Fidelity level of a reproduction run: how much synthetic data and how many
/// sweep points to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// A few drivers and sweep points — seconds of runtime, used by the
    /// unit tests.
    Smoke,
    /// The default: enough data for the curve shapes and the Equation 2 fit
    /// to be stable (tens of seconds).
    Standard,
    /// Closer to the paper's dataset scale (minutes).
    Full,
}

impl Fidelity {
    /// Parses a fidelity level from a command-line argument.
    pub fn from_arg(arg: &str) -> Option<Self> {
        match arg {
            "smoke" => Some(Self::Smoke),
            "standard" => Some(Self::Standard),
            "full" => Some(Self::Full),
            _ => None,
        }
    }

    /// Number of simulated taxi drivers.
    pub fn drivers(self) -> usize {
        match self {
            Self::Smoke => 4,
            Self::Standard => 20,
            Self::Full => 50,
        }
    }

    /// Observation duration per driver, in hours.
    pub fn duration_hours(self) -> f64 {
        match self {
            Self::Smoke => 6.0,
            Self::Standard => 12.0,
            Self::Full => 24.0,
        }
    }

    /// Number of ε sweep points.
    pub fn sweep_points(self) -> usize {
        match self {
            Self::Smoke => 9,
            Self::Standard => 25,
            Self::Full => 33,
        }
    }

    /// Number of protection repetitions per sweep point.
    pub fn repetitions(self) -> usize {
        match self {
            Self::Smoke => 1,
            Self::Standard => 1,
            Self::Full => 3,
        }
    }
}

/// Builds the deterministic synthetic San-Francisco taxi dataset used by all
/// reproduction binaries (the cabspotting stand-in).
///
/// # Panics
///
/// Panics only if the static generator configuration is invalid, which the
/// test suite rules out.
pub fn reproduction_dataset(fidelity: Fidelity) -> Dataset {
    let mut rng = StdRng::seed_from_u64(REPRODUCTION_SEED);
    TaxiFleetBuilder::new()
        .drivers(fidelity.drivers())
        .duration_hours(fidelity.duration_hours())
        .sampling_interval_s(30.0)
        .build(&mut rng)
        .expect("static reproduction configuration is valid")
}

/// Runs the paper's ε sweep (Figure 1) for the given fidelity.
///
/// # Errors
///
/// Propagates framework errors (none are expected for the built-in scenario).
pub fn run_paper_sweep(dataset: &Dataset, fidelity: Fidelity) -> Result<SweepResult, CoreError> {
    let config = SweepConfig {
        points: fidelity.sweep_points(),
        repetitions: fidelity.repetitions(),
        seed: REPRODUCTION_SEED,
        parallel: true,
    };
    ExperimentRunner::new(config).run(&SystemDefinition::paper_geoi(), dataset)
}

/// Prints one of a reproduction's shape checks as
/// `shape check: <claim>: <holds>`.
///
/// # Errors
///
/// Returns `shape check failed: <claim>` when the check does not hold, so
/// that a binary returning it with `?` exits non-zero.
pub fn shape_check(claim: &str, holds: bool) -> Result<(), String> {
    println!("shape check: {claim}: {holds}");
    if holds {
        Ok(())
    } else {
        Err(format!("shape check failed: {claim}"))
    }
}

/// Parses `--fidelity <level>` from command-line arguments, defaulting to
/// [`Fidelity::Standard`]; unknown levels fall back to the default.
pub fn fidelity_from_args() -> Fidelity {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|w| w[0] == "--fidelity")
        .and_then(|w| Fidelity::from_arg(&w[1]))
        .unwrap_or(Fidelity::Standard)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_parsing_and_scaling() {
        assert_eq!(Fidelity::from_arg("smoke"), Some(Fidelity::Smoke));
        assert_eq!(Fidelity::from_arg("standard"), Some(Fidelity::Standard));
        assert_eq!(Fidelity::from_arg("full"), Some(Fidelity::Full));
        assert_eq!(Fidelity::from_arg("huge"), None);
        assert!(Fidelity::Full.drivers() > Fidelity::Smoke.drivers());
        assert!(Fidelity::Full.sweep_points() > Fidelity::Smoke.sweep_points());
        assert!(Fidelity::Full.duration_hours() > Fidelity::Smoke.duration_hours());
        assert!(Fidelity::Full.repetitions() >= Fidelity::Smoke.repetitions());
    }

    #[test]
    fn a_failed_shape_check_is_an_error() {
        // fig1's check on a flat series: it does not rise.
        let flat = [0.3; 9];
        let (first, last) = (flat[0], flat[8]);
        let claim = format!("privacy rises from {first:.3} to {last:.3}");
        assert_eq!(
            shape_check(&claim, last > first),
            Err("shape check failed: privacy rises from 0.300 to 0.300".to_string())
        );
        assert_eq!(shape_check("utility rises", true), Ok(()));
    }

    #[test]
    fn reproduction_dataset_is_deterministic() {
        let a = reproduction_dataset(Fidelity::Smoke);
        let b = reproduction_dataset(Fidelity::Smoke);
        assert_eq!(a, b);
        assert_eq!(a.user_count(), Fidelity::Smoke.drivers());
    }

    #[test]
    fn smoke_sweep_produces_figure_shaped_curves() {
        let dataset = reproduction_dataset(Fidelity::Smoke);
        let sweep = run_paper_sweep(&dataset, Fidelity::Smoke).unwrap();
        assert_eq!(sweep.len(), Fidelity::Smoke.sweep_points());
        // Figure 1 shape: both metrics higher at epsilon = 1 than at 1e-4.
        for column in &sweep.columns {
            assert!(column.means.last().unwrap() > column.means.first().unwrap());
        }
    }
}
