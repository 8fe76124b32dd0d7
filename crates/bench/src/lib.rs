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
//! | `sweep` | single-sweep throughput baseline (`BENCH_sweep.json`) |
//! | `grid` | 2-D grid-study throughput baseline (`BENCH_grid.json`) |
//! | `campaign` | campaign-vs-independent-sweeps baseline (`BENCH_campaign.json`) |
//! | `serve` | serving-path loopback throughput baseline (`BENCH_serve.json`) |
//!
//! The Criterion benches (`benches/`) measure the throughput of the
//! components the figures depend on (protection, POI extraction, metric
//! evaluation, end-to-end sweep points).
//!
//! This library exposes the shared scenario: a deterministic synthetic
//! taxi-fleet dataset standing in for cabspotting, plus helpers to run the
//! paper's sweep at several fidelity levels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use geopriv_core::json;
use geopriv_core::prelude::*;
use geopriv_metrics::{AreaCoverage, PoiRetrieval};
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
    /// A few drivers and sweep points — seconds of runtime, used by CI and
    /// the Criterion benches.
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
    let system = SystemDefinition::paper_geoi();
    ExperimentRunner::new(campaign_config(fidelity)).run(&system, dataset)
}

/// The three systems of the campaign workloads: the paper's GEO-I system plus
/// grid-cloaking and Gaussian-perturbation variants sharing the same
/// privacy/utility metric pair — the "multiple LPPMs, same objectives" study
/// the framework was built for.
pub fn campaign_systems() -> Vec<SystemDefinition> {
    vec![
        SystemDefinition::paper_geoi(),
        SystemDefinition::with_pair(
            Box::new(GridCloakingFactory::new()),
            Box::new(PoiRetrieval::default()),
            Box::new(AreaCoverage::default()),
        )
        .expect("distinct metric names"),
        SystemDefinition::with_pair(
            Box::new(GaussianPerturbationFactory::new()),
            Box::new(PoiRetrieval::default()),
            Box::new(AreaCoverage::default()),
        )
        .expect("distinct metric names"),
    ]
}

/// Builder for the `BENCH_*.json` baseline files the bench binaries emit, so
/// every baseline shares one diff-friendly format (two-space indent, one key
/// per line, insertion order preserved).
#[derive(Debug, Clone, Default)]
pub struct BenchJson {
    entries: Vec<(String, String)>,
}

impl BenchJson {
    /// Starts a baseline for the named bench (the `"bench"` key).
    pub fn new(bench: &str) -> Self {
        Self::default().string("bench", bench)
    }

    /// Adds a string field (the value is JSON-escaped).
    #[must_use]
    pub fn string(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.entries.push((json::string(key), json::string(&value.to_string())));
        self
    }

    /// Adds an integer field.
    #[must_use]
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.entries.push((json::string(key), value.to_string()));
        self
    }

    /// Adds a float field rendered with `decimals` fractional digits.
    /// Non-finite values render as `null` (JSON has no inf/NaN tokens).
    #[must_use]
    pub fn float(mut self, key: &str, value: f64, decimals: usize) -> Self {
        let rendered =
            if value.is_finite() { format!("{value:.decimals$}") } else { "null".to_string() };
        self.entries.push((json::string(key), rendered));
        self
    }

    /// Renders the JSON object.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (key, value)) in self.entries.iter().enumerate() {
            out.push_str(&format!("  {key}: {value}"));
            out.push_str(if i + 1 < self.entries.len() { ",\n" } else { "\n" });
        }
        out.push('}');
        out
    }

    /// Writes the rendered object (plus a trailing newline) to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, format!("{}\n", self.render()))
    }
}

/// Points per configuration axis of the 2-D grid study at a given
/// fidelity — kept below the 1-D sweep counts because the grid squares them.
pub fn grid_points_per_axis(fidelity: Fidelity) -> usize {
    match fidelity {
        Fidelity::Smoke => 5,
        Fidelity::Standard => 9,
        Fidelity::Full => 13,
    }
}

/// The 2-D study system of the `grid` bench: GEO-I ε × grid-cloaking cell
/// size composed as one pipeline, with the paper's metric pair.
///
/// # Panics
///
/// Panics only if the static configuration is invalid, which the test suite
/// rules out.
pub fn grid_study_system() -> SystemDefinition {
    SystemDefinition::with_pair(
        Box::new(
            PipelineFactory::new().then(GeoIndistinguishabilityFactory::new()).then(
                GridCloakingFactory::with_range(100.0, 2000.0).expect("static range is valid"),
            ),
        ),
        Box::new(PoiRetrieval::default()),
        Box::new(AreaCoverage::default()),
    )
    .expect("distinct metric names")
}

/// Runs the 2-D grid study (full factorial, `grid_points_per_axis` values
/// per axis) for the given fidelity.
///
/// # Errors
///
/// Propagates framework errors (none are expected for the built-in scenario).
pub fn run_grid_study(dataset: &Dataset, fidelity: Fidelity) -> Result<SweepResult, CoreError> {
    let config =
        SweepConfig { points: grid_points_per_axis(fidelity), ..campaign_config(fidelity) };
    ExperimentRunner::with_plan(SweepPlan::grid(config)).run(&grid_study_system(), dataset)
}

/// Coarse-pass points per axis of the adaptive study — below
/// [`grid_points_per_axis`] on purpose: the whole point of
/// [`SweepMode::Adaptive`] is to start coarse and let model-guided
/// refinement spend the rest of the budget.
pub fn adaptive_coarse_points_per_axis(fidelity: Fidelity) -> usize {
    match fidelity {
        Fidelity::Smoke => 3,
        Fidelity::Standard => 5,
        Fidelity::Full => 7,
    }
}

/// Total evaluation budget (coarse pass + refinement) of the adaptive study,
/// kept at or below 40 % of the full grid's evaluation count at the same
/// fidelity — the headline saving `BENCH_adaptive.json` tracks.
pub fn adaptive_budget(fidelity: Fidelity) -> usize {
    match fidelity {
        Fidelity::Smoke => 10,    // vs 5² = 25 grid evaluations
        Fidelity::Standard => 32, // vs 9² = 81
        Fidelity::Full => 67,     // vs 13² = 169
    }
}

/// Runs the adaptive counterpart of [`run_grid_study`]: same 2-D system,
/// coarse `adaptive_coarse_points_per_axis` grid, then model-guided
/// refinement up to `adaptive_budget` total evaluations.
///
/// # Errors
///
/// Propagates framework errors (none are expected for the built-in scenario).
pub fn run_adaptive_study(dataset: &Dataset, fidelity: Fidelity) -> Result<SweepResult, CoreError> {
    let config = SweepConfig {
        points: adaptive_coarse_points_per_axis(fidelity),
        ..campaign_config(fidelity)
    };
    ExperimentRunner::with_plan(SweepPlan::adaptive(config, adaptive_budget(fidelity)))
        .run(&grid_study_system(), dataset)
}

/// Number of users of the per-user throughput bench's scaled fleet —
/// unlike [`reproduction_dataset`] (whose record-heavy traces exist for the
/// figure reproductions), the per-user bench wants *many cheap users*, since
/// per-user fit+recommend cost scales with the user count.
pub fn per_user_bench_users(fidelity: Fidelity) -> usize {
    match fidelity {
        Fidelity::Smoke => 500,
        Fidelity::Standard => 10_000,
        Fidelity::Full => 50_000,
    }
}

/// Builds the compact scaled fleet ([`geopriv_mobility::generator::scaled`],
/// ~16 records per user) the per-user throughput bench runs on.
///
/// # Panics
///
/// Panics only if the static generator configuration is invalid, which the
/// test suite rules out.
pub fn per_user_bench_dataset(fidelity: Fidelity) -> Dataset {
    geopriv_mobility::generator::scaled(per_user_bench_users(fidelity), REPRODUCTION_SEED)
        .expect("static scaled-fleet configuration is valid")
}

/// Parses `--out <path>` from the command line, defaulting to `default`.
pub fn out_path_from_args(default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone())
        .unwrap_or_else(|| default.to_string())
}

/// Reads one kB-valued field of `/proc/self/status` (Linux only — `None`
/// elsewhere or when the field is absent).
fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Current resident set size in kB (`VmRSS`), when the platform exposes it.
pub fn current_rss_kb() -> Option<u64> {
    proc_status_kb("VmRSS:")
}

/// Peak resident set size in kB (`VmHWM`), when the platform exposes it.
pub fn peak_rss_kb() -> Option<u64> {
    proc_status_kb("VmHWM:")
}

/// Resets the process's peak-RSS high-water mark (`VmHWM`) to the current
/// RSS, so a following [`peak_rss_kb`] reading measures only the work in
/// between. Best-effort: silently does nothing where the kernel interface
/// (`/proc/self/clear_refs`) is unavailable.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Median of a list of timings (sorts in place).
///
/// # Panics
///
/// Panics on an empty list or non-finite timings (never produced by the
/// bench binaries).
pub fn median_seconds(times: &mut [f64]) -> f64 {
    times.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    times[times.len() / 2]
}

/// The sweep configuration the campaign workloads use at a given fidelity —
/// the same configuration [`run_paper_sweep`] applies per system.
pub fn campaign_config(fidelity: Fidelity) -> SweepConfig {
    SweepConfig {
        points: fidelity.sweep_points(),
        repetitions: fidelity.repetitions(),
        seed: REPRODUCTION_SEED,
        parallel: true,
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
    fn reproduction_dataset_is_deterministic() {
        let a = reproduction_dataset(Fidelity::Smoke);
        let b = reproduction_dataset(Fidelity::Smoke);
        assert_eq!(a, b);
        assert_eq!(a.user_count(), Fidelity::Smoke.drivers());
    }

    #[test]
    fn campaign_workload_is_well_formed() {
        let systems = campaign_systems();
        assert_eq!(systems.len(), 3);
        // Three distinct mechanisms sharing one metric pair.
        let keys: std::collections::BTreeSet<String> =
            systems.iter().map(|s| s.cache_key()).collect();
        assert_eq!(keys.len(), 3);
        for system in &systems {
            assert_eq!(
                system.suite().ids(),
                vec![MetricId::new("poi-retrieval"), MetricId::new("area-coverage")]
            );
        }
        let config = campaign_config(Fidelity::Smoke);
        assert_eq!(config.points, Fidelity::Smoke.sweep_points());
        assert_eq!(config.seed, REPRODUCTION_SEED);
        assert!(config.parallel);
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

    #[test]
    fn adaptive_budget_stays_under_forty_percent_of_the_grid() {
        for fidelity in [Fidelity::Smoke, Fidelity::Standard, Fidelity::Full] {
            let grid = grid_points_per_axis(fidelity) * grid_points_per_axis(fidelity);
            let budget = adaptive_budget(fidelity);
            // budget <= 0.40 * grid, in integers.
            assert!(budget * 5 <= grid * 2, "{fidelity:?}: budget {budget} vs grid {grid}");
            // The coarse pass fits inside the budget, leaving room to refine.
            let coarse = adaptive_coarse_points_per_axis(fidelity);
            assert!(coarse * coarse < budget, "{fidelity:?}: no refinement headroom");
        }
    }

    #[test]
    fn per_user_bench_fleet_is_deterministic_and_compact() {
        let a = per_user_bench_dataset(Fidelity::Smoke);
        assert_eq!(a.user_count(), per_user_bench_users(Fidelity::Smoke));
        assert_eq!(a, per_user_bench_dataset(Fidelity::Smoke));
        // The scaled profile keeps traces cheap: the bench measures per-user
        // modeling throughput, not raw record crunching.
        assert!(a.record_count() / a.user_count() <= 20);
    }

    #[test]
    fn bench_json_renders_stable_baselines() {
        let json = BenchJson::new("sweep")
            .string("fidelity", "Smoke")
            .int("points", 9)
            .float("seconds", 1.25, 3);
        assert_eq!(
            json.render(),
            "{\n  \"bench\": \"sweep\",\n  \"fidelity\": \"Smoke\",\n  \"points\": 9,\n  \
             \"seconds\": 1.250\n}"
        );
        let mut times = vec![3.0, 1.0, 2.0];
        assert_eq!(median_seconds(&mut times), 2.0);
    }

    #[test]
    fn bench_json_escapes_quotes_and_control_characters() {
        let json = BenchJson::new("x").string("note", "a \"quoted\\\" name\nnext");
        assert_eq!(
            json.render(),
            "{\n  \"bench\": \"x\",\n  \"note\": \"a \\\"quoted\\\\\\\" name\\nnext\"\n}"
        );
        // Non-finite floats degrade to null, never to invalid JSON tokens.
        let json = BenchJson::new("x").float("speedup", f64::INFINITY, 3);
        assert!(json.render().contains("\"speedup\": null"));
    }
}
