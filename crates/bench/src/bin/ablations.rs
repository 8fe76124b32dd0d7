//! Ablation studies for the design choices called out in DESIGN.md:
//!
//! 1. sensitivity of the Figure 1 shapes to the *city-block cell size* of the
//!    utility metric;
//! 2. sensitivity of the privacy curve to the *POI matching radius*;
//! 3. sensitivity to the *fleet size* (dataset scale);
//! 4. comparison of GEO-I against the grid-cloaking and Gaussian baselines at
//!    matched median displacement.
//!
//! ```text
//! cargo run -p geopriv-bench --release --bin ablations [-- --fidelity smoke|standard|full]
//! ```

use geopriv_bench::{fidelity_from_args, reproduction_dataset, Fidelity, REPRODUCTION_SEED};
use geopriv_core::prelude::*;
use geopriv_geo::Meters;
use geopriv_lppm::{Epsilon, GaussianPerturbation, GeoIndistinguishability, GridCloaking, Lppm};
use geopriv_metrics::{AreaCoverage, Metric, PoiRetrieval};
use geopriv_mobility::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fidelity = fidelity_from_args();
    eprintln!("building the synthetic SF taxi dataset ({fidelity:?})…");
    let dataset = reproduction_dataset(fidelity);

    cell_size_ablation(&dataset)?;
    match_radius_ablation(&dataset)?;
    fleet_size_ablation(fidelity)?;
    lppm_comparison(&dataset)?;
    Ok(())
}

/// Utility at ε = 0.01 for several city-block cell sizes.
fn cell_size_ablation(dataset: &Dataset) -> Result<(), Box<dyn std::error::Error>> {
    println!("== Ablation 1: utility metric vs city-block cell size (epsilon = 0.01) ==");
    println!("{:>14} {:>10}", "cell size (m)", "utility");
    let protected = protect_with_geoi(dataset, 0.01, 1)?;
    for cell in [100.0, 200.0, 400.0, 800.0] {
        let utility = AreaCoverage::new(Meters::new(cell))?.evaluate(dataset, &protected)?;
        println!("{cell:>14.0} {:>10.3}", utility.value());
    }
    println!(
        "expected shape: utility grows with the cell size (coarser blocks are more forgiving)"
    );
    println!();
    Ok(())
}

/// Privacy at ε = 0.01 for several POI matching radii.
fn match_radius_ablation(dataset: &Dataset) -> Result<(), Box<dyn std::error::Error>> {
    println!("== Ablation 2: privacy metric vs POI matching radius (epsilon = 0.01) ==");
    println!("{:>16} {:>10}", "match radius (m)", "privacy");
    let protected = protect_with_geoi(dataset, 0.01, 2)?;
    for radius in [100.0, 200.0, 400.0, 800.0] {
        let metric = PoiRetrieval::new(Meters::new(radius))?;
        let privacy = metric.evaluate(dataset, &protected)?;
        println!("{radius:>16.0} {:>10.3}", privacy.value());
    }
    println!("expected shape: privacy (POI retrieval) grows with the matching radius");
    println!();
    Ok(())
}

/// Equation 2 coefficients for increasing fleet sizes.
fn fleet_size_ablation(fidelity: Fidelity) -> Result<(), Box<dyn std::error::Error>> {
    println!("== Ablation 3: Equation 2 coefficients vs fleet size ==");
    println!("{:>8} {:>10} {:>10} {:>10} {:>10}", "drivers", "a", "b", "alpha", "beta");
    let sizes: &[usize] = match fidelity {
        Fidelity::Smoke => &[2, 4],
        Fidelity::Standard => &[5, 10, 20],
        Fidelity::Full => &[10, 25, 50],
    };
    for &drivers in sizes {
        let mut rng = StdRng::seed_from_u64(REPRODUCTION_SEED + drivers as u64);
        let dataset = geopriv_mobility::generator::TaxiFleetBuilder::new()
            .drivers(drivers)
            .duration_hours(fidelity.duration_hours())
            .sampling_interval_s(60.0)
            .build(&mut rng)?;
        let system = SystemDefinition::paper_geoi();
        let sweep = ExperimentRunner::new(SweepConfig {
            points: fidelity.sweep_points().min(15),
            repetitions: 1,
            seed: REPRODUCTION_SEED,
            parallel: true,
        })
        .run(&system, &dataset)?;
        let fitted = Modeler::new().fit(&sweep)?;
        let privacy = &fitted
            .model(&MetricId::new("poi-retrieval"))
            .expect("privacy model")
            .axis()
            .expect("1-D")
            .model;
        let utility = &fitted
            .model(&MetricId::new("area-coverage"))
            .expect("utility model")
            .axis()
            .expect("1-D")
            .model;
        println!(
            "{drivers:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            privacy.intercept(),
            privacy.slope(),
            utility.intercept(),
            utility.slope()
        );
    }
    println!("expected shape: coefficients stay in the same ballpark as the fleet grows");
    println!();
    Ok(())
}

/// GEO-I vs grid cloaking vs Gaussian noise at matched displacement scale.
fn lppm_comparison(dataset: &Dataset) -> Result<(), Box<dyn std::error::Error>> {
    println!("== Ablation 4: LPPM comparison at ~200 m displacement scale ==");
    println!("{:>28} {:>10} {:>10}", "mechanism", "privacy", "utility");
    // epsilon = 0.01 -> mean displacement 200 m; sigma = 160 m gives a
    // comparable Rayleigh mean; a 400 m cell gives a comparable max shift.
    let mechanisms: Vec<Box<dyn Lppm>> = vec![
        Box::new(GeoIndistinguishability::new(Epsilon::new(0.01)?)),
        Box::new(GaussianPerturbation::new(Meters::new(160.0))?),
        Box::new(GridCloaking::new(Meters::new(400.0))?),
    ];
    let privacy_metric = PoiRetrieval::default();
    let utility_metric = AreaCoverage::default();
    for mechanism in &mechanisms {
        let mut rng = StdRng::seed_from_u64(REPRODUCTION_SEED ^ 0xBEEF);
        let protected = mechanism.protect_dataset(dataset, &mut rng)?;
        let privacy = privacy_metric.evaluate(dataset, &protected)?;
        let utility = utility_metric.evaluate(dataset, &protected)?;
        println!("{:>28} {:>10.3} {:>10.3}", mechanism.name(), privacy.value(), utility.value());
    }
    println!(
        "expected shape: at matched displacement, deterministic cloaking keeps higher POI \
         retrieval (snapped stops stay findable) than the randomized mechanisms"
    );
    println!();
    Ok(())
}

fn protect_with_geoi(
    dataset: &Dataset,
    epsilon: f64,
    salt: u64,
) -> Result<Dataset, Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(REPRODUCTION_SEED ^ salt);
    let geoi = GeoIndistinguishability::new(Epsilon::new(epsilon)?);
    Ok(geoi.protect_dataset(dataset, &mut rng)?)
}
