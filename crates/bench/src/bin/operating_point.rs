//! Reproduces the paper's **operating point**: inverting the fitted models
//! for the objectives "at most 10 % POI retrieval, at least 80 % utility"
//! should recommend ε ≈ 0.01 m⁻¹, and re-measuring at the recommended ε
//! should confirm that both objectives hold.
//!
//! ```text
//! cargo run -p geopriv-bench --release --bin operating_point [-- --fidelity smoke|standard|full]
//! ```

use geopriv_bench::{
    fidelity_from_args, reproduction_dataset, run_paper_sweep, shape_check, REPRODUCTION_SEED,
};
use geopriv_core::prelude::*;
use geopriv_metrics::{AreaCoverage, Metric, PoiRetrieval};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fidelity = fidelity_from_args();
    eprintln!("building the synthetic SF taxi dataset ({fidelity:?})…");
    let dataset = reproduction_dataset(fidelity);

    // Steps 1–2: define the system, sweep, model.
    let system = SystemDefinition::paper_geoi();
    eprintln!("sweeping epsilon and fitting the invertible model…");
    let sweep = run_paper_sweep(&dataset, fidelity)?;
    let fitted = Modeler::new().fit(&sweep)?;

    // Step 3: invert for the paper's objectives.
    let objectives = Objectives::paper_example();
    let configurator = Configurator::new(fitted);
    let recommendation = configurator.recommend(&objectives)?;

    println!("== Objectives ==");
    println!("{objectives}");
    println!();
    println!("== Recommendation (paper: epsilon = 0.01 m^-1) ==");
    println!("{}", report::recommendation_report(&recommendation));

    // Verification: protect the dataset at the recommended epsilon and
    // re-measure both metrics.
    eprintln!("re-measuring at the recommended epsilon…");
    let lppm = system.factory().instantiate_at(&recommendation.point)?;
    let mut rng = StdRng::seed_from_u64(REPRODUCTION_SEED ^ 0xA5A5);
    let protected = lppm.protect_dataset(&dataset, &mut rng)?;
    let measured_privacy = PoiRetrieval::default().evaluate(&dataset, &protected)?;
    let measured_utility = AreaCoverage::default().evaluate(&dataset, &protected)?;
    let measured = [
        (MetricId::new("poi-retrieval"), measured_privacy.value()),
        (MetricId::new("area-coverage"), measured_utility.value()),
    ];

    println!("== Verification at the recommended epsilon ==");
    for (id, constraint) in objectives.constraints() {
        let (_, value) =
            measured.iter().find(|(m, _)| m == id).expect("paper objectives cover both metrics");
        shape_check(
            &format!("measured {id} = {value:.3} meets the objective {id} {constraint}"),
            constraint.is_satisfied_by(*value),
        )?;
    }
    println!();
    println!(
        "paper claim: \"with epsilon = 0.01 we ensure that no more than 10% of her POIs can be \
         retrieved while ensuring that 80% of her requests will concern the city block where she is\""
    );
    Ok(())
}
