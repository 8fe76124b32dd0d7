//! A two-parameter configuration study — the paper's "configuration
//! parameters p_i" in the plural: GEO-I's ε and grid cloaking's cell size
//! swept *together* as one composed pipeline, through one
//! [`geopriv::AutoConf`] chain.
//!
//! The study measures the full 7 × 7 factorial grid, fits one multivariate
//! response surface per metric (log-axes, Equation 1's `f(p₁, p₂)`), and
//! searches the modeled space for a recommended `ConfigPoint` satisfying
//! both objectives. A one-at-a-time variant (the paper's "vary in turn"
//! design) runs alongside for comparison.
//!
//! ```text
//! cargo run --release --example multi_param
//! ```

use geopriv::prelude::*;
use geopriv::AutoConf;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn two_axis_system() -> Result<SystemDefinition, CoreError> {
    SystemDefinition::with_pair(
        Box::new(
            PipelineFactory::new(GeoIndistinguishabilityFactory::new())
                .then(GridCloakingFactory::with_range(100.0, 2000.0)?),
        ),
        Box::new(PoiRetrieval::default()),
        Box::new(AreaCoverage::default()),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2016);
    let dataset = TaxiFleetBuilder::new()
        .drivers(8)
        .duration_hours(8.0)
        .sampling_interval_s(30.0)
        .build(&mut rng)?;
    println!("dataset: {} drivers, {} records", dataset.user_count(), dataset.record_count());

    let system = two_axis_system()?;
    println!("system: {system:?}");
    println!("configuration space: {}", system.space());

    // Full-factorial grid study: 7 ε values × 7 cell sizes.
    let studied = AutoConf::for_system(two_axis_system()?)
        .dataset(&dataset)
        .sweep(|s| s.points(7).seed(42))
        .fit()?;
    println!();
    println!(
        "grid study: {} design points over {}",
        studied.sweep_result().len(),
        studied.sweep_result().space.names().join(" × ")
    );
    println!();
    println!("{}", report::sweep_to_table(studied.sweep_result()));
    println!("{}", report::suite_report(studied.fitted()));

    let studied =
        studied.require("poi-retrieval", at_most(0.5))?.require("area-coverage", at_least(0.4))?;
    println!("objectives: {}", studied.objectives());
    match studied.recommend() {
        Ok(recommendation) => {
            println!("{}", report::recommendation_report(&recommendation));
            // Double-check against the data: protect at the recommended
            // point and re-measure both metrics directly.
            let measured = studied.measure_at_point(&dataset, &recommendation.point, 7)?;
            for (id, value) in &measured {
                println!("re-measured {id} = {value:.3}");
            }
        }
        Err(geopriv::Error::Core(CoreError::Infeasible { reason })) => {
            println!("objectives are infeasible on this dataset: {reason}");
        }
        Err(other) => return Err(other.into()),
    }

    // The paper's one-at-a-time design on the same system: each axis sweeps
    // while the other sits at its default (ε = 0.01, the geometric midpoint).
    let one_at_a_time = AutoConf::for_system(two_axis_system()?)
        .dataset(&dataset)
        .sweep(|s| s.one_at_a_time().points(7).seed(42))
        .fit()?;
    println!();
    println!(
        "one-at-a-time study: {} design points (vs {} on the grid)",
        one_at_a_time.sweep_result().len(),
        7 * 7
    );
    println!("{}", report::suite_report(one_at_a_time.fitted()));
    Ok(())
}
