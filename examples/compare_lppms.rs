//! Compare several protection mechanisms on the same dataset — the "other
//! LPPMs" the paper's future work plans to feed through the framework —
//! through the current facade: one [`geopriv::AutoConf`] study per system,
//! identical sweep settings and objectives, side-by-side recommendations.
//!
//! Each system pairs a mechanism factory (including a composed
//! [`PipelineFactory`]) with the paper's metric pair; the facade sweeps the
//! mechanism's configuration space, fits the response models, and inverts
//! the shared objectives.
//!
//! ```text
//! cargo run --release --example compare_lppms
//! ```

use geopriv::prelude::*;
use geopriv::AutoConf;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn paper_pair(factory: Box<dyn LppmFactory>) -> Result<SystemDefinition, CoreError> {
    SystemDefinition::with_pair(
        factory,
        Box::new(PoiRetrieval::default()),
        Box::new(AreaCoverage::default()),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(99);
    let dataset = TaxiFleetBuilder::new()
        .drivers(6)
        .duration_hours(8.0)
        .sampling_interval_s(30.0)
        .build(&mut rng)?;
    println!("dataset: {} drivers, {} records", dataset.user_count(), dataset.record_count());
    println!();

    // The contenders, all through the factory API — the composed pipeline
    // sweeps two axes (ε × cell size) where the others sweep one.
    let systems: Vec<SystemDefinition> = vec![
        paper_pair(Box::new(GeoIndistinguishabilityFactory::new()))?,
        paper_pair(Box::new(GaussianPerturbationFactory::with_range(20.0, 2000.0)?))?,
        paper_pair(Box::new(GridCloakingFactory::with_range(100.0, 2000.0)?))?,
        paper_pair(Box::new(
            PipelineFactory::new(GeoIndistinguishabilityFactory::new())
                .then(GridCloakingFactory::with_range(100.0, 2000.0)?),
        ))?,
    ];

    println!(
        "objectives for every system: poi-retrieval ≤ 0.60, area-coverage ≥ 0.30 (shared sweep \
         seed, 7 points per axis)"
    );
    for system in systems {
        let name = system.factory().name().to_string();
        let axes = system.space().names().join(" × ");
        let studied =
            AutoConf::for_system(system).dataset(&dataset).sweep(|s| s.points(7).seed(7)).fit()?;
        println!();
        println!("== {name} (axes: {axes}) ==");
        let result = studied
            .require("poi-retrieval", at_most(0.60))?
            .require("area-coverage", at_least(0.30))?
            .recommend();
        match result {
            Ok(recommendation) => {
                println!("   recommended {}", recommendation.point);
                for (id, value) in &recommendation.predictions {
                    println!("   predicted {id} = {value:.3}");
                }
            }
            Err(geopriv::Error::Core(CoreError::Infeasible { reason })) => {
                println!("   infeasible under the shared objectives: {reason}");
            }
            Err(other) => return Err(other.into()),
        }
    }
    Ok(())
}
