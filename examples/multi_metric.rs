//! A four-metric study through the same API that runs the paper's pair: POI
//! retrieval (privacy), displacement-based utility, city-block area coverage
//! and hotspot preservation, swept side by side in one [`geopriv::AutoConf`]
//! chain — the "more metrics and parameters" extension the paper's future
//! work calls for, at the cost of one `.metric(...)`-style suite entry per
//! dimension instead of a fork of the framework.
//!
//! ```text
//! cargo run --release --example multi_metric
//! ```

use geopriv::prelude::*;
use geopriv::AutoConf;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2016);
    let dataset = TaxiFleetBuilder::new()
        .drivers(10)
        .duration_hours(10.0)
        .sampling_interval_s(30.0)
        .build(&mut rng)?;
    println!("dataset: {} drivers, {} records", dataset.user_count(), dataset.record_count());

    // One suite, four direction-tagged metrics.
    let suite = MetricSuite::new(vec![
        SuiteMetric::new(PoiRetrieval::default()),
        SuiteMetric::new(DistortionUtility::default()),
        SuiteMetric::new(AreaCoverage::default()),
        SuiteMetric::new(HotspotPreservation::default()),
    ])?;
    let system = SystemDefinition::new(Box::new(GeoIndistinguishabilityFactory::new()), suite);

    let studied =
        AutoConf::for_system(system).dataset(&dataset).sweep(|s| s.points(15).seed(42)).fit()?;
    println!();
    println!("{}", report::sweep_to_table(studied.sweep_result()));
    println!("{}", report::suite_report(studied.fitted()));

    // Constrain three of the four metrics; the fourth is predicted anyway.
    let studied = studied
        .require("poi-retrieval", at_most(0.10))?
        .require("area-coverage", at_least(0.75))?
        .require("hotspot-preservation", at_least(0.5))?;
    println!("objectives: {}", studied.objectives());
    match studied.recommend() {
        Ok(recommendation) => println!("{}", report::recommendation_report(&recommendation)),
        Err(geopriv::Error::Core(CoreError::Infeasible { reason })) => {
            println!("objectives are infeasible on this dataset: {reason}");
        }
        Err(other) => return Err(other.into()),
    }

    // Frontiers over any metric pair, not just privacy vs utility.
    let frontier = studied.frontier_for(&"poi-retrieval".into(), &"hotspot-preservation".into())?;
    println!("{frontier}");
    Ok(())
}
