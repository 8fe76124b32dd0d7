//! Adaptive sweep planning on the two-parameter study: instead of measuring
//! the full 7 × 7 factorial, the staged planner
//! ([`geopriv::core::SweepMode::Adaptive`]) measures a coarse 4 × 4 pass,
//! fits the metric models, and spends the rest of its evaluation budget
//! bisecting where the models are still uncertain — near the fitted
//! feasibility boundaries and active-zone edges.
//!
//! Both designs feed the same downstream pipeline (fit → require →
//! recommend), so the example prints the evaluations saved alongside both
//! recommendations to show what the saving costs in accuracy.
//!
//! ```text
//! cargo run --release --example adaptive
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

    // The reference: the full 7 × 7 factorial (49 evaluations).
    let grid = AutoConf::for_system(two_axis_system()?)
        .dataset(&dataset)
        .sweep(|s| s.points(7).seed(42))
        .fit()?
        .require("poi-retrieval", at_most(0.5))?
        .require("area-coverage", at_least(0.4))?;
    let grid_points = grid.sweep_result().len();
    println!();
    println!("full grid: {grid_points} design points");

    // The adaptive study: a 4 × 4 coarse pass, then model-guided refinement
    // up to 24 total evaluations — under half the grid's cost.
    let adaptive = AutoConf::for_system(two_axis_system()?)
        .dataset(&dataset)
        .sweep(|s| s.points(4).adaptive(24).seed(42))
        .fit()?
        .require("poi-retrieval", at_most(0.5))?
        .require("area-coverage", at_least(0.4))?;
    let adaptive_points = adaptive.sweep_result().len();
    println!(
        "adaptive:  {adaptive_points} design points ({} coarse + {} refined) — {} evaluations \
         saved ({:.0}%)",
        16,
        adaptive_points - 16,
        grid_points - adaptive_points,
        100.0 * (grid_points - adaptive_points) as f64 / grid_points as f64
    );
    println!();
    println!("{}", report::sweep_to_table(adaptive.sweep_result()));

    for (label, study) in [("full grid", &grid), ("adaptive", &adaptive)] {
        match study.recommend() {
            Ok(recommendation) => {
                println!("{label} recommendation:");
                println!("{}", report::recommendation_report(&recommendation));
            }
            Err(geopriv::Error::Core(CoreError::Infeasible { reason })) => {
                println!("{label}: objectives are infeasible on this dataset: {reason}");
            }
            Err(other) => return Err(other.into()),
        }
    }
    Ok(())
}
