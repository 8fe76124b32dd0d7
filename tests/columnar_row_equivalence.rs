//! Row-path vs column-path equivalence.
//!
//! Every protection path is derived from the mechanism's one kernel:
//! [`Lppm::protect_view`] writes a trace's released records straight into
//! the output columns, [`Lppm::protect_trace`] materializes an owned trace
//! (the historical row layout). A sweep over the columnar path must
//! therefore be **bit-identical** to the same sweep forced through the row
//! path — at dataset grain and at per-user grain alike.

use geopriv::core::{
    ExperimentRunner, GeoIndistinguishabilityFactory, LppmFactory, SweepConfig, SweepPlan,
    SystemDefinition,
};
use geopriv::lppm::{ConfigPoint, ConfigSpace, Kernel, Lppm, LppmError};
use geopriv::metrics::{AreaCoverage, PoiRetrieval};
use geopriv::mobility::{Dataset, DatasetBuilder, TraceView};
use geopriv::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Wraps any mechanism and routes every trace through the row path:
/// `kernel` delegates, and `protect_view` (which `protect_dataset` calls per
/// trace) materializes the view and protects it with `protect_trace`.
struct ForcedRowPath(Box<dyn Lppm>);

impl Lppm for ForcedRowPath {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn kernel(&self) -> Box<dyn Kernel> {
        self.0.kernel()
    }

    fn protect_view(
        &self,
        trace: TraceView<'_>,
        out: &mut DatasetBuilder,
        rng: &mut dyn RngCore,
    ) -> Result<(), LppmError> {
        out.push_trace(&self.protect_trace(&trace.to_trace(), rng)?);
        Ok(())
    }
}

/// Factory wrapper instantiating [`ForcedRowPath`]-wrapped mechanisms.
struct ForcedRowPathFactory(Box<dyn LppmFactory>);

impl LppmFactory for ForcedRowPathFactory {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn space(&self) -> ConfigSpace {
        self.0.space()
    }

    fn instantiate_at(
        &self,
        point: &ConfigPoint,
    ) -> Result<Box<dyn Lppm>, geopriv::core::CoreError> {
        Ok(Box::new(ForcedRowPath(self.0.instantiate_at(point)?)))
    }
}

fn fleet(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    TaxiFleetBuilder::new()
        .drivers(4)
        .duration_hours(4.0)
        .sampling_interval_s(60.0)
        .build(&mut rng)
        .expect("static generator configuration is valid")
}

fn paired_systems() -> (SystemDefinition, SystemDefinition) {
    let columnar = SystemDefinition::with_pair(
        Box::new(GeoIndistinguishabilityFactory::new()),
        Box::new(PoiRetrieval::default()),
        Box::new(AreaCoverage::default()),
    )
    .expect("valid system");
    let row = SystemDefinition::with_pair(
        Box::new(ForcedRowPathFactory(Box::new(GeoIndistinguishabilityFactory::new()))),
        Box::new(PoiRetrieval::default()),
        Box::new(AreaCoverage::default()),
    )
    .expect("valid system");
    (columnar, row)
}

#[test]
fn forced_row_path_protection_is_bit_identical() {
    let dataset = fleet(11);
    let lppm = GeoIndistinguishability::new(Epsilon::new(0.01).expect("valid"));
    let columnar = lppm.protect_dataset(&dataset, &mut StdRng::seed_from_u64(5)).expect("protects");
    let row = ForcedRowPath(Box::new(lppm))
        .protect_dataset(&dataset, &mut StdRng::seed_from_u64(5))
        .expect("protects");
    assert_eq!(columnar, row);
}

#[test]
fn dataset_grain_sweeps_agree_across_layouts() {
    let dataset = fleet(12);
    let (columnar, row) = paired_systems();
    let config = SweepConfig { points: 5, repetitions: 2, seed: 77, parallel: true };
    let fast = ExperimentRunner::new(config).run(&columnar, &dataset).expect("sweep runs");
    let slow = ExperimentRunner::new(config).run(&row, &dataset).expect("sweep runs");
    assert_eq!(fast, slow);
}

#[test]
fn per_user_sweeps_agree_across_layouts() {
    let dataset = fleet(13);
    let (columnar, row) = paired_systems();
    let plan = SweepPlan::grid(SweepConfig { points: 5, repetitions: 1, seed: 78, parallel: true })
        .per_user();
    let fast =
        ExperimentRunner::with_plan(plan.clone()).run(&columnar, &dataset).expect("sweep runs");
    let slow = ExperimentRunner::with_plan(plan).run(&row, &dataset).expect("sweep runs");
    assert_eq!(fast, slow);
    assert!(!fast.user_columns.is_empty());
}
