//! Property-based tests for the geospatial substrate.

use geopriv_geo::{distance, BoundingBox, CellId, GeoPoint, Grid, LocalProjection, Meters, Point};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// City-scale latitudes/longitudes around San Francisco, the paper's study area.
fn sf_coords() -> impl Strategy<Value = (f64, f64)> {
    (37.60f64..37.90f64, -122.60f64..-122.30f64)
}

fn sf_area() -> BoundingBox {
    BoundingBox::new(37.60, -122.60, 37.90, -122.30).unwrap()
}

/// Trace-like point sequences: a random walk of steps up to ~300 m, so
/// consecutive points often share a cell, with repeated records and jumps
/// to anywhere on the globe, mostly far outside the study area.
fn trace_points(max_len: usize) -> impl Strategy<Value = Vec<GeoPoint>> {
    let step = (-1.0f64..1.0, -1.0f64..1.0, 0u8..10);
    (sf_coords(), prop::collection::vec(step, 0..max_len)).prop_map(|((lat, lon), steps)| {
        let mut here = (lat, lon);
        steps
            .into_iter()
            .map(|(dlat, dlon, kind)| match kind {
                0 => GeoPoint::clamped(90.0 * dlat, 180.0 * dlon),
                1 | 2 => GeoPoint::clamped(here.0, here.1),
                _ => {
                    here = (here.0 + 0.003 * dlat, here.1 + 0.003 * dlon);
                    GeoPoint::clamped(here.0, here.1)
                }
            })
            .collect()
    })
}

/// `Grid::cell_of` as it was written before it dropped `floor`.
fn floor_cell_of(grid: &Grid, point: GeoPoint) -> CellId {
    let p = LocalProjection::centered_on(grid.bounds().south_west()).project(point);
    let cell = grid.cell_size().as_f64();
    CellId {
        col: (p.x() / cell).floor().clamp(0.0, f64::from(grid.columns() - 1)) as u32,
        row: (p.y() / cell).floor().clamp(0.0, f64::from(grid.rows() - 1)) as u32,
    }
}

/// A trace's coverage as it was computed before `CellSet` became a sorted
/// key vector: a `BTreeSet<CellId>` of `floor`-computed cells.
fn reference_coverage(grid: &Grid, points: &[GeoPoint]) -> BTreeSet<CellId> {
    points.iter().map(|&p| floor_cell_of(grid, p)).collect()
}

/// `CellSet::jaccard` evaluated on reference sets.
fn reference_jaccard(a: &BTreeSet<CellId>, b: &BTreeSet<CellId>) -> f64 {
    let common = a.intersection(b).count();
    let union = a.len() + b.len() - common;
    if union == 0 {
        1.0
    } else {
        common as f64 / union as f64
    }
}

/// `CellSet::f1_of` evaluated on reference sets (`truth` is the ground truth).
fn reference_f1(truth: &BTreeSet<CellId>, other: &BTreeSet<CellId>) -> f64 {
    let common = truth.intersection(other).count() as f64;
    let precision = match (other.is_empty(), truth.is_empty()) {
        (true, true) => 1.0,
        (true, false) => 0.0,
        _ => common / other.len() as f64,
    };
    let recall = if truth.is_empty() { 1.0 } else { common / truth.len() as f64 };
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

fn planar_points(max_len: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((-10_000.0f64..10_000.0, -10_000.0f64..10_000.0), 0..max_len)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

proptest! {
    #[test]
    fn geopoint_accepts_all_valid_coordinates(lat in -90.0f64..=90.0, lon in -180.0f64..=180.0) {
        let p = GeoPoint::new(lat, lon).unwrap();
        prop_assert_eq!(p.latitude(), lat);
        prop_assert_eq!(p.longitude(), lon);
    }

    #[test]
    fn clamped_always_yields_valid_coordinates(lat in -200.0f64..200.0, lon in -500.0f64..500.0) {
        let p = GeoPoint::clamped(lat, lon);
        prop_assert!((-90.0..=90.0).contains(&p.latitude()));
        prop_assert!((-180.0..=180.0).contains(&p.longitude()));
    }

    #[test]
    fn haversine_is_symmetric_and_nonnegative((lat1, lon1) in sf_coords(), (lat2, lon2) in sf_coords()) {
        let a = GeoPoint::new(lat1, lon1).unwrap();
        let b = GeoPoint::new(lat2, lon2).unwrap();
        let ab = distance::haversine(a, b).as_f64();
        let ba = distance::haversine(b, a).as_f64();
        prop_assert!(ab >= 0.0);
        prop_assert!((ab - ba).abs() < 1e-6);
    }

    #[test]
    fn haversine_triangle_inequality((lat1, lon1) in sf_coords(), (lat2, lon2) in sf_coords(), (lat3, lon3) in sf_coords()) {
        let a = GeoPoint::new(lat1, lon1).unwrap();
        let b = GeoPoint::new(lat2, lon2).unwrap();
        let c = GeoPoint::new(lat3, lon3).unwrap();
        let ab = distance::haversine(a, b).as_f64();
        let bc = distance::haversine(b, c).as_f64();
        let ac = distance::haversine(a, c).as_f64();
        prop_assert!(ac <= ab + bc + 1e-6);
    }

    #[test]
    fn projection_roundtrip_is_lossless((clat, clon) in sf_coords(), (lat, lon) in sf_coords()) {
        let proj = LocalProjection::centered_on(GeoPoint::new(clat, clon).unwrap());
        let original = GeoPoint::new(lat, lon).unwrap();
        let back = proj.unproject(proj.project(original));
        prop_assert!((back.latitude() - lat).abs() < 1e-9);
        prop_assert!((back.longitude() - lon).abs() < 1e-9);
    }

    #[test]
    fn projected_distance_matches_haversine((lat1, lon1) in sf_coords(), (lat2, lon2) in sf_coords()) {
        let a = GeoPoint::new(lat1, lon1).unwrap();
        let b = GeoPoint::new(lat2, lon2).unwrap();
        let proj = LocalProjection::centered_on(a);
        let planar = proj.project(a).distance_to(proj.project(b)).as_f64();
        let spherical = distance::haversine(a, b).as_f64();
        // Within 1% (plus 1 m slack for tiny distances) at city scale.
        prop_assert!((planar - spherical).abs() <= 0.01 * spherical + 1.0);
    }

    #[test]
    fn every_point_maps_to_a_valid_grid_cell((lat, lon) in sf_coords(), cell_m in 50.0f64..1000.0) {
        let area = BoundingBox::new(37.60, -122.60, 37.90, -122.30).unwrap();
        let grid = Grid::new(area, Meters::new(cell_m)).unwrap();
        let cell = grid.cell_of(GeoPoint::new(lat, lon).unwrap());
        prop_assert!(cell.col < grid.columns());
        prop_assert!(cell.row < grid.rows());
        // Cell centers always map back to their own cell.
        prop_assert_eq!(grid.cell_of(grid.cell_center(cell)), cell);
    }

    #[test]
    fn jaccard_and_f1_are_bounded(points in planar_points(60), radius in 1.0f64..3000.0) {
        let area = BoundingBox::new(37.60, -122.60, 37.90, -122.30).unwrap();
        let grid = Grid::new(area, Meters::new(200.0)).unwrap();
        let proj = LocalProjection::centered_on(area.center());
        let geos: Vec<GeoPoint> = points.iter().map(|p| proj.unproject(*p)).collect();
        let shifted: Vec<GeoPoint> = points
            .iter()
            .map(|p| proj.unproject(Point::new(p.x() + radius, p.y())))
            .collect();
        let a = grid.coverage(geos.iter().copied());
        let b = grid.coverage(shifted.iter().copied());
        let j = a.jaccard(&b);
        let f1 = a.f1_of(&b);
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert!((0.0..=1.0).contains(&f1));
        // F1 is never smaller than Jaccard.
        prop_assert!(f1 + 1e-12 >= j);
    }

    #[test]
    fn coverage_equals_a_btreeset_reference(
        a in trace_points(150),
        b in trace_points(150),
        cell_m in 50.0f64..1000.0,
    ) {
        let grid = Grid::new(sf_area(), Meters::new(cell_m)).unwrap();
        let (cells_a, cells_b) = (grid.coverage(a.iter().copied()), grid.coverage(b.iter().copied()));
        let (ref_a, ref_b) = (reference_coverage(&grid, &a), reference_coverage(&grid, &b));
        prop_assert_eq!(cells_a.len(), ref_a.len());
        prop_assert_eq!(cells_a.iter().collect::<Vec<_>>(), ref_a.iter().copied().collect::<Vec<_>>());
        prop_assert!(ref_b.iter().all(|&cell| cells_b.contains(cell)));
        let common = ref_a.intersection(&ref_b).count();
        prop_assert_eq!(cells_a.intersection_size(&cells_b), common);
        prop_assert_eq!(cells_b.intersection_size(&cells_a), common);
        prop_assert_eq!(cells_a.union_size(&cells_b), ref_a.union(&ref_b).count());
        prop_assert_eq!(cells_a.jaccard(&cells_b).to_bits(), reference_jaccard(&ref_a, &ref_b).to_bits());
        prop_assert_eq!(cells_a.f1_of(&cells_b).to_bits(), reference_f1(&ref_a, &ref_b).to_bits());
        prop_assert_eq!(cells_b.f1_of(&cells_a).to_bits(), reference_f1(&ref_b, &ref_a).to_bits());
        prop_assert_eq!(cells_a.f1_of(&cells_a).to_bits(), reference_f1(&ref_a, &ref_a).to_bits());
    }

    #[test]
    fn floor_free_cell_of_equals_the_floor_formula(
        (lat, lon) in sf_coords(),
        (far_lat, far_lon) in (-90.0f64..=90.0, -180.0f64..=180.0),
        (col_at, row_at, inside) in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        on_border in 0u8..2,
        cell_m in 1.0f64..2000.0,
    ) {
        let area = sf_area();
        let grid = Grid::new(area, Meters::new(cell_m)).unwrap();
        let projection = LocalProjection::centered_on(area.south_west());
        // An offset of whole cells, three either side of the grid, plus a
        // fraction of a cell unless the point sits on a cell border.
        let offset = |at: f64, cells: u32| {
            let whole = (at * f64::from(cells + 6)).floor() - 3.0;
            (whole + if on_border == 0 { 0.0 } else { inside }) * cell_m
        };
        let near_border = projection
            .unproject(Point::new(offset(col_at, grid.columns()), offset(row_at, grid.rows())));
        let sw = area.south_west();
        for point in [
            GeoPoint::new(lat, lon).unwrap(),
            near_border,
            // Anywhere on the globe: offsets up to ~2·10⁷ m, 10⁴ cells and more.
            GeoPoint::new(far_lat, far_lon).unwrap(),
            // Exactly on the grid's west and south edges.
            sw,
            GeoPoint::new(sw.latitude(), lon).unwrap(),
            GeoPoint::new(lat, sw.longitude()).unwrap(),
            area.north_east(),
        ] {
            prop_assert_eq!(grid.cell_of(point), floor_cell_of(&grid, point), "{}", point);
        }
    }
}
