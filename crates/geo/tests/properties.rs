//! Property-based tests for the geospatial substrate.

use geopriv_geo::{
    distance, BoundingBox, CellId, CellOverlap, GeoPoint, Grid, LocalProjection, Meters, Point,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::ops::Range;

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
fn trace_points(len: Range<usize>) -> impl Strategy<Value = Vec<GeoPoint>> {
    let step = (-1.0f64..1.0, -1.0f64..1.0, 0u8..10);
    (sf_coords(), prop::collection::vec(step, len)).prop_map(|((lat, lon), steps)| {
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

/// F1 as `CellSet::f1_of` computed it on reference sets (`truth` is the
/// ground truth): precision, then recall, then 2pr/(p+r).
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

/// The area ratio as area coverage computed it on reference sets.
fn reference_area_ratio(a: &BTreeSet<CellId>, p: &BTreeSet<CellId>) -> f64 {
    let (a, p) = (a.len() as f64, p.len() as f64);
    if a == 0.0 && p == 0.0 {
        1.0
    } else {
        a.min(p) / a.max(p)
    }
}

/// Checks one `Grid::overlaps` call on `pairs` against `BTreeSet`
/// references, pair by pair: the three counts, and the F1 and area-ratio
/// bits computed from them.
fn assert_overlaps_match_reference(grid: &Grid, pairs: &[(&[GeoPoint], &[GeoPoint])]) {
    let columns = |points: &[GeoPoint]| -> (Vec<f64>, Vec<f64>) {
        points.iter().map(|p| (p.latitude(), p.longitude())).unzip()
    };
    let stored: Vec<_> = pairs.iter().map(|(a, p)| (columns(a), columns(p))).collect();
    let overlaps =
        grid.overlaps(stored.iter().map(|(a, p)| ((&a.0[..], &a.1[..]), (&p.0[..], &p.1[..]))));
    assert_eq!(overlaps.len(), pairs.len());
    for (i, (overlap, (a, p))) in overlaps.iter().zip(pairs).enumerate() {
        let (ref_a, ref_p) = (reference_coverage(grid, a), reference_coverage(grid, p));
        let common = ref_a.intersection(&ref_p).count();
        let expected = CellOverlap { actual: ref_a.len(), protected: ref_p.len(), common };
        assert_eq!(*overlap, expected, "pair {i}");
        assert_eq!(overlap.f1().to_bits(), reference_f1(&ref_a, &ref_p).to_bits(), "pair {i}");
        let ratio = reference_area_ratio(&ref_a, &ref_p);
        assert_eq!(overlap.area_ratio().to_bits(), ratio.to_bits(), "pair {i}");
    }
}

/// Whether `Grid::overlaps` counts `records` records on `grid` with bitmaps.
fn is_dense(grid: &Grid, records: usize) -> bool {
    grid.cell_count() <= 32 * records as u64
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
    }

    #[test]
    fn jaccard_and_f1_are_bounded(points in planar_points(60), radius in 1.0f64..3000.0) {
        let area = BoundingBox::new(37.60, -122.60, 37.90, -122.30).unwrap();
        let grid = Grid::new(area, Meters::new(200.0)).unwrap();
        let proj = LocalProjection::centered_on(area.center());
        let columns = |dx: f64| -> (Vec<f64>, Vec<f64>) {
            points
                .iter()
                .map(|p| proj.unproject(Point::new(p.x() + dx, p.y())))
                .map(|g| (g.latitude(), g.longitude()))
                .unzip()
        };
        let (a, b) = (columns(0.0), columns(radius));
        let overlap = grid.overlaps([((&a.0[..], &a.1[..]), (&b.0[..], &b.1[..]))])[0];
        let union = overlap.actual + overlap.protected - overlap.common;
        let j = if union == 0 { 1.0 } else { overlap.common as f64 / union as f64 };
        let f1 = overlap.f1();
        prop_assert!(overlap.common <= overlap.actual.min(overlap.protected));
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert!((0.0..=1.0).contains(&f1));
        prop_assert!((0.0..=1.0).contains(&overlap.area_ratio()));
        // F1 is never smaller than Jaccard.
        prop_assert!(f1 + 1e-12 >= j);
    }

    #[test]
    fn coverage_equals_a_btreeset_reference(
        a in trace_points(0..150),
        b in trace_points(0..150),
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
        prop_assert_eq!(cells_a.intersection_size(&cells_a), ref_a.len());
    }

    #[test]
    fn overlaps_equal_a_btreeset_reference_on_dense_grids(
        a in trace_points(20..150),
        b in trace_points(20..150),
        cell_m in 1000.0f64..3000.0,
    ) {
        // At most 27 × 34 cells for at least 40 records: bitmaps.
        let grid = Grid::new(sf_area(), Meters::new(cell_m)).unwrap();
        prop_assert!(is_dense(&grid, a.len() + b.len()));
        assert_overlaps_match_reference(&grid, &[(&a, &b), (&b, &a), (&a, &a)]);
    }

    #[test]
    fn overlaps_equal_a_btreeset_reference_on_sparse_grids(
        a in trace_points(0..20),
        b in trace_points(0..20),
        cell_m in 5.0f64..50.0,
    ) {
        // At least 528 × 668 cells for at most 38 records: cell sets.
        let grid = Grid::new(sf_area(), Meters::new(cell_m)).unwrap();
        prop_assert!(!is_dense(&grid, a.len() + b.len()));
        assert_overlaps_match_reference(&grid, &[(&a, &b), (&b, &a), (&a, &a)]);
    }

    #[test]
    fn overlaps_clear_their_bitmaps_between_pairs(
        traces in prop::collection::vec(trace_points(10..80), 4),
        cell_m in 500.0f64..3000.0,
    ) {
        // Every trace appears in several pairs, on either side, so a later
        // pair's cells overlap an earlier pair's: a bit left set by one pair
        // would inflate the next pair's counts.
        let [t0, t1, t2, t3] = [&traces[0], &traces[1], &traces[2], &traces[3]];
        let pairs: [(&[GeoPoint], &[GeoPoint]); 7] =
            [(t0, t1), (t1, t0), (t0, t0), (t2, t1), (t1, t3), (t3, t2), (t2, t0)];
        // At most 53 × 67 cells for at least 140 records: bitmaps.
        let grid = Grid::new(sf_area(), Meters::new(cell_m)).unwrap();
        prop_assert!(is_dense(&grid, pairs.iter().map(|(a, p)| a.len() + p.len()).sum()));
        assert_overlaps_match_reference(&grid, &pairs);
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
