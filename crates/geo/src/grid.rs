//! Uniform "city block" grids and cell coverage sets.
//!
//! The paper's utility metric compares the *area coverage* of a user's actual
//! and protected traces at the granularity of a city block. [`Grid`]
//! discretizes a geographic bounding box into square cells of a configurable
//! size (200 m by default, a typical San Francisco block), and [`CellSet`]
//! represents the set of cells touched by a trace together with the usual
//! set-similarity measures (Jaccard index, F1 score).
//!
//! A sweep evaluates area coverage for every user at every configuration
//! point, so building and comparing cell sets is a hot loop. A [`CellSet`] is
//! therefore a sorted, deduplicated `Vec<u64>` of packed keys
//! `(col << 32) | row` rather than a tree of [`CellId`]s. Packed keys sort
//! exactly like `CellId`'s derived `Ord` (column, then row), so
//! [`CellSet::iter`] still yields cells in lexicographic order.
//! [`Grid::coverage`] builds a set in one pass (one key per record, then
//! one sort and dedup), and
//! [`CellSet::intersection_size`] is a linear merge of two sorted key lists.
//! Sizes and similarities depend only on set membership, never on the
//! container, so every value is bit-identical to a tree-based set's.

use crate::bbox::BoundingBox;
use crate::error::GeoError;
use crate::point::GeoPoint;
use crate::projection::LocalProjection;
use crate::units::Meters;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a grid cell: `(column, row)` indices from the south-west corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CellId {
    /// Column index (west → east).
    pub col: u32,
    /// Row index (south → north).
    pub row: u32,
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.col, self.row)
    }
}

/// A uniform square-cell grid over a geographic bounding box.
///
/// Points outside the bounding box are clamped to the border cells, so every
/// valid [`GeoPoint`] maps to a cell: a heavily-perturbed location must still
/// contribute to coverage comparisons rather than be silently dropped.
///
/// # Examples
///
/// ```
/// use geopriv_geo::{BoundingBox, GeoPoint, Grid, Meters};
///
/// # fn main() -> Result<(), geopriv_geo::GeoError> {
/// let area = BoundingBox::new(37.70, -122.52, 37.83, -122.35)?;
/// let grid = Grid::new(area, Meters::new(200.0))?;
///
/// let cell = grid.cell_of(GeoPoint::new(37.7749, -122.4194)?);
/// assert!(cell.col < grid.columns() && cell.row < grid.rows());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid {
    bounds: BoundingBox,
    cell_size: Meters,
    projection: LocalProjection,
    columns: u32,
    rows: u32,
    width_m: f64,
    height_m: f64,
}

impl Grid {
    /// Creates a grid over `bounds` with square cells of side `cell_size`.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidLength`] for a non-positive cell size and
    /// [`GeoError::DegenerateGrid`] if the grid would exceed 2³² cells or
    /// contain none.
    pub fn new(bounds: BoundingBox, cell_size: Meters) -> Result<Self, GeoError> {
        let cell_size = cell_size.expect_positive("cell size")?;
        let projection = LocalProjection::centered_on(bounds.south_west());
        let ne = projection.project(bounds.north_east());
        let width_m = ne.x();
        let height_m = ne.y();
        if width_m <= 0.0 || height_m <= 0.0 {
            return Err(GeoError::DegenerateGrid);
        }
        let columns = (width_m / cell_size.as_f64()).ceil() as u64;
        let rows = (height_m / cell_size.as_f64()).ceil() as u64;
        if columns == 0 || rows == 0 || columns.saturating_mul(rows) > u64::from(u32::MAX) {
            return Err(GeoError::DegenerateGrid);
        }
        Ok(Self {
            bounds,
            cell_size,
            projection,
            columns: columns as u32,
            rows: rows as u32,
            width_m,
            height_m,
        })
    }

    /// The bounding box covered by the grid.
    pub fn bounds(&self) -> BoundingBox {
        self.bounds
    }

    /// The side length of a cell.
    pub fn cell_size(&self) -> Meters {
        self.cell_size
    }

    /// Number of columns (east-west cells).
    pub fn columns(&self) -> u32 {
        self.columns
    }

    /// Number of rows (north-south cells).
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> u64 {
        u64::from(self.columns) * u64::from(self.rows)
    }

    /// Returns the cell containing `point`.
    ///
    /// Points outside the bounding box are clamped to the nearest border cell.
    #[inline]
    pub fn cell_of(&self, point: GeoPoint) -> CellId {
        let p = self.projection.project(point);
        let col = (p.x() / self.cell_size.as_f64()).clamp(0.0, f64::from(self.columns - 1));
        let row = (p.y() / self.cell_size.as_f64()).clamp(0.0, f64::from(self.rows - 1));
        // No `floor`: the cast truncates toward zero, which equals flooring
        // once the value is clamped to be non-negative (NaN casts to 0
        // either way). Baseline x86-64 has no floor instruction, so each
        // `floor` would be a libm call.
        CellId { col: col as u32, row: row as u32 }
    }

    /// Returns the geographic center of a cell.
    ///
    /// Cells outside the grid are clamped to the nearest valid cell.
    pub fn cell_center(&self, cell: CellId) -> GeoPoint {
        let col = cell.col.min(self.columns - 1);
        let row = cell.row.min(self.rows - 1);
        let x = (f64::from(col) + 0.5) * self.cell_size.as_f64();
        let y = (f64::from(row) + 0.5) * self.cell_size.as_f64();
        self.projection
            .unproject(crate::point::Point::new(x.min(self.width_m), y.min(self.height_m)))
    }

    /// Builds the [`CellSet`] of all cells touched by the given points.
    pub fn coverage<I>(&self, points: I) -> CellSet
    where
        I: IntoIterator<Item = GeoPoint>,
    {
        CellSet::from_cells(points.into_iter().map(|p| self.cell_of(p)))
    }

    /// Builds a histogram of visits per cell for the given points.
    pub fn histogram<I>(&self, points: I) -> BTreeMap<CellId, usize>
    where
        I: IntoIterator<Item = GeoPoint>,
    {
        let mut hist = BTreeMap::new();
        for p in points {
            *hist.entry(self.cell_of(p)).or_insert(0) += 1;
        }
        hist
    }
}

/// Packs a cell into a key that sorts like [`CellId`]'s derived `Ord`.
fn pack(cell: CellId) -> u64 {
    (u64::from(cell.col) << 32) | u64::from(cell.row)
}

fn unpack(key: u64) -> CellId {
    CellId { col: (key >> 32) as u32, row: key as u32 }
}

/// A set of grid cells, typically the coverage of a mobility trace.
///
/// Provides the set-similarity measures used by the area-coverage utility
/// metric. The cells are kept as sorted, distinct packed keys (see the
/// module docs).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CellSet {
    keys: Vec<u64>,
}

impl CellSet {
    /// Creates an empty cell set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set from an iterator of cells.
    pub fn from_cells<I: IntoIterator<Item = CellId>>(cells: I) -> Self {
        let mut keys: Vec<u64> = cells.into_iter().map(pack).collect();
        keys.sort_unstable();
        keys.dedup();
        Self { keys }
    }

    /// Number of distinct cells.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` if the set contains no cells.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Returns `true` if the set contains `cell`.
    pub fn contains(&self, cell: CellId) -> bool {
        self.keys.binary_search(&pack(cell)).is_ok()
    }

    /// Iterates over the cells in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = CellId> + '_ {
        self.keys.iter().map(|&key| unpack(key))
    }

    /// Number of cells present in both sets.
    pub fn intersection_size(&self, other: &CellSet) -> usize {
        let (mut i, mut j, mut common) = (0, 0, 0);
        while let (Some(a), Some(b)) = (self.keys.get(i), other.keys.get(j)) {
            match a.cmp(b) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    common += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        common
    }

    /// Number of cells present in either set.
    pub fn union_size(&self, other: &CellSet) -> usize {
        self.len() + other.len() - self.intersection_size(other)
    }

    /// Jaccard similarity `|A ∩ B| / |A ∪ B|` in `[0, 1]`.
    ///
    /// Two empty sets are considered identical (similarity 1).
    pub fn jaccard(&self, other: &CellSet) -> f64 {
        let union = self.union_size(other);
        if union == 0 {
            return 1.0;
        }
        self.intersection_size(other) as f64 / union as f64
    }

    /// Precision of `other` against `self` taken as ground truth:
    /// the fraction of `other`'s cells that are also in `self`.
    pub fn precision_of(&self, other: &CellSet) -> f64 {
        if other.is_empty() {
            return if self.is_empty() { 1.0 } else { 0.0 };
        }
        self.intersection_size(other) as f64 / other.len() as f64
    }

    /// Recall of `other` against `self` taken as ground truth:
    /// the fraction of `self`'s cells that are covered by `other`.
    pub fn recall_of(&self, other: &CellSet) -> f64 {
        if self.is_empty() {
            return 1.0;
        }
        self.intersection_size(other) as f64 / self.len() as f64
    }

    /// F1 score (harmonic mean of precision and recall) of `other` against
    /// `self` taken as ground truth.
    ///
    /// This is the default area-coverage similarity of the utility metric.
    pub fn f1_of(&self, other: &CellSet) -> f64 {
        let p = self.precision_of(other);
        let r = self.recall_of(other);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

impl FromIterator<CellId> for CellSet {
    fn from_iter<I: IntoIterator<Item = CellId>>(iter: I) -> Self {
        Self::from_cells(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf_grid(cell_m: f64) -> Grid {
        let area = BoundingBox::new(37.70, -122.52, 37.83, -122.35).unwrap();
        Grid::new(area, Meters::new(cell_m)).unwrap()
    }

    fn cell(col: u32, row: u32) -> CellId {
        CellId { col, row }
    }

    #[test]
    fn grid_dimensions_match_cell_size() {
        let g = sf_grid(200.0);
        // SF box is ~15 km x ~14.5 km -> about 75 x 72 cells.
        assert!((60..90).contains(&g.columns()), "cols={}", g.columns());
        assert!((60..90).contains(&g.rows()), "rows={}", g.rows());
        assert_eq!(g.cell_count(), u64::from(g.columns()) * u64::from(g.rows()));

        let fine = sf_grid(100.0);
        assert!(fine.columns() > g.columns());
        assert!(fine.rows() > g.rows());
    }

    #[test]
    fn invalid_cell_sizes_are_rejected() {
        let area = BoundingBox::new(37.70, -122.52, 37.83, -122.35).unwrap();
        assert!(Grid::new(area, Meters::new(0.0)).is_err());
        assert!(Grid::new(area, Meters::new(-5.0)).is_err());
        assert!(Grid::new(area, Meters::new(f64::NAN)).is_err());
        // A cell size of 0.01 m over a planet-scale box would overflow u32.
        let planet = BoundingBox::new(-80.0, -179.0, 80.0, 179.0).unwrap();
        assert!(Grid::new(planet, Meters::new(0.01)).is_err());
    }

    #[test]
    fn corner_points_map_to_corner_cells() {
        let g = sf_grid(200.0);
        let sw = g.cell_of(g.bounds().south_west());
        assert_eq!(sw, cell(0, 0));
        let ne = g.cell_of(g.bounds().north_east());
        assert_eq!(ne, cell(g.columns() - 1, g.rows() - 1));
    }

    #[test]
    fn out_of_bounds_points_clamp_to_border() {
        let g = sf_grid(200.0);
        let far_north = GeoPoint::new(45.0, -122.4194).unwrap();
        let c = g.cell_of(far_north);
        assert_eq!(c.row, g.rows() - 1);
        let far_west = GeoPoint::new(37.75, -130.0).unwrap();
        assert_eq!(g.cell_of(far_west).col, 0);
    }

    #[test]
    fn nearby_points_share_a_cell_distant_points_do_not() {
        let g = sf_grid(200.0);
        let a = GeoPoint::new(37.7749, -122.4194).unwrap();
        let b = GeoPoint::new(37.77495, -122.41945).unwrap(); // a few meters away
        assert_eq!(g.cell_of(a), g.cell_of(b));
        let c = GeoPoint::new(37.79, -122.40).unwrap(); // ~2 km away
        assert_ne!(g.cell_of(a), g.cell_of(c));
    }

    #[test]
    fn cell_center_roundtrips_to_same_cell() {
        let g = sf_grid(200.0);
        for point in [
            GeoPoint::new(37.7749, -122.4194).unwrap(),
            GeoPoint::new(37.71, -122.50).unwrap(),
            GeoPoint::new(37.82, -122.36).unwrap(),
        ] {
            let c = g.cell_of(point);
            let center = g.cell_center(c);
            assert_eq!(g.cell_of(center), c, "cell {c} center {center}");
        }
    }

    #[test]
    fn coverage_and_histogram() {
        let g = sf_grid(200.0);
        let a = GeoPoint::new(37.7749, -122.4194).unwrap();
        let b = GeoPoint::new(37.79, -122.40).unwrap();
        let cov = g.coverage([a, a, b]);
        assert_eq!(cov.len(), 2);
        let hist = g.histogram([a, a, b]);
        assert_eq!(hist[&g.cell_of(a)], 2);
        assert_eq!(hist[&g.cell_of(b)], 1);
    }

    #[test]
    fn cellset_similarities() {
        let a = CellSet::from_cells([cell(0, 0), cell(1, 0), cell(2, 0)]);
        let b = CellSet::from_cells([cell(1, 0), cell(2, 0), cell(3, 0)]);
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(a.union_size(&b), 4);
        assert!((a.jaccard(&b) - 0.5).abs() < 1e-12);
        assert!((a.precision_of(&b) - 2.0 / 3.0).abs() < 1e-12);
        assert!((a.recall_of(&b) - 2.0 / 3.0).abs() < 1e-12);
        assert!((a.f1_of(&b) - 2.0 / 3.0).abs() < 1e-12);

        // Identity.
        assert_eq!(a.jaccard(&a), 1.0);
        assert_eq!(a.f1_of(&a), 1.0);

        // Disjoint sets.
        let c = CellSet::from_cells([cell(9, 9)]);
        assert_eq!(a.jaccard(&c), 0.0);
        assert_eq!(a.f1_of(&c), 0.0);
    }

    #[test]
    fn cellset_empty_conventions() {
        let empty = CellSet::new();
        let nonempty = CellSet::from_cells([cell(0, 0)]);
        assert!(empty.is_empty());
        assert_eq!(empty.jaccard(&empty), 1.0);
        assert_eq!(empty.f1_of(&empty), 1.0);
        assert_eq!(nonempty.precision_of(&empty), 0.0);
        assert_eq!(empty.recall_of(&nonempty), 1.0);
    }

    #[test]
    fn cellset_collect_dedups_in_lexicographic_order() {
        let s: CellSet = [cell(2, 2), cell(1, 1), cell(0, u32::MAX), cell(1, 1), cell(u32::MAX, 0)]
            .into_iter()
            .collect();
        assert_eq!(s.len(), 4);
        assert!(s.contains(cell(2, 2)));
        assert!(!s.contains(cell(2, 1)));
        let cells: Vec<CellId> = s.iter().collect();
        assert_eq!(cells, vec![cell(0, u32::MAX), cell(1, 1), cell(2, 2), cell(u32::MAX, 0)]);
    }
}
