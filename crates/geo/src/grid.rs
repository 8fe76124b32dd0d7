//! Uniform "city block" grids and cell coverage.
//!
//! The paper's utility metric compares the *area coverage* of a user's actual
//! and protected traces at the granularity of a city block. [`Grid`]
//! discretizes a geographic bounding box into square cells of a configurable
//! size (200 m by default, a typical San Francisco block), and [`CellSet`]
//! represents the set of cells touched by a trace.
//!
//! A sweep evaluates area coverage for every user at every configuration
//! point. [`Grid::overlaps`] counts |A|, |P| and |A ∩ P| ([`CellOverlap`])
//! for every (actual, protected) pair in one call, from the traces'
//! coordinate columns, in one of two ways chosen once per call:
//!
//! * **Dense grid** (at most 32 cells per input record): two bitmaps over
//!   the linear cell index `col × rows + row`, allocated once per call. A
//!   cell is counted the first time its bit is set, so each trace takes one
//!   pass, no sort and no data-dependent branch; only the words a pair
//!   touched are cleared before the next pair.
//! * **Sparser grid:** one [`CellSet`] per trace, a sorted, deduplicated
//!   `Vec<u64>` of packed keys `(col << 32) | row` built by [`Grid::coverage`]
//!   (one key per record, then one sort and dedup), and
//!   [`CellSet::intersection_size`], a linear merge of two sorted key lists.
//!   A grid may have up to 2³² cells, and a bitmap over that many takes
//!   512 MiB however few records it holds; sorted keys keep memory in
//!   proportion to the input.
//!
//! Packed keys sort exactly like `CellId`'s derived `Ord` (column, then
//! row), so a [`CellSet`] holds its cells in lexicographic order. Counts
//! depend only on set membership, never on the container, so both ways give
//! the same counts as a tree of [`CellId`]s.

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
/// use geopriv_geo::{BoundingBox, CellId, GeoPoint, Grid, Meters};
///
/// # fn main() -> Result<(), geopriv_geo::GeoError> {
/// let area = BoundingBox::new(37.70, -122.52, 37.83, -122.35)?;
/// let grid = Grid::new(area, Meters::new(200.0))?;
///
/// assert_eq!(grid.cell_of(area.south_west()), CellId { col: 0, row: 0 });
/// // Far outside the box: clamped onto a border cell, never dropped.
/// assert_eq!(grid.cell_of(GeoPoint::new(30.0, -130.0)?), CellId { col: 0, row: 0 });
/// assert!(grid.cell_count() > 1_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid {
    cell_size: Meters,
    projection: LocalProjection,
    columns: u32,
    rows: u32,
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
        Ok(Self { cell_size, projection, columns: columns as u32, rows: rows as u32 })
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

    /// Counts |A|, |P| and |A ∩ P| for each (actual, protected) pair of
    /// traces, in pair order.
    ///
    /// Each trace is given as its `(latitudes, longitudes)` columns, in
    /// decimal degrees, of equal length and taken from valid [`GeoPoint`]s.
    /// A grid with at most 32 cells per record of all the pairs counts on
    /// bitmaps, a sparser one on [`CellSet`]s (see the module docs); the
    /// counts are the same either way. The pairs are walked twice: once to
    /// size the scratch space, once to count.
    pub fn overlaps<'a, I>(&self, pairs: I) -> Vec<CellOverlap>
    where
        I: IntoIterator<Item = (Columns<'a>, Columns<'a>)>,
        I::IntoIter: Clone,
    {
        let pairs = pairs.into_iter();
        let (mut count, mut records, mut widest) = (0_usize, 0_usize, 0_usize);
        for ((actual, _), (protected, _)) in pairs.clone() {
            let pair = actual.len().saturating_add(protected.len());
            count += 1;
            records = records.saturating_add(pair);
            widest = widest.max(pair);
        }
        let mut overlaps = Vec::with_capacity(count);
        // Two bits per cell then take at most 8 bytes per record, the size
        // of one packed key: a memory bound, not a tuning value.
        let limit = u64::try_from(records).map_or(u64::MAX, |r| r.saturating_mul(32));
        let dense = self.cell_count() <= limit;
        match usize::try_from(self.cell_count().div_ceil(64)) {
            Ok(words) if dense => {
                let mut bitmaps =
                    CellBitmaps { words: vec![[0; 2]; words], touched: vec![0; widest] };
                overlaps.extend(pairs.map(|(a, p)| bitmaps.overlap(self, a, p)));
            }
            _ => overlaps.extend(pairs.map(|(a, p)| {
                let (a, p) = (self.coverage(points(a)), self.coverage(points(p)));
                CellOverlap { actual: a.len(), protected: p.len(), common: a.intersection_size(&p) }
            })),
        }
        overlaps
    }
}

/// One trace's `(latitudes, longitudes)` columns, in decimal degrees.
type Columns<'a> = (&'a [f64], &'a [f64]);

/// The points of stored coordinate columns.
fn points((lat, lon): Columns<'_>) -> impl Iterator<Item = GeoPoint> + '_ {
    lat.iter().zip(lon).map(|(&lat, &lon)| GeoPoint::from_stored(lat, lon))
}

/// The dense path of [`Grid::overlaps`]: the actual and the protected
/// bitmap over the linear cell index, word-interleaved so that a cell's two
/// bits share a cache line.
struct CellBitmaps {
    /// Per 64 cells: the actual trace's word, then the protected trace's.
    words: Vec<[u64; 2]>,
    /// One slot per record of the widest pair. The first |A| + |P| slots
    /// hold the word of each cell the current pair counted: all that needs
    /// clearing.
    touched: Vec<usize>,
}

impl CellBitmaps {
    fn overlap(&mut self, grid: &Grid, actual: Columns<'_>, protected: Columns<'_>) -> CellOverlap {
        // The protected bitmap is clear while the actual trace is marked, so
        // only the protected pass finds shared cells.
        let (actual, _) = self.mark(grid, actual, 0, 0);
        let (protected, common) = self.mark(grid, protected, 1, actual);
        for &word in &self.touched[..actual + protected] {
            self.words[word] = [0; 2];
        }
        CellOverlap { actual, protected, common }
    }

    /// Sets `side`'s bit for every cell the trace touches; returns how many
    /// cells were new to that side, and how many of those the other side
    /// holds. The word of the `k`-th new cell goes to `touched[first + k]`.
    ///
    /// Whether a cell is new depends on the data, so there is no branch on
    /// it: every record sets its bit, counts the bit's old value, and writes
    /// its word to the next free slot, which only a new cell claims. A
    /// record's slot is at most `first` plus its index in the trace, so
    /// `touched` never needs to grow.
    fn mark(
        &mut self,
        grid: &Grid,
        trace: Columns<'_>,
        side: usize,
        first: usize,
    ) -> (usize, usize) {
        let rows = grid.rows as usize;
        let (mut new, mut shared) = (0, 0);
        for point in points(trace) {
            let cell = grid.cell_of(point);
            let index = cell.col as usize * rows + cell.row as usize;
            let (word, bit) = (index / 64, index % 64);
            let bits = &mut self.words[word];
            let fresh = (!bits[side] >> bit) & 1;
            bits[side] |= 1 << bit;
            shared += (fresh & (bits[1 - side] >> bit)) as usize;
            self.touched[first + new] = word;
            new += fresh as usize;
        }
        (new, shared)
    }
}

/// The cell counts of an actual trace A and its protected release P on one
/// grid: |A|, |P| and |A ∩ P|.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellOverlap {
    /// |A|: distinct cells the actual trace touches.
    pub actual: usize,
    /// |P|: distinct cells the protected trace touches.
    pub protected: usize,
    /// |A ∩ P|: cells both touch.
    pub common: usize,
}

impl CellOverlap {
    /// Compares the *size* of the two coverages: `min(|A|, |P|) /
    /// max(|A|, |P|)`, in `[0, 1]`. Two empty coverages have ratio 1.
    pub fn area_ratio(&self) -> f64 {
        let (a, p) = (self.actual as f64, self.protected as f64);
        if a == 0.0 && p == 0.0 {
            1.0
        } else {
            a.min(p) / a.max(p)
        }
    }
}

/// Packs a cell into a key that sorts like [`CellId`]'s derived `Ord`.
fn pack(cell: CellId) -> u64 {
    (u64::from(cell.col) << 32) | u64::from(cell.row)
}

/// A set of grid cells, typically the coverage of a mobility trace.
///
/// The cells are kept as sorted, distinct packed keys (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CellSet {
    keys: Vec<u64>,
}

impl CellSet {
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
}

impl FromIterator<CellId> for CellSet {
    fn from_iter<I: IntoIterator<Item = CellId>>(iter: I) -> Self {
        Self::from_cells(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        assert!((60..90).contains(&g.columns), "cols={}", g.columns);
        assert!((60..90).contains(&g.rows), "rows={}", g.rows);
        assert_eq!(g.cell_count(), u64::from(g.columns) * u64::from(g.rows));

        let fine = sf_grid(100.0);
        assert!(fine.columns > g.columns);
        assert!(fine.rows > g.rows);
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
        let area = BoundingBox::new(37.70, -122.52, 37.83, -122.35).unwrap();
        let sw = g.cell_of(area.south_west());
        assert_eq!(sw, cell(0, 0));
        let ne = g.cell_of(area.north_east());
        assert_eq!(ne, cell(g.columns - 1, g.rows - 1));
    }

    #[test]
    fn out_of_bounds_points_clamp_to_border() {
        let g = sf_grid(200.0);
        let far_north = GeoPoint::new(45.0, -122.4194).unwrap();
        let c = g.cell_of(far_north);
        assert_eq!(c.row, g.rows - 1);
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
            let center = cell_center(&g, c);
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
    fn histogram_counts_every_point_once() {
        let g = sf_grid(500.0);
        let pts: Vec<GeoPoint> = (0..50)
            .map(|i| {
                let (lat, lon) = (37.71 + f64::from(i) * 0.001, -122.50 + f64::from(i % 7) * 0.01);
                GeoPoint::new(lat, lon).unwrap()
            })
            .collect();
        let hist = g.histogram(pts.iter().copied());
        assert_eq!(hist.values().sum::<usize>(), pts.len());
        assert_eq!(g.coverage(pts.iter().copied()).len(), hist.len());
        assert!(hist.len() > 1);
    }

    /// The geographic center of `cell`, clamped onto `g`.
    fn cell_center(g: &Grid, cell: CellId) -> GeoPoint {
        let col = cell.col.min(g.columns - 1);
        let row = cell.row.min(g.rows - 1);
        let x = (f64::from(col) + 0.5) * g.cell_size.as_f64();
        let y = (f64::from(row) + 0.5) * g.cell_size.as_f64();
        g.projection.unproject(crate::point::Point::new(x, y))
    }

    /// The overlap of two traces that visit the centers of the given cells.
    fn overlap_of(g: &Grid, actual: &[CellId], protected: &[CellId]) -> CellOverlap {
        let columns = |cells: &[CellId]| -> (Vec<f64>, Vec<f64>) {
            cells.iter().map(|&c| cell_center(g, c)).map(|p| (p.latitude(), p.longitude())).unzip()
        };
        let (a, p) = (columns(actual), columns(protected));
        let overlaps = g.overlaps([((&a.0[..], &a.1[..]), (&p.0[..], &p.1[..]))]);
        assert_eq!(overlaps.len(), 1);
        overlaps[0]
    }

    #[test]
    fn cellset_similarities() {
        let a = CellSet::from_cells([cell(0, 0), cell(1, 0), cell(2, 0)]);
        let b = CellSet::from_cells([cell(1, 0), cell(2, 0), cell(3, 0)]);
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(b.intersection_size(&a), 2);

        // 5 400 cells for 6 to 8 records counts on cell sets; 25 on bitmaps.
        for g in [sf_grid(200.0), sf_grid(3_000.0)] {
            let (a, b) =
                ([cell(0, 0), cell(1, 0), cell(2, 0)], [cell(1, 0), cell(2, 0), cell(3, 0)]);
            let ab = overlap_of(&g, &a, &b);
            assert_eq!(ab, CellOverlap { actual: 3, protected: 3, common: 2 });
            let jaccard = ab.common as f64 / (ab.actual + ab.protected - ab.common) as f64;
            assert!((jaccard - 0.5).abs() < 1e-12);
            assert_eq!(ab.area_ratio(), 1.0);

            // Identity, with repeated visits.
            let aa = overlap_of(&g, &[a[0], a[1], a[0], a[2], a[2]], &a);
            assert_eq!(aa, CellOverlap { actual: 3, protected: 3, common: 3 });
            assert_eq!(aa.area_ratio(), 1.0);

            // Disjoint sets.
            let ac = overlap_of(&g, &a, &[cell(4, 4)]);
            assert_eq!(ac, CellOverlap { actual: 3, protected: 1, common: 0 });
            assert_eq!(ac.area_ratio(), 1.0 / 3.0);
        }
    }

    #[test]
    fn cellset_empty_conventions() {
        let empty = CellSet::default();
        assert!(empty.is_empty());
        assert_eq!(empty.intersection_size(&CellSet::from_cells([cell(0, 0)])), 0);

        // Two empty coverages are identical; one empty coverage against a
        // non-empty one shares nothing.
        let none = CellOverlap { actual: 0, protected: 0, common: 0 };
        assert_eq!(none.area_ratio(), 1.0);
        let dropped = CellOverlap { actual: 1, protected: 0, common: 0 };
        assert_eq!(dropped.area_ratio(), 0.0);
        let invented = CellOverlap { actual: 0, protected: 1, common: 0 };
        assert_eq!(invented.area_ratio(), 0.0);

        // An empty trace counts no cell, on cell sets (5 400 cells for one
        // record) and on bitmaps (25 cells); no pair gives no counts.
        let nothing: &[f64] = &[];
        for g in [sf_grid(200.0), sf_grid(3_000.0)] {
            assert_eq!(overlap_of(&g, &[cell(1, 1)], &[]), dropped);
            assert_eq!(overlap_of(&g, &[], &[cell(1, 1)]), invented);
            assert_eq!(g.overlaps([((nothing, nothing), (nothing, nothing))]), vec![none]);
            assert!(g.overlaps(std::iter::empty()).is_empty());
        }
    }

    /// Cell sequences in a 9 × 9 corner of the grid, so that cells repeat
    /// within a trace and recur across traces.
    fn corner_cells(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<CellId>> {
        prop::collection::vec((0_u32..9, 0_u32..9).prop_map(|(col, row)| cell(col, row)), len)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bitmaps count what sorted cell keys count, pair by pair, when
        /// one call holds many pairs: consecutive pairs share a trace (and
        /// so cells), and one-record traces and empty sides ride along, so a
        /// word left set by one pair would show in the next pair's counts.
        #[test]
        fn bitmap_overlaps_equal_the_sorted_key_counts(
            traces in prop::collection::vec(corner_cells(5..40), 3..10),
            cell_m in 700.0_f64..3_000.0,
        ) {
            let g = sf_grid(cell_m);
            let (first, second) = (&traces[0][..], &traces[1][..]);
            let mut pairs: Vec<(&[CellId], &[CellId])> =
                traces.windows(2).map(|pair| (&pair[0][..], &pair[1][..])).collect();
            pairs.extend([(first, &[][..]), (&[][..], second), (&first[..1], &second[..1])]);
            pairs.extend(traces.windows(2).map(|pair| (&pair[1][..], &pair[0][..])));

            let centers = |cells: &[CellId]| -> Vec<GeoPoint> {
                cells.iter().map(|&c| cell_center(&g, c)).collect()
            };
            let columns = |cells: &[CellId]| -> (Vec<f64>, Vec<f64>) {
                centers(cells).iter().map(|p| (p.latitude(), p.longitude())).unzip()
            };
            let stored: Vec<_> = pairs.iter().map(|&(a, p)| (columns(a), columns(p))).collect();
            let records: usize = pairs.iter().map(|(a, p)| a.len() + p.len()).sum();
            prop_assert!(g.cell_count() <= 32 * records as u64, "the grid counts on bitmaps");

            let overlaps = g.overlaps(
                stored.iter().map(|(a, p)| ((&a.0[..], &a.1[..]), (&p.0[..], &p.1[..]))),
            );
            prop_assert_eq!(overlaps.len(), pairs.len());
            for (i, (overlap, &(a, p))) in overlaps.iter().zip(&pairs).enumerate() {
                let (a, p) = (g.coverage(centers(a)), g.coverage(centers(p)));
                let sorted = CellOverlap {
                    actual: a.len(),
                    protected: p.len(),
                    common: a.intersection_size(&p),
                };
                prop_assert_eq!(*overlap, sorted, "pair {}", i);
            }
        }
    }

    #[test]
    fn cellset_collect_dedups_in_lexicographic_order() {
        let s: CellSet = [cell(2, 2), cell(1, 1), cell(0, u32::MAX), cell(1, 1), cell(u32::MAX, 0)]
            .into_iter()
            .collect();
        assert_eq!(s.len(), 4);
        let sorted = [cell(0, u32::MAX), cell(1, 1), cell(2, 2), cell(u32::MAX, 0)];
        assert_eq!(s.keys, sorted.into_iter().map(pack).collect::<Vec<_>>());
    }
}
